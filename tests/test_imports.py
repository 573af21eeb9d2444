"""scipy is loaded on first use, not by importing the package.

The check runs in a fresh interpreter: the test session itself has scipy
loaded long before this module runs.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import circulant_ilc

GUARD = textwrap.dedent(
    """
    import sys

    import circulant_ilc
    import circulant_ilc.cli
    from circulant_ilc import PRESETS, ContinuousPlant, OptimizerConfig, discretize_zoh, realize

    def loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    out = sys.argv[1]
    css = realize(ContinuousPlant(first_order=(8.8,), second_order=((37.0, 0.5),)))
    assert PRESETS["third_order"].q == 1
    OptimizerConfig(iterations=10, region_size=5)
    assert circulant_ilc.cli.main(["analyze", "--n", "0", "--out", out]) == 2
    assert circulant_ilc.cli.main(["analyze", "--plant", out + "/none.json", "--out", out]) == 2
    assert not loaded(), loaded()
    discretize_zoh(css, 0.02)
    assert "scipy.linalg" in loaded(), loaded()
    print("ok")
    """
)


def test_import_and_config_errors_leave_scipy_unloaded(tmp_path):
    # the child imports the same circulant_ilc as this session
    path = [str(Path(circulant_ilc.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
    assert proc.stderr.count("configuration error") == 2
