"""In-memory spans around the public functions of circulant_ilc.

The wrappers live here, in the benchmark, and replace the package's public
functions only for the traced part of a run; nothing is recorded from inside
src/. A span is [name, start, end, parent, job], where parent is the index of
the enclosing span and job the id of the benchmark job that caused it.

Standard library only, so child interpreters can import it before numpy.
"""

import collections
import contextlib
import functools
import importlib
import os
import sys
import time

# Public functions wrapped per module. A function is wrapped in every module
# of the package that bound it: cli's LiftedModel/circulant_inverse and the
# signed_svd that optimizer and simulation import from laws all record spans.
TRACED = {
    "plants": (
        "realize",
        "discretize_zoh",
        "markov_parameters",
        "frequency_response",
        "sampling_zeros",
        "unstable_zero_count",
    ),
    "lifted": (
        "LiftedModel.build",
        "toeplitz_matrix",
        "step_observability",
        "circulant_matrix",
        "circulant_inverse",
        "dft_verify",
        "delete_initial_steps",
    ),
    "laws": (
        "inverse_circulant_law",
        "scaled_inverse_circulant_law",
        "accelerated_law",
        "partial_isometry_law",
        "contraction_mapping_law",
        "quadratic_cost_law",
        "error_propagation",
        "signed_svd",
    ),
    "convergence": ("analyze", "gain_sweep"),
    "optimizer": ("optimize", "sensitivity_map", "sensitivity_matrix"),
    "simulation": ("make_trajectory", "run_ilc", "worst_case_experiment"),
    "exports": ("write_rows", "write_matrix", "write_json"),
    "cli": ("main",),
}

LAYERS = ("import", *TRACED)
IMPORT_SPAN = "import.circulant_ilc"
JOB_SPAN = "job"


def _array_bytes(result):
    """Bytes of the dense arrays a lifted-layer call returns (computed, not measured)."""
    if hasattr(result, "nbytes"):
        return int(result.nbytes)
    return sum(int(v.nbytes) for v in vars(result).values() if hasattr(v, "nbytes"))


# Exact counts taken from a traced call's result, keyed by span name.
_COUNTERS = {
    "lifted.build": lambda r: {"lifted.dense_bytes": _array_bytes(r)},
    "lifted.circulant_inverse": lambda r: {"lifted.dense_bytes": _array_bytes(r)},
    "lifted.dft_verify": lambda r: {"lifted.dense_bytes": _array_bytes(r)},
    "lifted.delete_initial_steps": lambda r: {"lifted.dense_bytes": _array_bytes(r)},
    "convergence.gain_sweep": lambda r: {"convergence.gain_sweep.points": int(r.gains.size)},
    "optimizer.optimize": lambda r: {
        "optimizer.iterations": int(r.sigma.size - 1),
        "optimizer.diagnostic_stops": int(r.diagnostic is not None),
    },
    "simulation.run_ilc": lambda r: {"simulation.run_ilc.iterations": int(r.iterations)},
    "exports.write_rows": lambda r: {"exports.bytes_written": os.path.getsize(r)},
    "exports.write_matrix": lambda r: {"exports.bytes_written": os.path.getsize(r)},
    "exports.write_json": lambda r: {"exports.bytes_written": os.path.getsize(r)},
}

COUNT_UNITS = {
    "lifted.dense_bytes": "B",
    "convergence.gain_sweep.points": "count",
    "optimizer.iterations": "count",
    "optimizer.diagnostic_stops": "count",
    "simulation.run_ilc.iterations": "count",
    "exports.bytes_written": "B",
}


def _span_name(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Span and count recorder; records only while `active` (inside a job)."""

    def __init__(self, active=False):
        self.active = active
        self.spans = []
        self.counts = collections.Counter()
        self.job_id = None
        self._open = []
        self._undo = []

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job_id])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def record(self, name, start, end):
        """Add a finished span under the currently open one."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, end, parent, self.job_id])

    @contextlib.contextmanager
    def job(self, job_id):
        self.job_id, self.active = job_id, True
        self.begin(JOB_SPAN)
        try:
            yield
        finally:
            self.end()
            self.active = False

    def merge(self, child):
        """Adopt a child process's spans and counts under the open span."""
        offset = len(self.spans)
        top = self._open[-1] if self._open else None
        for name, start, end, parent, _ in child["spans"]:
            parent = top if parent is None else parent + offset
            self.spans.append([name, start, end, parent, self.job_id])
        self.counts.update(child["counts"])

    def wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function in every loaded circulant_ilc module."""
        owners = {short: importlib.import_module(f"circulant_ilc.{short}") for short in TRACED}
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "circulant_ilc" or key.startswith("circulant_ilc.")
        ]
        try:
            for short, attrs in TRACED.items():
                for attr in attrs:
                    self._install(owners[short], short, attr, modules)
            yield self
        finally:
            for obj, key, original in reversed(self._undo):
                setattr(obj, key, original)
            self._undo.clear()

    def _install(self, owner, short, attr, modules):
        name = _span_name(short, attr)
        if "." in attr:  # a classmethod such as LiftedModel.build
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, classmethod(self.wrap(name, original.__func__)))
            return
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)


def summarize(spans, counts, passes):
    """Per-layer metrics {name: (value, unit)} per pass of the job list."""
    duration = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            covered[parent] += duration[i]
    self_time = [d - c for d, c in zip(duration, covered)]

    calls = collections.Counter()
    self_by_name = collections.defaultdict(float)
    total_by_name = collections.defaultdict(float)
    for i, span in enumerate(spans):
        calls[span[0]] += 1
        self_by_name[span[0]] += self_time[i]
        total_by_name[span[0]] += duration[i]

    metrics = {}
    for short, attrs in TRACED.items():
        for attr in attrs:
            name = _span_name(short, attr)
            metrics[f"{name}.calls"] = (calls[name] // passes, "count")
            metrics[f"{name}.self_s"] = (self_by_name[name] / passes, "s")
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (int(counts.get(name, 0)) // passes, unit)
    iterations = counts.get("optimizer.iterations", 0)
    per_iteration = total_by_name["optimizer.optimize"] / iterations if iterations else 0.0
    metrics["optimizer.s_per_iteration"] = (per_iteration, "s")

    job_time = total_by_name[JOB_SPAN]
    for layer in LAYERS:
        busy = sum(t for name, t in self_by_name.items() if name.startswith(layer + "."))
        metrics[f"{layer}.share"] = (busy / job_time if job_time else 0.0, "1")
    metrics["trace.uncovered_share"] = (
        self_by_name[JOB_SPAN] / job_time if job_time else 0.0, "1"
    )
    return metrics


def parse_importtime(stderr):
    """(circulant_ilc cumulative, sum of scipy self times) in seconds from -X importtime."""
    package = 0.0
    scipy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        own, cumulative, name = int(fields[0]), int(fields[1]), fields[2].strip()
        if name == "circulant_ilc":
            package = cumulative / 1e6
        elif name == "scipy" or name.startswith("scipy."):
            scipy += own / 1e6
    return package, scipy
