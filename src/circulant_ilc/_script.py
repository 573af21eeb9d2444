"""The console script's module: the cyclic collector goes off before `cli`, numpy and
scipy are imported, as it does under `python -m circulant_ilc.cli`. No library module
imports this one."""

import gc

gc.disable()

from .cli import run  # noqa: E402
