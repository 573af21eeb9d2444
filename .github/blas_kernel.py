"""Print the OpenBLAS kernel numpy runs on, or "unknown" when numpy's bundled
library or its core-name symbol is missing. CI prints it before the tests so
that a failure which depends on the kernel names its kernel."""

import ctypes
import glob
import os

import numpy

libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
try:
    lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
    corename = lib.scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    print("OpenBLAS kernel:", corename().decode())
except (IndexError, OSError, AttributeError):
    print("OpenBLAS kernel: unknown")
