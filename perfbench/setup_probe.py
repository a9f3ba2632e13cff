"""Print the seconds this fresh process takes to import qortho and build its
first context, then the fastest of three reference loops (see reference.py)
taken right after, which run.py uses to rescale the first figure. Nothing
else is imported before the timed import, so the figure includes every
module the package pulls in.

Usage: python3 perfbench/setup_probe.py
"""
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import qortho.cli  # noqa: E402

qortho.PrecisionContext.create(bits=256, tol_exp=200)
setup = time.perf_counter() - start

sys.path.insert(0, HERE)
from reference import reference_seconds  # noqa: E402

print(repr(setup), repr(min(reference_seconds() for _ in range(3))))
