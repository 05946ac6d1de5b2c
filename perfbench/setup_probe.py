"""Set-up probe, run in a fresh interpreter by run.py.

Times importing ``symcone`` plus one tiny call per cone kind (which makes the
first LAPACK calls) and prints the seconds.  Usage:
``python setup_probe.py <dir holding the symcone package>``.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import symcone  # noqa: E402

for alg in (symcone.sym_real(2), symcone.herm_complex(2), symcone.lorentz(2)):
    e = symcone.identity(alg)
    symcone.det(symcone.inverse(e + e))
print(time.perf_counter() - start)
