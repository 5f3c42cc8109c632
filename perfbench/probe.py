"""Cold-start probe, run in a fresh interpreter: ``probe.py <src dir>``.

Prints one JSON line with the wall time of ``import dro.cli`` and of the
first HiGHS call, which pays the lazy ``scipy.optimize`` import.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

t0 = time.perf_counter()
import dro.cli  # noqa: E402,F401

t1 = time.perf_counter()
from dro.closedform import milp_cop  # noqa: E402
from dro.problems import gen_sorting  # noqa: E402
from dro.solver import ScipyBackend  # noqa: E402

cop = milp_cop(gen_sorting(4, 2).feasible, ScipyBackend())
t2 = time.perf_counter()
cop([0.4, 0.1, 0.3, 0.2])
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "first_call_s": t3 - t2}))
