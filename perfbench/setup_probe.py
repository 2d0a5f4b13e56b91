"""Cold set-up probe: import the program, then build and solve one scenario.

perfbench/run.py starts this in a fresh interpreter with PYTHONPATH pointing
at the program's sources. Arguments: grid case, control, condenser (1/0),
v_g_ref, v_turb_ref, p_turb_ref. Prints the elapsed seconds.
"""

import sys
import time

t0 = time.perf_counter()

from wppsc import cli  # noqa: E402,F401  (the CLI imports every module)
from wppsc.config import build_model, preset_scenario, refs_for  # noqa: E402
from wppsc.powerflow import solve_equilibrium  # noqa: E402

case, control, with_sc = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
v_g, v_t, p = (float(v) for v in sys.argv[4:7])
scenario = preset_scenario(case, control=control, with_sc=with_sc,
                           v_g_ref=v_g, v_turb_ref=v_t, p_turb_ref=p)
solve_equilibrium(build_model(scenario), refs_for(scenario))
print(repr(time.perf_counter() - t0))
