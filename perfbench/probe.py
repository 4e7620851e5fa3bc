"""Set-up probe: one fresh interpreter, from start to the end of its first solve.

Imports dedpoz from the checkout, runs the warm-up solve (the 279-row base
fleet at 10 tangents, which also pays for the first threaded LAPACK call),
and prints ``time.monotonic()``.  ``run.py`` starts it and subtracts the
clock it read just before the start; the monotonic clock is shared by all
processes on the machine.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dedpoz import solve_ded_no_loss  # noqa: E402

from workloads import LADDER_CONFIG, symmetric_fleet  # noqa: E402

solve_ded_no_loss(symmetric_fleet(), LADDER_CONFIG)
print(time.monotonic())
