"""Set-up probe: import blockmf and parse the given scenario files under
the speed gauge, then print the monotonic clock, which the parent
subtracts from its own clock reading taken just before it started this
process, and the slowdown the gauge read.

    python3 perfbench/probe.py SRC_DIR SCENARIO.json [...]
"""

import sys
import time

import gauge

sys.path.insert(0, sys.argv[1])

with gauge.Gauge() as g:
    from blockmf.cli import main  # noqa: F401  (the CLI's whole import)
    from blockmf.scenario import load_scenario

    for path in sys.argv[2:]:
        load_scenario(path)
    done = time.perf_counter()
print(repr(done), repr(g.slowdown()))
