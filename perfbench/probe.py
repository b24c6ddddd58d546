"""Machine-speed probe: CPU time of a fixed pure-Python loop, sampled on one CPU.

Usage: python3 probe.py <cpu>

Pins itself to <cpu>, runs the loop every INTERVAL_S seconds (about 1% of
the CPU) and, when its standard input closes, prints the CPU seconds each
sample took as a JSON list.  On a shared machine the speed of a CPU drifts
by tens of percent within a minute; a probe on the CPU a timed call runs on
sees the same drift, so dividing by the probe's time removes it.  The loop
updates a module global, like the interpreter-bound parts of stripwave.
On a 2-vCPU Xeon VM, the log-log slope of the program's wall time against
this loop's time was 0.8-1.2 (correlation 0.8-0.97) over four sets of
10-16 calls.  The same loop over a local variable gave slopes of 1.05-1.5.
"""

import json
import os
import select
import sys
import time

LOOP = 10000
INTERVAL_S = 0.05
counter = 0


def sample() -> float:
    global counter
    t0 = time.thread_time()
    for _ in range(LOOP):
        counter += 1
    return time.thread_time() - t0


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        samples.append(sample())
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
