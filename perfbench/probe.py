"""Helper processes of a run.

``python3 -m perfbench.probe <workload>`` is one cold start of an
in-process workload: it imports the workload (and so every program
layer it drives), builds what it needs before its first op, and prints
``ready``; the parent times process start to that line.

``python3 -m perfbench.probe --reference SECONDS EVERY`` times the
reference kernel every ``EVERY`` seconds for up to ``SECONDS`` and
prints one ``start wall`` line per run (``perf_counter`` seconds), for a
run whose work goes on in another process.

Both need the checkout root and ``src`` on ``PYTHONPATH``.
"""

import sys
import time


def main() -> None:
    if sys.argv[1] == "--reference":
        from perfbench import harness
        end = time.perf_counter() + float(sys.argv[2])
        every = float(sys.argv[3])
        while time.perf_counter() < end:
            start = time.perf_counter()
            wall = harness.reference_s()
            print(repr(start), repr(wall), flush=True)
            time.sleep(every)
        return
    from perfbench import workloads
    from perfbench.workloads.common import ready
    workloads.load(sys.argv[1])
    ready()
    print("ready", flush=True)


if __name__ == "__main__":
    main()
