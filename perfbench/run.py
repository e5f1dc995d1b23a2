#!/usr/bin/env python3
"""The repository benchmark: four workloads, two clocks, one command.

    python3 perfbench/run.py --workload kv-quorum --seed 1 --seconds 10 --trace 0

``--workload`` is one of kv-quorum, activity-log, member-pipeline,
profile-views, or ``all``.  With ``--trace 0`` the run sets the system
up several times (``setup_s`` is their median), measures one untraced
timed phase and prints every end-to-end metric.  With ``--trace 1`` it
measures an untraced phase and then, on a fresh set-up, a traced phase
of the same length, and prints every per-layer metric, the tracing
overhead and the share of traced time no layer accounts for; the spans
go to ``perfbench/out/``.  Every run checks the workload's oracle and
reports ``correct: false`` on any mismatch.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` (with ``all``, one
such line per workload).  Out of scope, and not run: ``migration``,
``hadoop`` and the read-only build/swap pipeline, ``audit`` and
``analysis`` (see README.md).
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: string hashing fixes the layout of every dict the program builds, and
#: with it a few percent of its speed: six runs of one activity-log seed
#: spread 0.06 in Producer.send's median under random hashing, 0.02 pinned
HASH_SEED = "0"

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src/repro",
              file=sys.stderr)
        sys.exit(2)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # re-execute in place (the same process) with hashing pinned
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.harness import main
    sys.exit(main())
