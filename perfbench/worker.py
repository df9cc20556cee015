"""One benchmark process: set up, then fill the cache or run one iteration.

Started by run.py as a fresh interpreter with PYTHONPATH pointing at the
checkout's src and DETLINKS_CACHE at a private directory.  The single
argument is a JSON object with the keys mode ("probe", "fill" or "iterate"),
workload, seed, traced and result (the file the outcome is written to).
Set-up ends at the "ready" timestamp, taken on the system-wide monotonic
clock so that run.py can subtract its own spawn time.
"""

import json
import sys
import time


def main(argv) -> int:
    job = json.loads(argv[1])
    import detlinks.cli  # noqa: F401  (the import is part of set-up)

    import workloads
    from checks import Checker

    checker = None if job["mode"] == "fill" else Checker()
    ready = time.monotonic()
    outcome = {"ready": ready}
    if job["mode"] == "fill":
        outcome.update(workloads.fill_cache())
    elif job["mode"] == "iterate":
        outcome.update(workloads.run_iteration(job["workload"], job["seed"], checker, job["traced"]))
    with open(job["result"], "w") as fh:
        json.dump(outcome, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
