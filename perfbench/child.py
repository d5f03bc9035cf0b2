"""One repetition of a workload, in a fresh interpreter.

    python child.py SPEC RESULT TRACE

SPEC is a JSON file {"jobs": [{"id", "config", "out"}]}.  Every job is
loaded with ``cli.load_config`` and run with ``cli.run``; the two calls are
timed as the job's setup and solve.  RESULT receives the timings, return
codes, errors, the process's peak RSS and, when TRACE is 1, the spans.
A fresh process per repetition starts with an empty rank cache and RSS.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from time import perf_counter


def main(spec_path, result_path, trace):
    with open(spec_path) as fh:
        spec = json.load(fh)
    from soficrank import cli

    load, run, tracer = cli.load_config, cli.run, None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        load, run = tracer.wrap(load, "setup"), tracer.wrap(run, "solve")

    jobs = []
    for job in spec["jobs"]:
        rec = {"id": job["id"], "setup_s": None, "solve_s": None, "rc": None, "error": None}
        if tracer is not None:
            tracer.job = job["id"]
        try:
            t0 = perf_counter()
            config = load(job["config"])
            t1 = perf_counter()
            rec["rc"] = run(config, job["out"])
            t2 = perf_counter()
            rec["setup_s"], rec["solve_s"] = t1 - t0, t2 - t1
        except Exception:
            rec["error"] = traceback.format_exc(limit=4)
        jobs.append(rec)

    result = {"jobs": jobs, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
