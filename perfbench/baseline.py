"""Record a baseline of the benchmark at the current checkout.

    python3 perfbench/baseline.py --label TEXT [--out perfbench/baseline.json]

For every workload: ``RUNS`` untraced runs on seeds 1..RUNS, and two
traced runs at seed 1.  Each end-to-end metric is recorded with the median
of its per-run values and its spread, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) over the median.
Per-layer values come from the first traced run; the script fails if any
repeatable count differs between the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# untraced runs per workload; fixed so that baselines stay comparable
RUNS = 10


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d is not correct:\n%s" % (workload, seed, proc.stdout))
    return result, lines[:-1]


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = {"label": args.label,
           "machine": {"cpu": cpu_model(), "logical_cpus": len(os.sched_getaffinity(0)),
                       "python": platform.python_version()},
           "run_seconds": seconds, "seeds": list(range(1, RUNS + 1)), "workloads": {}}
    for name in WORKLOADS:
        runs = [bench(name, seed, seconds, 0)[0] for seed in out["seeds"]]
        e2e = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            e2e[metric] = {"median": statistics.median(values), "spread": spread(values),
                           "unit": runs[0]["metrics"][metric]["unit"], "values": values}
        (first, report), (second, _) = bench(name, 1, seconds, 1), bench(name, 1, seconds, 1)
        differ = [m for m in COUNT_METRICS if first["metrics"][m] != second["metrics"][m]]
        if differ:
            raise SystemExit("%s: counts differ between traced runs: %s" % (name, differ))
        out["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "per_layer": {m: v["value"] for m, v in first["metrics"].items()},
            "traced_report": report,
        }
        print(name, {m: "%.4g (spread %.3f)" % (v["median"], v["spread"]) for m, v in e2e.items()},
              flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
