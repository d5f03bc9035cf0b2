"""Config-to-series benchmark: config text in, certified series.csv out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ``src/``.  The
parent process builds the workload's input files from the seed, then runs
repetitions for S seconds as a closed loop with one client: each repetition
is a fresh child interpreter (``child.py``) that loads and runs every job of
the workload, one child at a time.  After each child the parent parses every
``series.csv`` back and checks it against the workload's reference; a job
fails on an exception, a nonzero return, an uncertified point or a value
that differs from the reference.

--trace 0 reports the end-to-end metrics (medians over repetitions).  The
times are scaled to a nominal host speed.  The parent times ``calibrate``,
a fixed elimination, before the first repetition and after each one; each
repetition's times are multiplied by CALIBRATION_NOMINAL_S over the mean of
the two calibrations around it.  The host's speed drifts by a quarter and
more over minutes on a shared machine; the scaling cancels that drift.  The
raw medians are reported too.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The spans
are written to ``.perfbench/trace_<workload>_seed<N>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give sample counts, percentiles and any absent per-layer metric.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNT_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 120
WORK_ROOT = ROOT / ".perfbench"
# the calibration's usual time on the reference machine (README), so that
# scaled times read as seconds on that machine at its usual speed
CALIBRATION_NOMINAL_S = 0.15
# the calibration matrix: order, band width and prime
CALIBRATION_SIZE, CALIBRATION_BAND, CALIBRATION_PRIME = 3000, 60, 32003
# end-to-end times that the calibration scales; peak_rss_mb is not a time
SCALED = ("setup_s", "solve_s")

# metric names and units are those BENCHMARK.json declares
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def calibrate():
    """Time a fixed sparse elimination mod a prime; return seconds.

    A banded matrix with four pseudo-random entries a row is eliminated
    column by column, with fill inside the band: dict rows, set columns and
    modular arithmetic, the work ``rank_mod_p`` does, in code of the
    benchmark's own that no change to the program touches.  Its time tracks
    the speed the host gives this process.  The collector is off while it
    runs: its rows are freed by reference counting.
    """
    n, band, p = CALIBRATION_SIZE, CALIBRATION_BAND, CALIBRATION_PRIME
    gc.disable()
    t0 = time.perf_counter()
    x, rows, cols = 1, {}, {}
    for r in range(n):
        row = rows[r] = {}
        for _ in range(4):
            x = x * 48271 % p
            row[(r + x % band) % n] = x
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    for c in range(n):
        below = cols.pop(c, None)
        if not below:
            continue
        pr = min(below)
        below.discard(pr)
        prow = rows.pop(pr)
        inv = pow(prow[c], -1, p)
        piv = [(cc, v * inv % p) for cc, v in prow.items() if cc != c]
        for cc, _ in piv:
            cols[cc].discard(pr)
        for r in below:
            row = rows[r]
            f = row.pop(c)
            for cc, v in piv:
                nv = (row.get(cc, p) - f * v) % p
                if nv:
                    if cc not in row:
                        cols.setdefault(cc, set()).add(r)
                    row[cc] = nv
                elif cc in row:
                    del row[cc]
                    cols[cc].discard(r)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def run_rep(workload, inputs, rep_dir, traced, env):
    """One repetition in a fresh child; returns timings and per-job problems."""
    rep_dir.mkdir()
    spec = {"jobs": [{"id": j.id, "config": str(inputs / ("%s.cfg" % j.id)),
                      "out": str(rep_dir / j.id)} for j in workload.jobs]}
    spec_path, result_path = rep_dir / "spec.json", rep_dir / "result.json"
    spec_path.write_text(json.dumps(spec))
    problems = {j.id: [] for j in workload.jobs}
    rep = {"traced": traced, "setup_s": None, "solve_s": None, "peak_rss_mb": None,
           "problems": problems, "trace": None}
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(spec_path), str(result_path), str(int(traced))],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        for bad in problems.values():
            bad.append("child timed out after %d s" % CHILD_TIMEOUT_S)
        return rep
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        for bad in problems.values():
            bad.append("child exited %d: %s" % (proc.returncode, proc.stderr.strip()[-500:]))
        return rep

    outputs = {}
    for rec in result["jobs"]:
        bad = problems[rec["id"]]
        if rec["error"]:
            bad.append(rec["error"].strip().splitlines()[-1])
            continue
        if rec["rc"] != 0:
            bad.append("run returned %r" % rec["rc"])
        try:
            with open(rep_dir / rec["id"] / "series.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            bad.append("no series.csv: %s" % exc)
            continue
        bad.extend("uncertified %s@d=%s" % (r["invariant_label"], r["degree"])
                   for r in rows if r["certified"] != "true")
        outputs[rec["id"]] = rows
    for job_id, mismatches in workload.check(outputs).items():
        problems[job_id].extend(mismatches)

    jobs = result["jobs"]
    if all(rec["setup_s"] is not None for rec in jobs):
        rep["setup_s"] = sum(rec["setup_s"] for rec in jobs)
        rep["solve_s"] = sum(rec["solve_s"] for rec in jobs)
    rep["peak_rss_mb"] = result["maxrss_kb"] / 1024
    rep["trace"] = result.get("trace")
    return rep


def describe(values):
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    v = sorted(values)
    out = {"median": statistics.median(v), "n": len(v)}
    if len(v) > 10:
        k = len(v) - 11
        out["pct"], out["pct_value"] = 100.0 * (k + 1) / len(v), v[k]
    return out


def fmt(name, d, unit):
    text = "%s: median %.6g %s, n=%d" % (name, d["median"], unit, d["n"])
    if "pct" in d:
        text += ", p%.1f %.6g %s" % (d["pct"], d["pct_value"], unit)
    return text


def measure(workload, seed, seconds, trace):
    """Run repetitions for ``seconds`` and return (result line, report lines, spans)."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="%s-" % workload.name, dir=WORK_ROOT))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # same seed, same children: str hashing and so dict order are fixed too
    env["PYTHONHASHSEED"] = str(seed % (1 << 32))
    reps = []
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        for name, text in workload.files.items():
            (inputs / name).write_text(text)
        for job in workload.jobs:
            (inputs / ("%s.cfg" % job.id)).write_text(job.config)
        deadline = time.monotonic() + seconds
        before = None if trace else calibrate()
        while len(reps) < (2 if trace else 1) or time.monotonic() < deadline:
            traced = trace and len(reps) % 2 == 1
            rep_dir = work / ("rep%d" % len(reps))
            rep = run_rep(workload, inputs, rep_dir, traced, env)
            shutil.rmtree(rep_dir)
            if not trace:
                after = calibrate()
                rep["calib_s"] = (before + after) / 2
                before = after
            reps.append(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(reps) * len(workload.jobs)
    failures = ["rep %d %s: %s" % (i, job_id, "; ".join(bad))
                for i, rep in enumerate(reps) for job_id, bad in rep["problems"].items() if bad]
    report = ["workload %s seed %d: %d repetitions, fail_frac %d/%d"
              % (workload.name, seed, len(reps), len(failures), attempted)]
    report += failures[:10]
    correct = not failures

    def timings(rs):
        return [r for r in rs if r["setup_s"] is not None]

    plain = timings(r for r in reps if not r["traced"])
    metrics = {}
    if not trace:
        if not plain:
            metrics = {name: {"value": 0.0, "unit": unit} for name, unit in END_TO_END.items()}
            return {"correct": False, "attempted": attempted, "failed": len(failures),
                    "metrics": metrics}, report, None
        report.append(fmt("calibration", describe([r["calib_s"] for r in plain]), "s")
                      + "; nominal %.6g s" % CALIBRATION_NOMINAL_S)
        for name, unit in END_TO_END.items():
            values = [r[name] for r in plain]
            if name in SCALED:
                report.append(fmt("raw " + name, describe(values), unit))
                values = [r[name] * CALIBRATION_NOMINAL_S / r["calib_s"] for r in plain]
            d = describe(values)
            report.append(fmt(name, d, unit))
            metrics[name] = {"value": d["median"], "unit": unit}
        return {"correct": correct, "attempted": attempted, "failed": len(failures),
                "metrics": metrics}, report, None

    traced = timings(r for r in reps if r["traced"])
    per_rep = [layer_metrics(r["trace"]) for r in traced]
    absent = []
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        values = [m[name] for m in per_rep]
        if not values or None in values:
            absent.append(name)
            value = 0
        elif name in COUNT_METRICS:
            if len(set(values)) > 1:
                report.append("count %s differs between traced repetitions: %r" % (name, values))
                correct = False
            value = values[0]
        else:
            d = describe(values)
            report.append(fmt(name, d, PER_LAYER[name]))
            value = d["median"]
        metrics[name] = {"value": value, "unit": PER_LAYER[name]}
    if traced and plain:
        on = statistics.median(r["setup_s"] + r["solve_s"] for r in traced)
        off = statistics.median(r["setup_s"] + r["solve_s"] for r in plain)
        overhead = (on - off) / off
        report.append("trace overhead: traced %.6g s - untraced %.6g s = %+.3f%% (n=%d, %d)"
                      % (on, off, 100 * overhead, len(traced), len(plain)))
    else:
        overhead, correct = 0.0, False
    missing = sorted({n for r in traced for n in r["trace"]["missing"]})
    report.append("absent metrics: %s" % (", ".join(absent) or "none"))
    report.append("missing wrapped names: %s" % (", ".join(missing) or "none"))
    for name, value in (("trace.overhead_frac", overhead), ("trace.absent_metrics", len(absent))):
        metrics[name] = {"value": value, "unit": PER_LAYER[name]}
    spans = {"workload": workload.name, "seed": seed,
             "repetitions": [{"spans": r["trace"]["spans"], "metrics": m}
                             for r, m in zip(traced, per_rep)]}
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}, report, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "soficrank" / "cli.py").is_file():
        print("no soficrank sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    result, report, spans = measure(workload, args.seed, args.seconds, bool(args.trace))
    if spans is not None:
        path = WORK_ROOT / ("trace_%s_seed%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps(spans))
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
