"""Smoke tier for the benchmark itself: tiny inputs, every path, in seconds.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload's builder runs at a tiny size (Sanov 3 5, grid 4 6, a cyclic
table) through the same parent/child loop, reference check and trace as the
full benchmark.
"""

import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402

TINY = {
    "sanov_ladder": lambda seed: W.sanov_ladder(seed, moduli=(3, 5)),
    "koszul_euler": lambda seed: W.koszul_euler(seed, moduli=(4, 6)),
    "regular_table": lambda seed: W.regular_table(seed, group=W.cyclic(12)),
}
REPEATABLE = ("linearize.calls", "rank.mod_p.calls", "rank.mod_p.pivots",
              "rank.mod_p.peak_nnz", "rank.certify.calls")


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_paths(name):
    plain, report, _ = run.measure(TINY[name](3), 3, 0, False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1, report
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    first, report, spans = run.measure(TINY[name](3), 3, 0, True)
    second, _, _ = run.measure(TINY[name](3), 3, 0, True)
    assert first["correct"] and second["correct"], report
    assert set(first["metrics"]) == set(run.PER_LAYER)
    assert spans["repetitions"] and spans["repetitions"][0]["spans"]
    for key in REPEATABLE:
        assert first["metrics"][key]["value"] > 0
        assert first["metrics"][key] == second["metrics"][key]


def test_times_are_scaled_by_the_calibration(monkeypatch):
    # a host at half the nominal speed: every calibration takes twice as long
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CALIBRATION_NOMINAL_S)
    result, report, _ = run.measure(TINY["koszul_euler"](3), 3, 0, False)
    assert result["correct"], report
    for name in run.SCALED:
        raw = next(line for line in report if line.startswith("raw %s:" % name))
        raw = float(raw.split("median ")[1].split()[0])
        assert result["metrics"][name]["value"] == pytest.approx(raw / 2, rel=1e-5)


@pytest.mark.parametrize("breakage", ["wrong_reference", "bad_config"])
def test_failures_are_counted(breakage):
    wl = TINY["sanov_ladder"](3)
    if breakage == "wrong_reference":
        wrong = {("betti[j=1]", d): Fraction(d + 2, d) for d in (24, 120)}
        wl.check = W.expect_exact({"betti": wrong})
    else:
        wl.jobs[0].config = wl.jobs[0].config.replace("sanov", "nonesuch")
    result, report, _ = run.measure(wl, 3, 0, False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0, report


@pytest.fixture
def restore_modules():
    from soficrank import cli, invariants, rank
    from soficrank.groups import FiniteTable

    saved = [(m, dict(vars(m))) for m in (cli, invariants, rank)]
    from_text = FiniteTable.__dict__["from_text"]
    yield
    for module, attrs in saved:
        vars(module).update(attrs)
    FiniteTable.from_text = from_text


@pytest.fixture
def workdir():
    run.WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
    yield path
    shutil.rmtree(path)


def test_missing_names_read_absent(restore_modules, monkeypatch, workdir):
    from soficrank import cli

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("soficrank.cli", "removed_pipeline", "invariants"),
        ("soficrank.gone", "rank_mod_p", "rank.mod_p")))
    monkeypatch.setattr(tracer, "REQUEST_TARGET",
                        ("soficrank.invariants", "_removed_cache", "rank_requests"))
    t = tracer.Tracer()
    t.install()
    wl = TINY["sanov_ladder"](3)
    cfg = workdir / "job.cfg"
    cfg.write_text(wl.jobs[0].config)
    t.job = "betti"
    assert cli.run(t.wrap(cli.load_config, "setup")(str(cfg)), str(workdir)) == 0
    trace = t.dump()
    assert "soficrank.cli.removed_pipeline" in trace["missing"]
    assert "soficrank.gone.rank_mod_p" in trace["missing"]
    metrics = tracer.layer_metrics(trace)
    assert metrics["invariants.cache_hit_ratio"] is None
    assert metrics["rank.bareiss.calls"] is None
    assert metrics["rank.mod_p.pivots"] == 3 * (23 + 119)  # rank d - 1, three primes


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(W.WORKLOADS)


def test_refuses_to_run_without_sources(workdir):
    shutil.copytree(HERE, workdir / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", workdir)
    proc = subprocess.run(
        [sys.executable, "%s/run.py" % HERE.name, "--workload", "sanov_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
