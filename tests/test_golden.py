"""Golden outputs: every config under tests/golden gives the committed bytes.

Each ``<name>.cfg`` is run through ``cli.load_config`` and ``cli.run``, and
its ``series.csv`` and ``summary.txt`` must equal ``<name>.series.csv`` and
``<name>.summary.txt`` beside it.  The configs under ``workloads/`` are the
benchmark workloads at seeds 1 and 2; for them the counts that every
``rank_mod_p`` call reports through ``stats=`` (pivots, initial and peak
nonzeros, in call order) must also equal ``<name>.rank_mod_p.json``.

A change that means to alter an output rewrites these files with
``python3 tests/golden/regenerate.py`` and says which bytes changed and why.
"""

import json
from pathlib import Path

import pytest

from soficrank import cli, rank

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.relative_to(GOLDEN).with_suffix("").as_posix() for p in GOLDEN.glob("*/*.cfg"))
STAT_KEYS = ("pivots", "initial_nnz", "peak_nnz")


def produce(case, out_dir):
    """{golden file name: text} that the config of ``case`` gives now,
    with its outputs written under out_dir."""
    config_path = GOLDEN / (case + ".cfg")
    calls = []
    traced = case.startswith("workloads/")
    engine = rank.rank_mod_p

    def rank_mod_p(M, p, stats=None):
        st = {} if stats is None else stats
        result = engine(M, p, st)
        calls.append({key: st[key] for key in STAT_KEYS})
        return result

    if traced:
        rank.rank_mod_p = rank_mod_p
    try:
        cli.run(cli.load_config(str(config_path)), out_dir=str(out_dir))
    finally:
        rank.rank_mod_p = engine
    name = case.rsplit("/", 1)[-1]
    files = {
        name + "." + output: (Path(out_dir) / output).read_text()
        for output in ("series.csv", "summary.txt")
    }
    if traced:
        files[name + ".rank_mod_p.json"] = json.dumps(calls, indent=1) + "\n"
    return files


def test_cases_cover_every_pipeline():
    pipelines = set()
    for case in CASES:
        text = (GOLDEN / (case + ".cfg")).read_text()
        pipelines.update(line.split("=", 1)[1].strip()
                         for line in text.splitlines() if line.startswith("pipeline ="))
    assert pipelines == set(cli.PIPELINES)


@pytest.mark.parametrize("case", CASES)
def test_golden_outputs(case, tmp_path):
    folder = (GOLDEN / case).parent
    for name, text in produce(case, tmp_path).items():
        assert text == (folder / name).read_text(), name
