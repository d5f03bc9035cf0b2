import importlib
import os
import re
import subprocess
import sys

import pytest

from soficrank import groups
from soficrank.cli import ConfigError, load_config, main, run
from soficrank.linearize import linearize
from soficrank.ring import ChainComplex
from conftest import check_shared_batches

F2_BETTI_CONFIG = """\
# free-group two-term complex, homology-rank density in degree 1
[group]
family = free
rank = 2

[complex]
ranks = 2 1
d1 = a - 1 ; b - 1

[quotients]
provider = sanov
moduli = 3 15

[run]
pipeline = betti
j = 1
"""

KOSZUL_EULER_CONFIG = """\
[group]
family = free_abelian
rank = 2

[complex]
ranks = 1 2 1
d2 = y - 1, 1 - x
d1 = x - 1 ; y - 1

[quotients]
provider = grid
moduli = 2 3 5

[run]
pipeline = euler
"""

SOFICITY_CONFIG = """\
[group]
family = free
rank = 2

[quotients]
provider = random
degrees = 100
seed = 7

[run]
pipeline = soficity
pairs = a, b
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_betti_pipeline_csv_values(tmp_path):
    cfg = write(tmp_path, "job.cfg", F2_BETTI_CONFIG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[0] == "invariant_label,degree,value_num,value_den,certified"
    assert rows[1] == "betti[j=1],24,25,24,true"
    assert rows[2] == "betti[j=1],2880,2881,2880,true"
    summary = (out / "summary.txt").read_text()
    assert "betti[j=1]" in summary
    assert "certified" in summary


def test_j_override(tmp_path):
    cfg = write(tmp_path, "job.cfg", F2_BETTI_CONFIG)
    out = tmp_path / "out0"
    assert main(["--config", cfg, "--out", str(out), "--j", "0"]) == 0
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[1] == "betti[j=0],24,1,24,true"


def test_euler_pipeline(tmp_path):
    cfg = write(tmp_path, "job.cfg", KOSZUL_EULER_CONFIG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "chi = 0" in summary
    rows = (out / "series.csv").read_text().splitlines()
    residuals = [r for r in rows if r.startswith("euler_residual")]
    assert len(residuals) == 3
    assert all(r.split(",")[2] == "0" for r in residuals)


def test_euler_ranks_each_differential_once_per_stage(tmp_path, grid_stages):
    cfg = write(tmp_path, "job.cfg", KOSZUL_EULER_CONFIG)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 0
    # one stage call per grid, ranking d_1 and d_2 together
    assert [(n, count) for n, count, *_ in grid_stages] == [(2, 2), (3, 2), (5, 2)]
    assert all(r.certified for _, _, results, *_ in grid_stages for r in results)
    check_shared_batches(grid_stages)
    # every rank closes in the first round: one draw and three roots a stage
    assert [(draws, len(roots)) for *_, draws, roots in grid_stages] == [(1, 3)] * 3


def test_euler_residual_inherits_uncertified_betti(tmp_path):
    # 2t - 2 at grid 3 has rank 2 over Q, below its bound 3, and rank 0
    # mod 2 and 2 mod 3; the window holds no other prime
    cfg_text = """\
[group]
family = free_abelian
rank = 1

[complex]
ranks = 1 1
d1 = 2*t - 2

[quotients]
provider = grid
moduli = 3

[run]
pipeline = euler
primes = 2
prime_bits = 1 2
dense_threshold = 0
"""
    cfg = write(tmp_path, "job.cfg", cfg_text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--strict"]) == 1
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[1:] == [
        "betti[j=0],3,1,3,false",
        "betti[j=1],3,1,3,false",
        "euler_residual,3,0,1,false",
    ]


def test_soficity_pipeline_deterministic(tmp_path):
    cfg = write(tmp_path, "job.cfg", SOFICITY_CONFIG)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "series.csv").read_bytes()
    assert b1 == (out2 / "series.csv").read_bytes()
    import csv as csvmod
    import io

    rows = list(csvmod.reader(io.StringIO(b1.decode())))
    labels = [r[0] for r in rows[1:]]
    assert "mult_defect(a,b)" in labels
    assert "sep_defect(a,b)" in labels
    # free-family random models are homomorphisms: mult defect is 0
    mult_row = next(r for r in rows[1:] if r[0] == "mult_defect(a,b)")
    assert mult_row[2] == "0"


def test_vrk_and_relative_pipelines(tmp_path):
    cfg_text = """\
[group]
family = free
rank = 2

[module]
free_rank = 1
generators = a - 1 ; b - 1

[quotients]
provider = sanov
moduli = 3

[run]
pipeline = relative
"""
    cfg = write(tmp_path, "rel.cfg", cfg_text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[1] == "relative_vrk,24,23,24,true"


def test_meanrank_pipeline_finite_table(tmp_path, s3):
    table = write(tmp_path, "z2.txt", "2\n1 2\n2 1\n1 2\n")
    cfg_text = """\
[group]
family = finite_table
table = z2.txt

[module]
free_rank = 1
a_gens = 1
b_gens = 1
f_set = e ; g2

[quotients]
provider = regular

[run]
pipeline = meanrank
"""
    cfg = write(tmp_path, "mr.cfg", cfg_text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[1] == "literal_mean_rank,2,1,1,true"


MEANRANK_WINDOWED_CONFIG = """\
[group]
family = free_abelian
rank = 1

[module]
free_rank = 1
a_gens = 1
b_gens = 1
f_set = t
window = t^-2 ; t^-1 ; e ; t ; t^2

[quotients]
provider = grid
moduli = 3

[run]
pipeline = meanrank
"""


def test_meanrank_windowed_is_uncertified(tmp_path):
    # over Z the value is a window-truncated heuristic, never certified
    cfg = write(tmp_path, "mr.cfg", MEANRANK_WINDOWED_CONFIG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--strict"]) == 1
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[1].startswith("literal_mean_rank,3,")
    assert rows[1].endswith(",false")
    assert "UNCERTIFIED" in (out / "summary.txt").read_text()


def test_meanrank_emits_one_point_per_stage(tmp_path):
    cfg_text = MEANRANK_WINDOWED_CONFIG.replace("moduli = 3", "moduli = 3 6")
    cfg = write(tmp_path, "mr.cfg", cfg_text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "series.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1], r[4]) for r in rows] == [
        ("literal_mean_rank", "3", "false"),
        ("literal_mean_rank", "6", "false"),
    ]


def test_meanrank_size_cap(tmp_path, capsys):
    cfg_text = MEANRANK_WINDOWED_CONFIG + "size_cap = 10\n"
    cfg = write(tmp_path, "mr.cfg", cfg_text)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "exceeds cap" in capsys.readouterr().err


def test_oracle_pipeline(tmp_path):
    table = write(tmp_path, "z2.txt", "2\n1 2\n2 1\n1 2\n")
    cfg_text = """\
[group]
family = finite_table
table = z2.txt

[complex]
ranks = 1 1
d1 = 1 + g2

[run]
pipeline = oracle
"""
    cfg = write(tmp_path, "oracle.cfg", cfg_text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[1] == "oracle_betti[j=0],2,1,2,true"
    assert rows[2] == "oracle_betti[j=1],2,1,2,true"


def test_defect_pipeline_with_kernel(tmp_path):
    cfg_text = """\
[group]
family = free_abelian
rank = 1

[complex]
ranks = 2 1
d1 = 1 - t ; t - 1
kernel = 1, 1

[quotients]
provider = grid
moduli = 3 5

[run]
pipeline = defect
"""
    cfg = write(tmp_path, "defect.cfg", cfg_text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[1] == "juzvinskii_defect,3,1,3,true"
    assert rows[2] == "juzvinskii_defect,5,1,5,true"


def test_strict_mode_flags_uncertified(tmp_path):
    # tiny prime window plus dense_threshold 0 exhausts the policy on
    # 2t - 2, whose rank 2 at grid 3 sits below its bound 3
    cfg_text = """\
[group]
family = free_abelian
rank = 1

[module]
free_rank = 1
relations = 2*t - 2

[quotients]
provider = grid
moduli = 3

[run]
pipeline = vrk
primes = 2
prime_bits = 1 2
dense_threshold = 0
max_rounds = 2
"""
    cfg = write(tmp_path, "strict.cfg", cfg_text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--strict"]) == 1
    assert main(["--config", cfg, "--out", str(out)]) == 0  # flagged, not fatal
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[1].endswith("false")


def test_matrix_dumps(tmp_path):
    cfg = write(tmp_path, "job.cfg", F2_BETTI_CONFIG.replace("3 15", "3"))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--dump-matrices"]) == 0
    job = load_config(cfg)
    C = job.complex
    expected = {}
    for qi, q in enumerate(job.quotients):
        for j in range(1, C.top_degree + 1):
            expected["matrix_stage%d_d%d.mtx" % (qi, j)] = linearize(C.differential(j), q)
    assert sorted(p for p in os.listdir(out) if p.endswith(".mtx")) == sorted(expected)
    for name, m in expected.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate integer general"
        assert lines[1] == "%d %d %d" % (m.rows, m.cols, m.nnz)
        assert lines[2:] == ["%d %d %d" % (r + 1, c + 1, v) for r, c, v in m.triplets]


def test_config_errors_carry_location(tmp_path):
    bad = write(tmp_path, "bad.cfg", "[group]\nfamily = free\nrank = 2\n\n[complex]\nranks = 2 1\nd1 = a - $ ; b\n\n[quotients]\nprovider = sanov\nmoduli = 3\n\n[run]\npipeline = betti\n")
    assert main(["--config", bad, "--out", str(tmp_path)]) == 2
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "bad.cfg:7" in str(err.value)


def test_invalid_provider_constraints(tmp_path):
    bad = write(
        tmp_path,
        "even.cfg",
        F2_BETTI_CONFIG.replace("moduli = 3 15", "moduli = 4"),
    )
    assert main(["--config", bad, "--out", str(tmp_path)]) == 2


def test_size_cap_flag(tmp_path, capsys):
    cfg = write(tmp_path, "job.cfg", F2_BETTI_CONFIG)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--size-cap", "100"]) == 2
    # Sanov 15 has degree |SL2(Z/15)| = 2880; blamed on the moduli, not the flag
    line = F2_BETTI_CONFIG.splitlines().index("moduli = 3 15") + 1
    assert capsys.readouterr().err == (
        "config error: %s:%d: [quotients] moduli: degree 2880 exceeds cap 100\n" % (cfg, line)
    )


def _refuse_to_build(monkeypatch):
    def refuse(*args):
        raise AssertionError("a model was built")

    for builder in ("grid_quotient", "sanov_quotient", "random_quotient", "regular_quotient"):
        monkeypatch.setattr(groups, builder, refuse)


@pytest.mark.parametrize(
    "text, bad_line, degree, cap",
    [
        (F2_BETTI_CONFIG, "moduli = 3 15", 2880, 100),
        (KOSZUL_EULER_CONFIG, "moduli = 2 3 5", 25, 10),
        (SOFICITY_CONFIG, "degrees = 100", 100, 99),
    ],
    ids=["sanov", "grid", "random"],
)
def test_model_degree_is_capped_at_load(tmp_path, monkeypatch, text, bad_line, degree, cap):
    cfg = write(tmp_path, "cap.cfg", text + "size_cap = %d\n" % cap)
    _refuse_to_build(monkeypatch)
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    line = text.splitlines().index(bad_line) + 1
    key = bad_line.split()[0]
    assert str(err.value) == "%s:%d: [quotients] %s: degree %d exceeds cap %d" % (
        cfg, line, key, degree, cap,
    )


@pytest.mark.parametrize("moduli", ["21 15", "15 15"])
def test_degrees_not_increasing_fail_at_load(tmp_path, monkeypatch, moduli):
    text = _replace(F2_BETTI_CONFIG, "moduli = 3 15", "moduli = " + moduli)
    cfg = write(tmp_path, "order.cfg", text)
    _refuse_to_build(monkeypatch)
    with pytest.raises(ConfigError, match=r"\[quotients\] moduli: degrees must strictly increase"):
        load_config(cfg)


def test_seed_flag_drives_random_models(tmp_path):
    cfg = write(tmp_path, "job.cfg", SOFICITY_CONFIG)
    outs = []
    for i, seed in enumerate(("3", "3", "4")):
        out = tmp_path / ("s%d" % i)
        assert main(["--config", cfg, "--out", str(out), "--seed", seed]) == 0
        outs.append((out / "series.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


ORACLE_Z2_CONFIG = """\
[group]
family = finite_table
table = z2.txt

[complex]
ranks = 1 1
d1 = 1 + g2

[run]
pipeline = oracle
"""


# a table job with its own element names, which its d1 reads
NAMED_TABLE_CONFIG = """\
[group]
family = finite_table
table = z2.txt
names = one s

[complex]
ranks = 1 1
d1 = one - s

[run]
pipeline = oracle
"""

ROUND_TRIP_CONFIGS = {
    "f2_betti": F2_BETTI_CONFIG,
    "koszul_euler": KOSZUL_EULER_CONFIG,
    "soficity": SOFICITY_CONFIG,
    "meanrank_windowed": MEANRANK_WINDOWED_CONFIG,
    "oracle_z2": ORACLE_Z2_CONFIG,
    "named_table": NAMED_TABLE_CONFIG,
}


@pytest.mark.parametrize("case", list(ROUND_TRIP_CONFIGS))
def test_dump_normalized_round_trip(tmp_path, capsys, case):
    write(tmp_path, "z2.txt", "2\n1 2\n2 1\n1 2\n")
    cfg = write(tmp_path, "job.cfg", ROUND_TRIP_CONFIGS[case])
    assert main(["--config", cfg, "--dump-normalized"]) == 0
    normalized = capsys.readouterr().out
    cfg2 = write(tmp_path, "normalized.cfg", normalized)
    # normalizing the normalized config is a fixpoint
    assert main(["--config", cfg2, "--dump-normalized"]) == 0
    assert capsys.readouterr().out == normalized
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg2, "--out", str(out2)]) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def test_bad_inverse_table_is_a_config_error(tmp_path, capsys):
    write(tmp_path, "z2.txt", "2\n1 2\n2 1\n1 0\n")
    cfg = write(tmp_path, "oracle.cfg", ORACLE_Z2_CONFIG)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "inverse table entry out of range" in err


def test_bad_table_entry_is_located_at_the_table_and_its_line(tmp_path, capsys):
    write(tmp_path, "z2.txt", "2\n1 x\n2 1\n1 2\n")
    cfg = write(tmp_path, "oracle.cfg", ORACLE_Z2_CONFIG)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: %s:3: [group] table: table line 2: 'x' is not an integer\n" % cfg
    )


def test_bad_table_order_is_located_at_the_table(tmp_path, capsys):
    write(tmp_path, "z2.txt", "-1\n")
    cfg = write(tmp_path, "oracle.cfg", ORACLE_Z2_CONFIG)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: %s:3: [group] table: group order must be positive, got -1\n" % cfg
    )


def test_overrides_build_the_job_once(tmp_path, capsys, count_calls):
    from soficrank.groups import FiniteTable

    write(tmp_path, "z2.txt", "2\n1 2\n2 1\n1 2\n")
    cfg = write(tmp_path, "oracle.cfg", ORACLE_Z2_CONFIG)
    calls = count_calls(FiniteTable, "__init__")
    argv = ["--config", cfg, "--out", str(tmp_path / "out"), "--seed", "5", "--primes", "2"]
    assert main(argv + ["--dump-normalized"]) == 0
    assert len(calls) == 1
    normalized = capsys.readouterr().out.splitlines()
    assert "seed = 5" in normalized and "primes = 2" in normalized
    assert main(argv) == 0


def _replace(text, old, new):
    assert old in text
    return text.replace(old, new)


BAD_CONFIGS = {
    "run_seed": (F2_BETTI_CONFIG + "seed = x\n", "seed = x"),
    "run_j": (_replace(F2_BETTI_CONFIG, "j = 1", "j = x"), "j = x"),
    "group_rank": (_replace(F2_BETTI_CONFIG, "rank = 2", "rank = two"), "rank = two"),
    "quotients_seed": (_replace(SOFICITY_CONFIG, "seed = 7", "seed = z"), "seed = z"),
    "prime_bits_reversed": (F2_BETTI_CONFIG + "prime_bits = 62 50\n", "prime_bits = 62 50"),
    "prime_bits_past_word": (F2_BETTI_CONFIG + "prime_bits = 50 70\n", "prime_bits = 50 70"),
    "primes_zero": (F2_BETTI_CONFIG + "primes = 0\n", "primes = 0"),
    "max_rounds_zero": (F2_BETTI_CONFIG + "max_rounds = 0\n", "max_rounds = 0"),
    "size_cap_negative": (F2_BETTI_CONFIG + "size_cap = -1\n", "size_cap = -1"),
    "dump_matrices_yes": (F2_BETTI_CONFIG + "dump_matrices = yes\n", "dump_matrices = yes"),
    "misspelled_key": (F2_BETTI_CONFIG + "primse = 7\n", "primse = 7"),
    # a missing key is located at its section
    "missing_rank": (_replace(F2_BETTI_CONFIG, "rank = 2\n", ""), "[group]"),
    "unread_differential": (_replace(F2_BETTI_CONFIG, "d1 = ", "d3 =\nd1 = "), "d3 ="),
    "dangling_star": (
        _replace(F2_BETTI_CONFIG, "d1 = a - 1 ; b - 1", "d1 = a - 1 ; 3*"), "d1 = a - 1 ; 3*"
    ),
    "betti_without_complex": (
        _replace(F2_BETTI_CONFIG, "[complex]\nranks = 2 1\nd1 = a - 1 ; b - 1\n", ""),
        "pipeline = betti",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_values_are_located_config_errors(tmp_path, capsys, case):
    text, bad_line = BAD_CONFIGS[case]
    line = text.splitlines().index(bad_line) + 1
    cfg = write(tmp_path, "bad.cfg", text)
    # the incomplete job is caught before anything runs
    extra = ["--dump-normalized"] if case == "betti_without_complex" else []
    assert main(["--config", cfg, "--out", str(tmp_path / "out")] + extra) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bad.cfg:%d" % line in err
    with pytest.raises(ConfigError):
        load_config(cfg)


# an optional key left empty reads as absent: the job runs at the default
EMPTY_OPTIONAL_VALUES = {
    "run_seed": (F2_BETTI_CONFIG + "seed =\n", "run", "seed = 0"),
    "run_j": (_replace(F2_BETTI_CONFIG, "j = 1", "j ="), "run", "j = 0"),
    "size_cap": (F2_BETTI_CONFIG + "size_cap =\n", "run", "size_cap = 200000"),
    "max_rounds": (F2_BETTI_CONFIG + "max_rounds =\n", "run", "max_rounds = 3"),
    "dump_matrices": (F2_BETTI_CONFIG + "dump_matrices =\n", "run", "dump_matrices = false"),
    "quotients_seed": (_replace(SOFICITY_CONFIG, "seed = 7", "seed ="), "quotients", "seed = 0"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_OPTIONAL_VALUES))
def test_empty_optional_value_is_absent(tmp_path, capsys, case):
    text, section, shown = EMPTY_OPTIONAL_VALUES[case]
    cfg = write(tmp_path, "job.cfg", text)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert main(["--config", cfg, "--dump-normalized"]) == 0
    blocks = capsys.readouterr().out.split("\n\n")
    (block,) = [b.splitlines() for b in blocks if b.startswith("[%s]" % section)]
    assert shown in block


def test_empty_required_value_is_missing(tmp_path, capsys):
    text = _replace(F2_BETTI_CONFIG, "pipeline = betti", "pipeline =")
    line = text.splitlines().index("pipeline =") + 1
    cfg = write(tmp_path, "job.cfg", text)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: %s:%d: [run] pipeline: missing\n" % (cfg, line)
    )


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--size-cap", "-5", "[run] size_cap: must be >= 0, got -5"),
        ("--primes", "0", "[run] primes: must be >= 1, got 0"),
    ],
    ids=["size_cap", "primes"],
)
def test_bad_override_is_located_at_its_flag(tmp_path, capsys, flag, value, message):
    text = F2_BETTI_CONFIG + "primes = 3\nsize_cap = 100000\n"
    cfg = write(tmp_path, "o.cfg", text)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), flag, value]) == 2
    err = capsys.readouterr().err
    assert err == "config error: %s: %s: %s\n" % (cfg, flag, message)
    assert not re.search(r"o\.cfg:\d", err)  # no line of the file is blamed


@pytest.mark.parametrize(
    "text, section_key, bad_line",
    [
        # 'e' reads as the identity, so d1 would be [-1 + d; 0]
        (
            _replace(
                _replace(F2_BETTI_CONFIG, "rank = 2\n", "rank = 2\nnames = d e\n"),
                "d1 = a - 1 ; b - 1", "d1 = d - 1 ; e - 1",
            ),
            "[group] names",
            "names = d e",
        ),
        # a repeated pair, here equal as group elements, not as text
        (
            _replace(SOFICITY_CONFIG, "pairs = a, b", "pairs = a, b ; a*e, b"),
            "[run] pairs",
            "pairs = a, b ; a*e, b",
        ),
        # a table's names are checked at their own key, before the table
        (
            _replace(ORACLE_Z2_CONFIG, "table = z2.txt\n", "table = z2.txt\nnames = one e\n"),
            "[group] names",
            "names = one e",
        ),
    ],
    ids=["names", "pairs", "table_names"],
)
def test_misread_names_and_repeated_pairs_are_config_errors(
    tmp_path, capsys, count_calls, text, section_key, bad_line
):
    from soficrank.groups import FiniteTable

    write(tmp_path, "z2.txt", "2\n1 2\n2 1\n1 2\n")
    line = text.splitlines().index(bad_line) + 1
    cfg = write(tmp_path, "bad.cfg", text)
    calls = count_calls(FiniteTable, "__init__")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s:%d: %s: " % (cfg, line, section_key))
    assert not (tmp_path / "out").exists()
    assert calls == []  # no table is built for a job with a bad name


VRK_WITH_COMPLEX = _replace(
    _replace(F2_BETTI_CONFIG, "[quotients]", "[module]\nfree_rank = 1\nrelations = a - 1\n\n[quotients]"),
    "pipeline = betti\nj = 1\n", "pipeline = vrk\n",
)


@pytest.mark.parametrize(
    "text, section, pipeline",
    [
        (ORACLE_Z2_CONFIG + "\n[quotients]\nprovider = regular\n", "quotients", "oracle"),
        (VRK_WITH_COMPLEX, "complex", "vrk"),
    ],
    ids=["oracle_quotients", "vrk_complex"],
)
def test_section_the_pipeline_does_not_read_is_located(
    tmp_path, capsys, monkeypatch, text, section, pipeline
):
    write(tmp_path, "z2.txt", "2\n1 2\n2 1\n1 2\n")
    cfg = write(tmp_path, "stray.cfg", text)
    line = text.splitlines().index("[%s]" % section) + 1
    _refuse_to_build(monkeypatch)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: %s:%d: [%s]: %s does not read this section\n" % (cfg, line, section, pipeline)
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pipeline", ["betti", "mrk_j"])
def test_degree_above_the_complex_is_located_at_load(tmp_path, capsys, monkeypatch, pipeline):
    text = _replace(F2_BETTI_CONFIG, "pipeline = betti\nj = 1", "pipeline = %s\nj = 2" % pipeline)
    cfg = write(tmp_path, "j.cfg", text)
    line = text.splitlines().index("j = 2") + 1
    _refuse_to_build(monkeypatch)
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value) == (
        "%s:%d: [run] j: 2 is above the complex's top degree 1" % (cfg, line)
    )
    # an override is located at its flag
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--j", "3"]) == 2
    assert capsys.readouterr().err == (
        "config error: %s: --j: [run] j: 3 is above the complex's top degree 1\n" % cfg
    )


DEFECT_F2_CONFIG = _replace(F2_BETTI_CONFIG, "pipeline = betti\nj = 1\n", "pipeline = defect\n")


@pytest.mark.parametrize(
    "text, bad_line, message",
    [
        (_replace(KOSZUL_EULER_CONFIG, "pipeline = euler", "pipeline = defect"),
         "ranks = 1 2 1", "defect needs a two-term complex"),
        (_replace(DEFECT_F2_CONFIG, "b - 1\n", "b - 1\nkernel = a, 1\n"),
         "kernel = a, 1", "composite d_2*d_1 is nonzero"),
    ],
    ids=["three_terms", "kernel_not_annihilated"],
)
def test_defect_inputs_are_located_at_load(tmp_path, capsys, monkeypatch, text, bad_line, message):
    cfg = write(tmp_path, "defect.cfg", text)
    line = text.splitlines().index(bad_line) + 1
    _refuse_to_build(monkeypatch)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: %s:%d: [complex] %s: %s" % (cfg, line, bad_line.split()[0], message)
    )
    assert not (tmp_path / "out").exists()


def test_unknown_key_is_found_before_any_model_is_built(tmp_path, monkeypatch):
    text = _replace(F2_BETTI_CONFIG, "moduli = 3 15", "moduli = 15 21") + "primse = 3\n"
    cfg = write(tmp_path, "typo.cfg", text)
    line = text.splitlines().index("primse = 3") + 1
    calls = []
    build = groups.sanov_quotient
    monkeypatch.setattr(
        groups, "sanov_quotient", lambda *args: calls.append(args) or build(*args)
    )
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value) == (
        "%s:%d: [run] primse: unknown key (this job does not read it)" % (cfg, line)
    )
    assert calls == []


def test_defect_job_builds_its_kernel_complex_once(tmp_path, monkeypatch):
    built = []
    init = ChainComplex.__init__

    def counted(self, family, ranks, differentials):
        built.append(tuple(ranks))
        init(self, family, ranks, differentials)

    monkeypatch.setattr(ChainComplex, "__init__", counted)
    golden = os.path.join(os.path.dirname(__file__), "golden", "pipelines")
    run(load_config(os.path.join(golden, "defect.cfg")), out_dir=str(tmp_path))
    # the job's complex (2, 1) and K -> d_1, whose kernel K has one row
    assert built == [(2, 1), (1, 2, 1)]


VRK_CONFIG = """\
[group]
family = free
rank = 2

[module]
free_rank = 1
relations = a - 1

[quotients]
provider = sanov
moduli = 3

[run]
pipeline = vrk
"""


# each key is read only by the pipelines that use it
@pytest.mark.parametrize(
    "text, section, stray",
    [
        (_replace(F2_BETTI_CONFIG, "b - 1\n", "b - 1\nkernel = 1, 1\n"), "complex", "kernel = 1, 1"),
        (_replace(VRK_CONFIG, "a - 1\n", "a - 1\ngenerators = a\n"), "module", "generators = a"),
        (_replace(VRK_CONFIG, "a - 1\n", "a - 1\nwindow = e ; a\n"), "module", "window = e ; a"),
        (VRK_CONFIG + "j = 0\n", "run", "j = 0"),
        (F2_BETTI_CONFIG + "pairs = a, b\n", "run", "pairs = a, b"),
    ],
    ids=["kernel_in_betti", "generators_in_vrk", "window_in_vrk", "j_in_vrk", "pairs_in_betti"],
)
def test_key_the_pipeline_does_not_read_is_located(tmp_path, capsys, text, section, stray):
    cfg = write(tmp_path, "stray.cfg", text)
    line = text.splitlines().index(stray) + 1
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: %s:%d: [%s] %s: unknown key (this job does not read it)\n"
        % (cfg, line, section, stray.split()[0])
    )
    assert not (tmp_path / "out").exists()


def test_degree_flag_on_a_job_without_degree_is_located(tmp_path, capsys):
    cfg = write(tmp_path, "vrk.cfg", VRK_CONFIG)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--j", "1"]) == 2
    assert capsys.readouterr().err == (
        "config error: %s: --j: [run] j: unknown key (this job does not read it)\n" % cfg
    )


def test_random_models_for_a_homology_pipeline_are_located_at_load(tmp_path, capsys, monkeypatch):
    text = _replace(F2_BETTI_CONFIG, "provider = sanov\nmoduli = 3 15", "provider = random\ndegrees = 100")
    cfg = write(tmp_path, "random.cfg", text)
    line = text.splitlines().index("provider = random") + 1
    _refuse_to_build(monkeypatch)
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: %s:%d: [quotients] provider: random models are heuristic; "
        "betti needs genuine ones\n" % (cfg, line)
    )


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    assert main(["--config", missing, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        load_config(missing)


RUNTIME_SCRIPT = """\
import sys

import soficrank
from soficrank import cli

jobs = {
    "betti": SANOV,
    "euler": GRID,
    "oracle": "[group]\\nfamily = finite_table\\ntable = z6.txt\\n\\n"
              "[complex]\\nranks = 1 1\\nd1 = 1 - g2\\n\\n[run]\\npipeline = oracle\\n",
}
with open("z6.txt", "w") as f:
    f.write("6\\n1 2 3 4 5 6\\n2 3 4 5 6 1\\n3 4 5 6 1 2\\n4 5 6 1 2 3\\n"
            "5 6 1 2 3 4\\n6 1 2 3 4 5\\n1 6 5 4 3 2\\n")
for name, text in jobs.items():
    with open(name + ".cfg", "w") as f:
        f.write(text)
    assert cli.main(["--config", name + ".cfg", "--out", name]) == 0, name
assert "sympy" not in sys.modules, "the runtime imports sympy"
"""


def test_runtime_never_imports_sympy(tmp_path):
    # the package needs only the standard library at run time
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = RUNTIME_SCRIPT.replace("SANOV", repr(F2_BETTI_CONFIG.replace("3 15", "3 5")))
    script = script.replace("GRID", repr(KOSZUL_EULER_CONFIG.replace("2 3 5", "4 6")))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    for name in ("betti", "euler", "oracle"):
        assert (tmp_path / name / "series.csv").read_text().count("\n") > 1


def test_project_scripts_resolve():
    # a console script left pointing at deleted code would fail only when run
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
