"""Mutation check of the proofs behind every certified rank, of the
literal mean-rank matrix, of the grid models that build their images only
when read, of the character orbits of the grid models and the one sweep
over a grid sequence that ranks each of them once, of the reading and
validation of finite group tables, of the Sanov models' points and
generation check, of the edge rows of linearize, of the drop of columns
repeated up to sign in both rank engines, and of the split of the
finite-group oracle and of the pipelines' regular stages over an
elementary abelian 2-subgroup.

Each mutant in MUTANTS is one textual edit of a file under src/soficrank,
made on a copy of src/ in a temporary directory, never in place, and names
the test that kills it.  For each, that test runs first against the copy:
if it fails (pytest exit code 1), the mutant is reported killed.  Otherwise
the tests of the rank engines, the linearization, the group families and
the pipelines run against the copy, and the mutant is reported killed (a
test failed), survived (every test passed), timed out, or an error (pytest
ran no verdict, say on a collection error).  Both ways give one verdict,
because the killer is one of those tests; ``--full`` skips the killer and
runs every mutant the long way.

The table cannot rot silently.  Before anything runs, it is an error when
an edit's old text does not occur exactly once in its file, when a killer
is not a test of the list or is not collected, and when the unmutated copy
fails the tests; a killer that pytest does not find or deselects (exit code
4 or 5) on a mutated copy is an error too.

Run from anywhere, outside the tier-1 suite (pytest does not collect this
file), in a few minutes, or longer with ``--full``:

    python3 tests/mutants.py [--full]

The exit status is 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TESTS = [
    "tests/test_%s.py" % name
    for name in ("rank", "fourier", "golden", "invariants", "properties", "acceptance",
                 "groups", "linearize")
]
# criterion 6 ranks a 50 000-row matrix three times; it alone would take
# longer than the whole table
PYTEST_ARGS = ["-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               "-k", "not criterion_6"]
TIMEOUT_S = 300

# (file under src/soficrank, old text, new text, what it breaks, the test
# that kills it, as a pytest node id from the repository root)
MUTANTS = [
    ("rank.py",
     "M._residual = unions, rows, count, unions + min(distinct_rows, len(count))",
     "M._residual = unions, rows, count, unions + min(distinct_rows, len(count)) - 1",
     "the bound over Z one low",
     "tests/test_rank.py::test_mod_p_matches_oracle_on_randoms"),
    ("rank.py",
     "        if rank == bound:",
     "        if rank == bound - 1:",
     "a pass that stops one pivot early",
     "tests/test_rank.py::test_mod_p_matches_oracle_on_randoms"),
    ("rank.py",
     "first.setdefault(tuple(col), c)",
     "first.setdefault(tuple(col[::2]), c)",
     "the repeated-column drop keyed on rows alone",
     "tests/test_rank.py::test_mod_p_matches_oracle_on_randoms"),
    ("rank.py",
     "        if col[1] < 0:\n            col[1::2] = [-v for v in col[1::2]]\n",
     "        col[1::2] = [abs(v) for v in col[1::2]]\n",
     "the modular engine's columns deduplicated on entrywise absolute value",
     "tests/test_rank.py::"
     "test_negated_columns_are_dropped_and_columns_equal_in_absolute_value_kept"),
    ("rank.py",
     "        if next(filter(None, c), 0) < 0:\n            c = tuple(-x for x in c)\n",
     "        c = tuple(map(abs, c))\n",
     "Bareiss's columns deduplicated on entrywise absolute value",
     "tests/test_rank.py::"
     "test_negated_columns_are_dropped_and_columns_equal_in_absolute_value_kept"),
    ("rank.py",
     "    if rank == _residual(M)[3]:",
     "    if rank >= _residual(M)[3] - 1:",
     "a proof at bound - 1",
     "tests/test_rank.py::test_primes_that_disagree_leave_the_rank_uncertified"),
    ("rank.py",
     "    for row in residual:\n"
     "        row = {c: w for c, v in row.items() if (w := v % p)}\n",
     "    for row in residual:\n"
     "        for c, v in list(row.items()):\n"
     "            if v % p:\n"
     "                row[c] = v % p\n"
     "            else:\n"
     "                del row[c]\n",
     "a pass that reduces the shared residual rows in place",
     "tests/test_rank.py::test_mod_p_rank_drop"),
    ("rank.py",
     "if sum(1 for p in used if ranks[p] == best) >= k:",
     "if sum(1 for p in used if ranks[p] == best) >= k - 1:",
     "agreement on k - 1 primes",
     "tests/test_rank.py::test_primes_that_disagree_leave_the_rank_uncertified"),
    ("rank.py",
     "if sum(1 for p in used if ranks[p] == best) >= k:",
     "if sum(1 for p in batch if ranks[p] == best) >= k:",
     "a matrix closed on agreement within the current batch only",
     "tests/test_fourier.py::test_fourier_falls_back_prime_by_prime"),
    ("rank.py",
     "todo = [i for i, r in enumerate(results) if r is None]",
     "todo = list(range(count))",
     "a closed matrix ranked again in later rounds",
     "tests/test_rank.py::test_multimodular_rank_falls_back_only_after_a_failed_batch"),
    ("rank.py",
     "                row = [x * prev // base for x in row]  # every skipped step at once",
     "                pass",
     "a Bareiss pivot row stored without its skipped scalings",
     "tests/test_rank.py::test_bareiss_with_zero_multipliers_matches_fraction_gauss"),
    ("rank.py",
     "if p in used or p in out:",
     "if p in out:",
     "a prime drawn again counted twice",
     "tests/test_rank.py::test_multimodular_rank_falls_back_only_after_a_failed_batch"),
    ("rank.py",
     "            if not row:\n                break  # every distinct column holds a pivot",
     "            if len(row) <= 1:\n                break  # every distinct column holds a pivot",
     "Bareiss stopping one column early",
     "tests/test_rank.py::test_edge_phase_matches_dense_elimination"),
    ("rank.py",
     "if M.rows + M.cols <= policy.dense_threshold:",
     "if M.rows + M.cols < policy.dense_threshold:",
     "no Bareiss at rows + cols equal to the threshold",
     "tests/test_rank.py::test_bareiss_runs_at_rows_plus_cols_equal_to_the_threshold"),
    ("fourier.py",
     "        units = [u * v % N for u, v in zip(units, piv)]\n",
     "",
     "an undetected non-unit pivot in the Fourier slice elimination",
     "tests/test_fourier.py::test_fourier_matches_sparse_engine"),
    ("fourier.py",
     "ok = [k and u % p for k, u in zip(ok, units)]",
     "ok = [k and u for k, u in zip(ok, units)]",
     "the Fourier unit test replaced by a nonzero test",
     "tests/test_fourier.py::test_fourier_falls_back_prime_by_prime"),
    ("fourier.py",
     "    for p in primes:  # a unit mod N exactly when nonzero mod each prime",
     "    for p in primes[:1]:",
     "the Fourier unit test read modulo the batch's first prime only",
     "tests/test_fourier.py::test_fourier_falls_back_prime_by_prime"),
    ("fourier.py",
     "    for row in A[rank:]:\n"
     "        for values in row:\n"
     "            ok = [k and not v for k, v in zip(ok, values)]\n",
     "",
     "the Fourier zero-remainder check dropped",
     "tests/test_fourier.py::test_fourier_matches_sparse_engine"),
    ("fourier.py",
     "sizes[lo:lo + _SLICE], chars, primes)",
     "sizes[:_SLICE], chars, primes)",
     "a slice's orbit sizes read at the wrong offset",
     "tests/test_fourier.py::test_split_values_match_plain_elimination_on_fixed_cases"),
    ("fourier.py",
     "g.payload for f in matrices for row",
     "g.payload for f in matrices[:1] for row",
     "every matrix of a stage read through the first one's monomials",
     "tests/test_fourier.py::test_stage_call_closes_each_differential_in_its_own_round"),
    ("fourier.py",
     "phi = q - q // p",
     "phi = 1",
     "wrong orbit sizes: phi(p^e) dropped from a factor's orbits",
     "tests/test_fourier.py::test_character_orbits_partition_the_group"),
    ("fourier.py",
     "phi = q - q // p",
     "phi = q",
     "wrong orbit sizes: a factor's orbits sized p^e instead of phi(p^e)",
     "tests/test_fourier.py::test_character_orbits_partition_the_group"),
    ("fourier.py",
     "for head in product(range(0, q, p), repeat=i)",
     "for head in product(range(q), repeat=i)",
     "a normal form that allows a unit before the leading 1",
     "tests/test_fourier.py::test_character_orbits_partition_the_group"),
    ("fourier.py",
     "for x, y in zip(a, b)), s * phi)",
     "for x, y in zip(a, b)), phi)",
     "a CRT factor of the wrong size: a product of orbits sized by its last factor",
     "tests/test_fourier.py::test_character_orbits_partition_the_group"),
    ("fourier.py",
     "tuple(m // q * x for x in",
     "tuple(x for x in",
     "a normal form of order p^e not scaled by m / p^e",
     "tests/test_fourier.py::test_character_orbits_partition_the_group"),
    ("fourier.py",
     '"fourier_mod_p", modulus=L',
     '"fourier_mod_p"',
     "Fourier primes that are not 1 (mod n)",
     "tests/test_fourier.py::test_fourier_matches_sparse_engine"),
    ("fourier.py",
     '"fourier_mod_p", modulus=L',
     '"fourier_mod_p", modulus=max(moduli)',
     "a sweep's primes drawn mod the largest modulus instead of mod the lcm",
     "tests/test_fourier.py::test_sweep_values_equal_one_stage_values_at_every_prime[4-6]"),
    ("fourier.py",
     "enumerate(moduli) if n % m == 0)",
     "enumerate(moduli) if m <= n)",
     "a stage summing over the orders m <= n instead of m | n",
     "tests/test_fourier.py::test_sweep_values_equal_one_stage_values_at_every_prime[4-6]"),
    ("fourier.py",
     "L // m * (sum(map(mul, a, s)) % m)",
     "sum(map(mul, a, s)) % m",
     "an orbit of order m evaluated at w^(a.s), w of order L, without its L // m scale",
     "tests/test_fourier.py::test_fourier_known_rank_deficiency"),
    ("invariants.py",
     "all(r.certified for r in ranks)",
     "any(r.certified for r in ranks)",
     "a point certified when any one of its ranks is",
     "tests/test_invariants.py::test_point_certified_exactly_when_its_ranks_are[betti-1-2]"),
    ("invariants.py",
     "- high.rank, d), (low, high))",
     "- high.rank, d), (low,))",
     "a Betti point certified on the rank of d_j alone",
     "tests/test_invariants.py::test_point_certified_exactly_when_its_ranks_are[betti-2-1]"),
    ("invariants.py",
     '"juzvinskii_defect", _kernel_complex(C, kernel_rows), Q,',
     '"juzvinskii_defect", _kernel_complex(C, kernel_rows) and C, Q,',
     "the defect ignoring its kernel rows",
     "tests/test_invariants.py::test_defect_with_genuine_kernel_rows"),
    ("invariants.py",
     '_betti_series("vrk", _module_complex(M), Q, 0,',
     '_betti_series("vrk", _module_complex(M), Q, 1,',
     "vrk read at degree 1 instead of degree 0",
     "tests/test_fourier.py::test_noncanonical_free_abelian_model_takes_sparse_path"),
    ("invariants.py",
     "- r_o.rank, d), (r_o, r_q))",
     "- r_o.rank, d), (r_o,))",
     "a relative point certified on the outer rank alone",
     "tests/test_invariants.py::"
     "test_point_certified_exactly_when_its_ranks_are[relative_vrk-1-2]"),
    ("invariants.py",
     "        if result is None or not result.certified:",
     "        if result is None:",
     "an uncertified Fourier rank accepted",
     "tests/test_fourier.py::test_uncertified_split_builds_the_images_for_the_sparse_engine"),
    ("invariants.py",
     "certified = finite and rel.certified and full.certified",
     "certified = rel.certified and full.certified",
     "a mean rank at a random model certified",
     "tests/test_golden.py::test_golden_outputs[pipelines/meanrank_windowed]"),
    ("invariants.py",
     "certified = finite and rel.certified and full.certified",
     "certified = finite and full.certified",
     "a mean rank certified without its relation rank",
     "tests/test_invariants.py::test_literal_point_carries_both_rank_flags"),
    ("invariants.py",
     "minus_sb = {pos: -c for pos, c in sbvec.items()}",
     "minus_sb = {pos: c for pos, c in sbvec.items()}",
     "translation relation loses its minus sign",
     "tests/test_properties.py::test_module_ranks_match_bareiss"),
    ("invariants.py",
     "rows.append(place(v, bvec) + place(perm[v], minus_sb))",
     "rows.append(place(v, bvec) + place(v, minus_sb))",
     "translation relation placed at v, not sigma(s) v",
     "tests/test_invariants.py::test_literal_point_carries_both_rank_flags"),
    ("invariants.py",
     "    for q in grids:\n",
     "    for q in grids:\n        q.gen_images\n",
     "the grid path reads the images",
     "tests/test_fourier.py::test_grid_path_never_builds_the_images"),
    ("invariants.py",
     "-1 if (b & c).bit_count() & 1 else 1",
     "-1 if b & c else 1",
     "the oracle's character sign read as b & c nonzero, not its parity",
     "tests/test_invariants.py::test_oracle_matches_plain_elimination_on_small_groups"),
    ("invariants.py",
     "table[x][x] == e and all(table[x][h] == table[h][x] for h in H)",
     "table[x][x] == e",
     "the oracle's subgroup admitting involutions that do not commute with it",
     "tests/test_invariants.py::test_oracle_matches_plain_elimination_on_small_groups"),
    ("invariants.py",
     "where[table[w][h]] = (len(reps), b)",
     "where[table[h][w]] = (len(reps), b)",
     "the oracle's cosets taken as h*w instead of w*h",
     "tests/test_invariants.py::test_oracle_matches_plain_elimination_on_small_groups"),
    ("invariants.py",
     "        all(r.certified for r in results),",
     "        any(r.certified for r in results),",
     "a regular stage certified when any one of its blocks is",
     "tests/test_invariants.py::test_regular_stage_sums_its_blocks"),
    ("invariants.py",
     'other[0] if other else "bound_mod_p",',
     '"bound_mod_p" if len(other) < len(results) else other[0],',
     "a regular stage reported bound_mod_p when one block used the rule",
     "tests/test_invariants.py::test_regular_stage_sums_its_blocks"),
    ("invariants.py",
     "        elif q._regular and not _edge_rows_only(f):",
     "        elif q._regular:",
     "a matrix of edge rows alone split at a regular model",
     "tests/test_invariants.py::test_edge_rows_alone_still_linearize_at_a_regular_model"),
    ("invariants.py",
     "            check_size_cap(f, q, size_cap)\n            result = _split_rank(f, policy)",
     "            result = _split_rank(f, policy)",
     "a regular stage split with no size cap",
     "tests/test_invariants.py::test_edge_rows_alone_still_linearize_at_a_regular_model"),
    ("groups.py",
     "        regular=True,\n",
     "",
     "a regular model that does not record it, so no pipeline splits it",
     "tests/test_invariants.py::"
     "test_pipelines_split_regular_models_as_unsplit_ranks_on_small_groups"),
    ("groups.py",
     '        self.__dict__["gen_images"] = images\n',
     "",
     "images rebuilt on every read",
     "tests/test_fourier.py::test_grid_path_never_builds_the_images"),
    ("groups.py",
     "for s in _generating_set(table, e):",
     "for s in _generating_set(table, e)[:-1]:",
     "Light's test skipping the last generator",
     "tests/test_groups.py::test_associativity_check_matches_triple_loop"),
    ("groups.py",
     "token = {str(i + 1): i for i in range(g)}",
     "token = {str(i): i for i in range(g)}",
     "table words read as 0-based indices",
     "tests/test_groups.py::test_inverse_table_range_checked[1 0]"),
    ("groups.py",
     "r // g * g + s // h for r",
     "r // g * g + s % h for r",
     "a Sanov point placed by s % h, not s // h",
     "tests/test_rank.py::test_contracted_rows_count_in_stats"),
    ("groups.py",
     "seen = [False] * (len(img_a) // m)",
     "seen = [True] * (len(img_a) // m)",
     "the Sanov block search starting with every block seen",
     "tests/test_groups.py::test_sanov_generation_check_refuses_two_components"),
    ("linearize.py",
     "            if g2 == e:",
     "            if True:",
     "the identity shortcut taken for any second term",
     "tests/test_linearize.py::test_functoriality_on_genuine_models"),
    ("linearize.py",
     "if k1 == k2 and any(map(eq, range(d), pair)):",
     "if False:",
     "the fixed-point filter of edge pairs never run",
     "tests/test_linearize.py::test_linearize_matches_triplet_oracle"),
]


def apply(src, mutant):
    """The text of the mutated file, read from the copy ``src``; ValueError
    when the old text does not occur exactly once."""
    name, old, new, what, _ = mutant
    text = (src / "soficrank" / name).read_text()
    if text.count(old) != 1:
        raise ValueError("%s: old text of %r occurs %d times"
                         % (name, what, text.count(old)))
    return text.replace(old, new)


def pytest(src, targets, *args):
    """(pytest's exit code, the first test that failed or '') for the test
    files or node ids ``targets``, given from the repository root, against
    ``src``; the exit code is None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:  # hypothesis writes its database here
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "--rootdir", str(ROOT), *PYTEST_ARGS,
                 *args, *(str(ROOT / t) for t in targets)],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, ""
        # test ids as seen from the repository root
        out = proc.stdout.replace(os.path.relpath(ROOT, cwd) + os.sep, "")
    failed = [line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode, failed[0] if failed else ""


def verdict(src, killer, full):
    """('killed', the first test that failed), ('survived', ''), ('timed
    out', '') or ('error', pytest's exit code) for the mutated copy
    ``src``: its killer first unless ``full``, then every test."""
    if not full:
        code, failed = pytest(src, [killer])
        if code == 1:
            return "killed", failed
        if code in (4, 5):
            sys.exit("killer %s not run: pytest exit %d" % (killer, code))
    code, failed = pytest(src, TESTS)
    if code is None:
        return "timed out", ""
    if code in (0, 1):
        return ("survived", "killed")[code], failed
    return "error", failed or "pytest exit %d" % code


def main(full=False):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        mutated = [apply(src, m) for m in MUTANTS]  # every old text first
        killers = sorted({m[4] for m in MUTANTS})
        strays = [k for k in killers if k.partition("::")[0] not in TESTS]
        if strays:
            sys.exit("killers outside the test list: %s" % ", ".join(strays))
        code, _ = pytest(src, killers, "--collect-only")
        if code != 0:
            sys.exit("the killers are not all collected: pytest exit %s" % code)
        code, failed = pytest(src, TESTS)
        if code != 0:
            sys.exit("the unmutated copy of src/ fails the tests: pytest exit %s %s"
                     % (code, failed))
        outcomes = []
        for mutant, text in zip(MUTANTS, mutated):
            path = src / "soficrank" / mutant[0]
            original = path.read_text()
            path.write_text(text)
            start = time.monotonic()
            outcome, failed = verdict(src, mutant[4], full)
            path.write_text(original)
            outcomes.append(outcome)
            print("%-10s %5.0f s  %s: %s" % (outcome, time.monotonic() - start,
                                             mutant[0], mutant[3]), flush=True)
            if failed:
                print("    " + failed, flush=True)
    print("%d of %d killed" % (outcomes.count("killed"), len(outcomes)))
    return 0 if outcomes.count("killed") == len(outcomes) else 1


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--full"]):
        sys.exit("usage: python3 tests/mutants.py [--full]")
    sys.exit(main(full=sys.argv[1:] == ["--full"]))
