"""Mutation check of the proofs behind every certified rank, of the
literal mean-rank matrix, of the grid models that build their images only
when read, of the reading and validation of finite group tables, of the
Sanov models' points and generation check, and of the edge rows of
linearize.

Each mutant in MUTANTS is one textual edit of a file under src/soficrank,
made on a copy of src/ in a temporary directory, never in place.  For each,
the tests of the rank engines, the linearization, the group families and the
pipelines run against the copy, and the mutant is reported killed (a test
failed), survived (every test passed) or timed out.  An edit whose old
text does not occur exactly once in the file is an error before anything
runs, so the table cannot rot silently; so is an unmutated copy that fails
the tests.

Run from anywhere, outside the tier-1 suite (pytest does not collect this
file), in a few minutes:

    python3 tests/mutants.py

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

# (file under src/soficrank, old text, new text, what it breaks)
MUTANTS = [
    ("rank.py",
     "M._residual = unions, rows, count, unions + min(distinct_rows, len(count))",
     "M._residual = unions, rows, count, unions + min(distinct_rows, len(count)) - 1",
     "the bound over Z one low"),
    ("rank.py",
     "        if rank == bound:",
     "        if rank == bound - 1:",
     "a pass that stops one pivot early"),
    ("rank.py",
     "first.setdefault(tuple(col), c)",
     "first.setdefault(tuple(col[::2]), c)",
     "the repeated-column drop keyed on rows alone"),
    ("rank.py",
     "    if rank == _residual(M)[3]:",
     "    if rank >= _residual(M)[3] - 1:",
     "a proof at bound - 1"),
    ("rank.py",
     "    for row in residual:\n"
     "        row = {c: w for c, v in row.items() if (w := v % p)}\n",
     "    for row in residual:\n"
     "        for c, v in list(row.items()):\n"
     "            if v % p:\n"
     "                row[c] = v % p\n"
     "            else:\n"
     "                del row[c]\n",
     "a pass that reduces the shared residual rows in place"),
    ("rank.py",
     "if sum(1 for p in used if ranks[p] == best) >= k:",
     "if sum(1 for p in used if ranks[p] == best) >= k - 1:",
     "agreement on k - 1 primes"),
    ("rank.py",
     "if sum(1 for p in used if ranks[p] == best) >= k:",
     "if sum(1 for p in batch if ranks[p] == best) >= k:",
     "a matrix closed on agreement within the current batch only"),
    ("rank.py",
     "todo = [i for i, r in enumerate(results) if r is None]",
     "todo = list(range(count))",
     "a closed matrix ranked again in later rounds"),
    ("rank.py",
     "                row = [x * prev // base for x in row]  # every skipped step at once",
     "                pass",
     "a Bareiss pivot row stored without its skipped scalings"),
    ("rank.py",
     "if p in used or p in out:",
     "if p in out:",
     "a prime drawn again counted twice"),
    ("rank.py",
     "            if not row:\n                break  # every distinct column holds a pivot",
     "            if len(row) <= 1:\n                break  # every distinct column holds a pivot",
     "Bareiss stopping one column early"),
    ("rank.py",
     "if M.rows + M.cols <= policy.dense_threshold:",
     "if M.rows + M.cols < policy.dense_threshold:",
     "no Bareiss at rows + cols equal to the threshold"),
    ("fourier.py",
     "        units = [u * v % N for u, v in zip(units, piv)]\n",
     "",
     "an undetected non-unit pivot in the Fourier slice elimination"),
    ("fourier.py",
     "ok = [gcd(u, N) == 1 for u in units]",
     "ok = [u != 0 for u in units]",
     "the Fourier unit test replaced by a nonzero test"),
    ("fourier.py",
     "    for row in A[rank:]:\n"
     "        for values in row:\n"
     "            ok = [k and not v for k, v in zip(ok, values)]\n",
     "",
     "the Fourier zero-remainder check dropped"),
    ("fourier.py",
     "sizes[lo:lo + _SLICE], chars, primes)",
     "sizes[:_SLICE], chars, primes)",
     "a slice's orbit sizes read at the wrong offset"),
    ("fourier.py",
     "g.payload for f in matrices for row",
     "g.payload for f in matrices[:1] for row",
     "every matrix of a stage read through the first one's monomials"),
    ("fourier.py",
     "out.append((a, len(us)))",
     "out.append((a, 1))",
     "wrong orbit sizes"),
    ("fourier.py",
     '"fourier_mod_p", modulus=n',
     '"fourier_mod_p"',
     "Fourier primes that are not 1 (mod n)"),
    ("invariants.py",
     "all(r.certified for r in ranks)",
     "any(r.certified for r in ranks)",
     "a point certified when any one of its ranks is"),
    ("invariants.py",
     "- high.rank, d), (low, high))",
     "- high.rank, d), (low,))",
     "a Betti point certified on the rank of d_j alone"),
    ("invariants.py",
     '"juzvinskii_defect", _kernel_complex(C, kernel_rows), Q,',
     '"juzvinskii_defect", _kernel_complex(C, kernel_rows) and C, Q,',
     "the defect ignoring its kernel rows"),
    ("invariants.py",
     '_betti_series("vrk", _module_complex(M), Q, 0,',
     '_betti_series("vrk", _module_complex(M), Q, 1,',
     "vrk read at degree 1 instead of degree 0"),
    ("invariants.py",
     "- r_o.rank, d), (r_o, r_q))",
     "- r_o.rank, d), (r_o,))",
     "a relative point certified on the outer rank alone"),
    ("invariants.py",
     "        if result is None or not result.certified:",
     "        if result is None:",
     "an uncertified Fourier rank accepted"),
    ("invariants.py",
     "certified = finite and rel.certified and full.certified",
     "certified = rel.certified and full.certified",
     "a mean rank at a random model certified"),
    ("invariants.py",
     "certified = finite and rel.certified and full.certified",
     "certified = finite and full.certified",
     "a mean rank certified without its relation rank"),
    ("invariants.py",
     "minus_sb = {pos: -c for pos, c in sbvec.items()}",
     "minus_sb = {pos: c for pos, c in sbvec.items()}",
     "translation relation loses its minus sign"),
    ("invariants.py",
     "rows.append(place(v, bvec) + place(perm[v], minus_sb))",
     "rows.append(place(v, bvec) + place(v, minus_sb))",
     "translation relation placed at v, not sigma(s) v"),
    ("invariants.py",
     "    n = q._grid\n",
     "    n = q._grid\n    q.gen_images\n",
     "the grid path reads the images"),
    ("groups.py",
     '        self.__dict__["gen_images"] = images\n',
     "",
     "images rebuilt on every read"),
    ("groups.py",
     "for s in _generating_set(table, e):",
     "for s in _generating_set(table, e)[:-1]:",
     "Light's test skipping the last generator"),
    ("groups.py",
     "token = {str(i + 1): i for i in range(g)}",
     "token = {str(i): i for i in range(g)}",
     "table words read as 0-based indices"),
    ("groups.py",
     "r // g * g + s // h for r",
     "r // g * g + s % h for r",
     "a Sanov point placed by s % h, not s // h"),
    ("groups.py",
     "seen = [False] * (len(img_a) // m)",
     "seen = [True] * (len(img_a) // m)",
     "the Sanov block search starting with every block seen"),
    ("linearize.py",
     "            if g2 == e:",
     "            if True:",
     "the identity shortcut taken for any second term"),
    ("linearize.py",
     "if k1 == k2 and any(map(eq, range(d), pair)):",
     "if False:",
     "the fixed-point filter of edge pairs never run"),
]


def apply(src, mutant):
    """The text of the mutated file, read from the copy ``src``; ValueError
    when the old text does not occur exactly once."""
    name, old, new, what = mutant
    text = (src / "soficrank" / name).read_text()
    if text.count(old) != 1:
        raise ValueError("%s: old text of %r occurs %d times"
                         % (name, what, text.count(old)))
    return text.replace(old, new)


def run_tests(src):
    """('killed', the first test that failed), ('survived', '') or
    ('timed out', '') for the tests against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:  # hypothesis writes its database here
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "--rootdir", str(ROOT), *PYTEST_ARGS,
                 *(str(ROOT / t) for t in TESTS)],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timed out", ""
        # test ids as seen from the repository root
        out = proc.stdout.replace(os.path.relpath(ROOT, cwd) + os.sep, "")
    if proc.returncode == 0:
        return "survived", ""
    failed = [line for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", failed[0] if failed else "pytest exit %d" % proc.returncode


def main():
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        mutated = [apply(src, m) for m in MUTANTS]  # every old text first
        outcome, failed = run_tests(src)
        if outcome != "survived":
            sys.exit("the unmutated copy of src/ fails the tests: %s %s" % (outcome, failed))
        outcomes = []
        for mutant, text in zip(MUTANTS, mutated):
            path = src / "soficrank" / mutant[0]
            original = path.read_text()
            path.write_text(text)
            start = time.monotonic()
            outcome, failed = run_tests(src)
            path.write_text(original)
            outcomes.append(outcome)
            print("%-10s %5.0f s  %s: %s" % (outcome, time.monotonic() - start,
                                             mutant[0], mutant[3]), flush=True)
            if failed:
                print("    " + failed, flush=True)
    print("%d of %d killed" % (outcomes.count("killed"), len(outcomes)))
    return 0 if outcomes.count("killed") == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
