"""Workload inputs and references for the config-to-series benchmark.

A workload is a list of jobs.  Each job is one config file (plus any table
file it names) that ``soficrank.cli.load_config`` / ``soficrank.cli.run``
turn into a ``series.csv``.  The reference for each workload is a closed
form worked out here, independently of the package.  Everything is a pure
function of the workload seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Callable

# Sizes chosen so that one repetition (a fresh interpreter running every job
# of the workload) takes about one to three seconds on a 2-core x86 box,
# which leaves room for a median over at least ten repetitions in a run.
SANOV_MODULI = (15, 21)
GRID_MODULI = (40, 80)
SYMMETRIC_DEGREE = 5  # S_5, order 120
SUPPORT_SEED = 0


@dataclass
class Job:
    id: str
    config: str


@dataclass
class Workload:
    """Jobs, the files they read, and a check over their parsed outputs.

    ``check`` maps {job id: list of csv rows} to {job id: list of problems};
    a job with any problem counts as failed.
    """

    name: str
    jobs: list
    check: Callable
    files: dict = field(default_factory=dict)


def _run_section(pipeline, seed, j=None):
    lines = ["[run]", "pipeline = %s" % pipeline]
    if j is not None:
        lines.append("j = %d" % j)
    lines.append("seed = %d" % seed)
    return "\n".join(lines) + "\n"


def expect_exact(expected):
    """Check that each job emits exactly the expected (label, degree) points.

    ``expected`` maps job id -> {(label, degree): Fraction}.
    """

    def check(outputs):
        problems = {}
        for job_id, want in expected.items():
            rows = outputs.get(job_id, [])
            bad = []
            got = {}
            for row in rows:
                key = (row["invariant_label"], int(row["degree"]))
                got[key] = Fraction(int(row["value_num"]), int(row["value_den"]))
            for key in sorted(set(want) | set(got)):
                if want.get(key) != got.get(key):
                    bad.append("%s@d=%d: got %s, want %s"
                               % (key[0], key[1], got.get(key), want.get(key)))
            problems[job_id] = bad
        return problems

    return check


# ---------------------------------------------------------------------------
# sanov_ladder

def sl2_order(m):
    """|SL_2(Z/m)| = m^3 * prod over primes p | m of (1 - 1/p^2)."""
    size, rest, p = m ** 3, m, 2
    while p * p <= rest:
        if rest % p == 0:
            size = size // (p * p) * (p * p - 1)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        size = size // (rest * rest) * (rest * rest - 1)
    return size


def sanov_ladder(seed, moduli=SANOV_MODULI):
    config = (
        "[group]\nfamily = free\nrank = 2\nnames = a b\n\n"
        "[complex]\nranks = 2 1\nd1 = a - 1 ; b - 1\n\n"
        "[quotients]\nprovider = sanov\nmoduli = %s\n\n"
        % " ".join(map(str, moduli))
    ) + _run_section("betti", seed, j=1)
    # the Schreier graph of SL_2(Z/m) is connected, so rank L(d1) = d - 1
    want = {("betti[j=1]", d): Fraction(d + 1, d) for d in map(sl2_order, moduli)}
    return Workload("sanov_ladder", [Job("betti", config)], expect_exact({"betti": want}))


# ---------------------------------------------------------------------------
# koszul_euler

def koszul_euler(seed, moduli=GRID_MODULI):
    config = (
        "[group]\nfamily = free_abelian\nrank = 2\nnames = x y\n\n"
        "[complex]\nranks = 1 2 1\nd2 = y - 1, 1 - x\nd1 = x - 1 ; y - 1\n\n"
        "[quotients]\nprovider = grid\nmoduli = %s\n\n"
        % " ".join(map(str, moduli))
    ) + _run_section("euler", seed)
    # the Koszul complex of the 2-torus: homology Z, Z^2, Z at every grid
    want = {}
    for n in moduli:
        d = n * n
        for j, b in enumerate((1, 2, 1)):
            want[("betti[j=%d]" % j, d)] = Fraction(b, d)
        want[("euler_residual", d)] = Fraction(0)
    return Workload("koszul_euler", [Job("euler", config)], expect_exact({"euler": want}))


# ---------------------------------------------------------------------------
# regular_table

def symmetric(n):
    """S_n as (elements, product, an element of order 3); identity first."""
    elems = list(permutations(range(n)))

    def mul(p, q):
        return tuple(q[p[i]] for i in range(n))

    return elems, mul, (1, 2, 0) + tuple(range(3, n))


def cyclic(n):
    """Z/n with n divisible by 3, in the same form."""
    if n % 3:
        raise ValueError("cyclic order must be divisible by 3")
    return list(range(n)), (lambda x, y: (x + y) % n), n // 3


def table_text(elems, mul):
    """The package's table format: g, then 1-based product rows, then inverses."""
    index = {x: i for i, x in enumerate(elems)}
    rows = [[index[mul(x, y)] for y in elems] for x in elems]
    inverse = [row.index(0) for row in rows]
    lines = [str(len(elems))]
    lines += [" ".join(str(k + 1) for k in row) for row in rows]
    lines.append(" ".join(str(k + 1) for k in inverse))
    return "\n".join(lines) + "\n", rows


def _element_name(i):
    return "e" if i == 0 else "g%d" % (i + 1)


def regular_table(seed, group=None):
    """Regular model of a finite group, complex (2, 2) with d1 = A * (1 + s + s^2).

    Each entry of A is a random four-term element; s has order 3.  A
    diagonal term of coefficient 8 against seven unit coefficients in each
    row and column of A makes A invertible in every unitary representation,
    so rank L(d1) = 2 * rank(x -> x(1 + s + s^2)) = 2g/3 for every seed:
    the ranks stay below full, and both pipelines must give 4/3 in degree 0
    and in degree 1 (Euler characteristic 0).
    """
    elems, mul, s = group or symmetric(SYMMETRIC_DEGREE)
    text, rows = table_text(elems, mul)
    si = elems.index(s)
    s2 = rows[si][si]
    # one representative per right coset h<s>, so the twelve terms of
    # h * (1 + s + s^2) over an entry's four h never collide
    cosets = sorted({min(x, rows[x][si], rows[x][s2]) for x in range(len(elems))})
    # the sparsity pattern is fixed; the workload seed draws the coefficients
    support, coeffs = random.Random(SUPPORT_SEED), random.Random(seed)

    def entry(diagonal):
        terms = {}
        for i, h in enumerate(support.sample(cosets, 4)):
            c = coeffs.choice((-1, 1)) * (8 if diagonal and i == 0 else 1)
            for k in (h, rows[h][si], rows[h][s2]):
                terms[k] = c
        return " ".join("%+d*%s" % (c, _element_name(k)) for k, c in sorted(terms.items()))

    d1 = " ; ".join(", ".join(entry(i == j) for j in range(2)) for i in range(2))
    head = ("[group]\nfamily = finite_table\ntable = table.txt\n\n"
            "[complex]\nranks = 2 2\nd1 = %s\n\n" % d1)
    betti = head + "[quotients]\nprovider = regular\n\n" + _run_section("betti", seed, j=0)
    oracle = head + _run_section("oracle", seed)
    g, value = len(elems), Fraction(4, 3)
    want = {"betti": {("betti[j=0]", g): value},
            "oracle": {("oracle_betti[j=0]", g): value, ("oracle_betti[j=1]", g): value}}
    return Workload("regular_table", [Job("betti", betti), Job("oracle", oracle)],
                    expect_exact(want), files={"table.txt": text})


WORKLOADS = {
    "sanov_ladder": sanov_ladder,
    "koszul_euler": koszul_euler,
    "regular_table": regular_table,
}
