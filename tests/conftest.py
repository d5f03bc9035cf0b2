"""Shared fixtures: group families and an S3 multiplication table built from
an independent permutation-composition oracle."""

from math import lcm

import pytest

from soficrank import FiniteTable, Free, FreeAbelian


def then_perms(p, q):
    """Product 'apply p, then q' (independent of the package's helpers)."""
    return tuple(q[p[x]] for x in range(len(p)))


def s3_elements():
    """S3 as permutation tuples in the fixed order e,(12),(13),(23),(123),(132)."""
    return [
        (0, 1, 2),  # e
        (1, 0, 2),  # (12)
        (2, 1, 0),  # (13)
        (0, 2, 1),  # (23)
        (1, 2, 0),  # (123): 0->1->2->0
        (2, 0, 1),  # (132)
    ]


def free_word(fam, letters):
    """The product of the free generators (+i) and their inverses (-i),
    1-based, in order: a reduced word by the group law alone."""
    word = fam.identity()
    for l in letters:
        word = word * fam.generator(abs(l) - 1) ** (1 if l > 0 else -1)
    return word


def build_s3_table():
    elems = s3_elements()
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[then_perms(p, q)] for q in elems] for p in elems
    ]
    return table


@pytest.fixture(scope="session")
def s3():
    names = ("e", "s12", "s13", "s23", "r123", "r132")
    return FiniteTable(build_s3_table(), identity_index=0, names=names)


@pytest.fixture(scope="session")
def f2():
    return Free(2)


@pytest.fixture(scope="session")
def z1():
    return FreeAbelian(1)


@pytest.fixture(scope="session")
def z2grid():
    return FreeAbelian(2)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) replaces module.name for the test with a
    wrapper and returns the list of the positional args of each call."""

    def install(module, name):
        calls = []
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture
def grid_sweeps(monkeypatch):
    """Records every call of the Fourier path for the test and returns the
    list of them, one (moduli, matrices ranked, results per stage,
    _draw_primes calls, primes given to _root_of_unity) tuple per call, in
    call order."""
    from soficrank import fourier, invariants, rank

    sweeps, draws, roots = [], [], []
    fourier_ranks = invariants.fourier_ranks
    draw_primes = rank._draw_primes
    root_of_unity = fourier._root_of_unity

    def draw(*args):
        draws.append(args)
        return draw_primes(*args)

    def root(n, p, *args):
        roots.append(p)
        return root_of_unity(n, p, *args)

    def sweep(matrices, moduli, policy=None):
        draws.clear()
        roots.clear()
        results = fourier_ranks(matrices, moduli, policy)
        sweeps.append((tuple(moduli), len(matrices), results, len(draws), list(roots)))
        return results

    monkeypatch.setattr(rank, "_draw_primes", draw)
    monkeypatch.setattr(fourier, "_root_of_unity", root)
    monkeypatch.setattr(invariants, "fourier_ranks", sweep)
    return sweeps


def check_shared_batches(sweeps):
    """Under the default policy, of three primes a batch, each call ranked
    every stage of its sequence at one batch per round, not one per round
    per stage or per matrix, all primes p = 1 (mod the lcm of the moduli),
    and found one root of unity per prime it used, not one per stage."""
    for moduli, count, results, draws, roots in sweeps:
        assert len(results) == len(moduli)
        assert all(len(stage) == count for stage in results)
        results = [r for stage in results for r in stage]
        used = max((r.primes_used for r in results), key=len)
        assert all(used[:len(r.primes_used)] == r.primes_used for r in results)
        assert all((p - 1) % lcm(*moduli) == 0 for p in used)
        assert draws == len(used) // 3
        assert roots == list(used)
