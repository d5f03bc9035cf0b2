"""Dump every rank behind the golden outputs, one line per rank.

    python3 tests/rank_dump.py OUT

Runs each golden config under tests/golden the way tests/test_golden.py
does, with invariants._stage_ranks hooked, and writes to the file OUT one
``repr(RankResult)`` per rank it returned (None for a zero map), under a
``# <case>`` line per config, in call order.  Two trees that give the same
file rank every golden matrix to the same value, by the same method, at the
same primes and with the same flag.  To compare a change with its parent,
run this file from each tree (it imports the ``src/`` beside it) and diff
the two outputs.

Outside the tier-1 suite: pytest does not collect this file.
"""

import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import test_golden  # noqa: E402
from soficrank import invariants  # noqa: E402


def main(out):
    lines = []
    stage_ranks = invariants._stage_ranks

    def hooked(*args):
        results = stage_ranks(*args)
        lines.extend(map(repr, results))
        return results

    invariants._stage_ranks = hooked
    try:
        for case in test_golden.CASES:
            lines.append("# " + case)
            with tempfile.TemporaryDirectory() as out_dir:
                test_golden.produce(case, out_dir)
    finally:
        invariants._stage_ranks = stage_ranks
    Path(out).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tests/rank_dump.py OUT")
    main(sys.argv[1])
