"""Rewrite every golden output under tests/golden from the current tree.

    python3 tests/golden/regenerate.py

Runs each ``*/*.cfg`` the way ``tests/test_golden.py`` does and writes the
files that test compares against.  The configs and table files are inputs
and are left as they are.  On a tree whose outputs have not changed,
``git status`` stays clean afterwards.
"""

import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import test_golden  # noqa: E402


def main():
    for case in test_golden.CASES:
        folder = (test_golden.GOLDEN / case).parent
        with tempfile.TemporaryDirectory() as out_dir:
            for name, text in test_golden.produce(case, out_dir).items():
                (folder / name).write_text(text)
        print(case)


if __name__ == "__main__":
    main()
