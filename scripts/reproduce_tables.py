#!/usr/bin/env python3
"""Regenerate all the published tables in markdown, via the CLI renderer.

Writes to stdout; pipe to a file to diff against the literature.  The
titles go out through the CLI's writer, so a reader that closes the pipe
early (``| head -1``) changes no exit code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from detlinks.cli import _emit, main as cli_main  # noqa: E402


SECTIONS = [
    ("polar multiplicities of 2 x n matrices",
     [["polar", "--m", "2", "--n", "2..7", "--r", "1"]]),
    ("polar multiplicities of 3 x n matrices",
     [["polar", "--m", "3", "--n", "3..20", "--r", "1..2"]]),
    ("polar multiplicities of 4 x n matrices (ranks 1..3)",
     [["polar", "--m", "4", "--n", "4..12", "--r", "1..3"]]),
    ("polar multiplicities of 5 x n matrices (ranks 1..4), n <= 8",
     [["polar", "--m", "5", "--n", "5..8", "--r", "1..4"]]),
    ("polar multiplicities of the (m, m+1) presentation family, m <= 6",
     [["polar", "--m", str(m), "--n", str(m + 1), "--r", str(m - 1)]
      for m in range(1, 7)]),
    ("Euler characteristics of the smooth links of the presentation family",
     [["euler", "--hilbert-burch", "--max-m", "6"]]),
]


def main():
    for title, argvs in SECTIONS:
        _emit(f"## {title}\n\n")
        for argv in argvs:
            code = cli_main(argv)
            if code:
                return code
        _emit("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
