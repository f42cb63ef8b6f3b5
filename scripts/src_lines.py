"""Count the lines of the package source, per module and in total.

    python scripts/src_lines.py [--root DIR]

Prints one row per module of DIR/src/tracemax (default: this checkout)
with its physical lines and its code lines, then the totals. Physical
lines are what ``wc -l`` counts. Code lines are read with the tokenize
module: a line counts when a token other than a comment, an indent or a
line break starts on it or spans it, except the strings that stand alone
as a statement (docstrings). Blank lines, comments and docstrings are not
code.
"""

from __future__ import annotations

import argparse
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of lines of path that hold code, docstrings left out."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the logical line read so far
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def physical_lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to count")
    args = parser.parse_args(argv)
    modules = sorted((args.root / "src" / "tracemax").glob("*.py"))
    rows = [(path.name, physical_lines(path), code_lines(path)) for path in modules]
    print(f"{'module':<16}{'physical':>10}{'code':>8}")
    for name, physical, code in rows:
        print(f"{name:<16}{physical:>10}{code:>8}")
    print(f"{'total':<16}{sum(r[1] for r in rows):>10}{sum(r[2] for r in rows):>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
