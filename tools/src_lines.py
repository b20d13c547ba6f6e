"""Line counts of the package's modules: ``wc -l`` lines and code lines.

A code line holds at least one token that is not a comment, a line break
(NL, NEWLINE), an INDENT, DEDENT or ENDMARKER, and not part of a docstring
statement (a statement that is only a string literal).  A token spanning
several lines counts on each of them.

Run from the repository root:

    python tools/src_lines.py [directory]    # default: src/gridwatch
"""

import ast
import glob
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def counts(path: str) -> tuple[int, int]:
    """(wc -l lines, code lines) of one Python file."""
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP and tok.type != tokenize.ENCODING:
                code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                            if n not in docstrings)
    return source.count(b"\n"), len(code)


def main(argv: list[str]) -> None:
    root = argv[1] if len(argv) > 1 else os.path.join("src", "gridwatch")
    total = [0, 0]
    print(f"{'module':<24}{'wc -l':>8}{'code':>8}")
    for path in sorted(glob.glob(os.path.join(root, "*.py"))):
        lines, code = counts(path)
        total[0] += lines
        total[1] += code
        print(f"{os.path.basename(path):<24}{lines:>8}{code:>8}")
    print(f"{'total':<24}{total[0]:>8}{total[1]:>8}")


if __name__ == "__main__":
    main(sys.argv)
