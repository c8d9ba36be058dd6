#!/usr/bin/env python3
"""Print the size of the library: lines and AST nodes of each module of
src/canimm, and the files, lines and nodes in total.

Usage: python scripts/size.py

Lines are newline characters, as `wc -l` counts them; nodes are what
`ast.walk` visits in the parsed module.  It reads the source files only and
imports nothing from the package.
"""

import ast
import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "canimm"
    rows = []
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        rows.append((path.name, text.count("\n"), sum(1 for _ in ast.walk(ast.parse(text, str(path))))))
    width = max((len(name) for name, _, _ in rows), default=0)
    print(f"{'module':<{width}}  {'lines':>6}  {'nodes':>6}")
    for name, lines, nodes in rows:
        print(f"{name:<{width}}  {lines:>6}  {nodes:>6}")
    lines, nodes = sum(row[1] for row in rows), sum(row[2] for row in rows)
    print(f"total: {len(rows)} files, {lines:,} lines, {nodes:,} AST nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
