"""Mutation survey: single-operator mutants of one module, one pytest run each.

    python tools/mutate.py src/icumort/textfeat.py tests/test_textfeat.py

Run from the repository root.  A mutant turns one comparison into its
opposite, swaps + and - or * and /, or raises an integer constant by 1.
Each is written into a temporary copy of src/ and tests/, never the working
tree, and killed when `pytest -x` on the named tests fails or runs past 600
seconds.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SWAPS = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
         ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
         ast.Div: ast.Mult}


def sites(tree):
    """(node, index into node.ops or None), in ast.walk order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            yield from ((node, i) for i, op in enumerate(node.ops)
                        if type(op) in SWAPS)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            if type(node.op) in SWAPS:
                yield node, None
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, None


def mutant(source, k):
    """(the source with site k changed, a line describing the change)."""
    tree = ast.parse(source)
    node, i = list(sites(tree))[k]
    if isinstance(node, ast.Constant):
        change = f"{node.value} -> {node.value + 1}"
        node.value += 1
    else:
        old = node.op if i is None else node.ops[i]
        new = SWAPS[type(old)]()
        if i is None:
            node.op = new
        else:
            node.ops[i] = new
        change = f"{type(old).__name__} -> {type(new).__name__}"
    return ast.unparse(tree), f"line {node.lineno}: {change}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("module")
    ap.add_argument("tests", nargs="+")
    args = ap.parse_args()
    source = Path(args.module).read_text(encoding="utf-8")
    count = len(list(sites(ast.parse(source))))
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree("src", Path(work, "src"))
        shutil.copytree("tests", Path(work, "tests"))
        shutil.copy("pyproject.toml", work)
        env = dict(os.environ, PYTHONPATH=str(Path(work, "src")))

        def fails(text):
            Path(work, args.module).write_text(text, encoding="utf-8")
            command = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
                       "no:cacheprovider", *args.tests]
            try:
                return subprocess.run(command, cwd=work, env=env,
                                      capture_output=True,
                                      timeout=600).returncode != 0
            except subprocess.TimeoutExpired:
                return True

        if fails(ast.unparse(ast.parse(source))):
            sys.exit("the unmutated module already fails its tests")
        killed = 0
        for k in range(count):
            text, change = mutant(source, k)
            dead = fails(text)
            killed += dead
            print("killed  " if dead else "SURVIVED", change, flush=True)
        print(f"{killed} of {count} mutants killed")


if __name__ == "__main__":
    main()
