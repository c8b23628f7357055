"""List the functions of qflatlab that no compared record reaches.

    python3 tools/reach_map.py [--seeds 1,7]

Imports qflatlab and runs ``report_diff.dump`` (the workloads' operations
at each seed, the fixed documents, the polynomial sums and the public-API
records) and ``run_verification_suite()`` in this checkout under
``sys.setprofile``, then prints every module-level function and class
method under ``src/qflatlab`` that none of them ever called, with its line
count (decorators included), and the total.  A function that only runs
while its module is imported, such as a factory of the module's tables,
counts as called.  Nested functions and lambdas are not listed.
"""

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qflatlab"


def definitions():
    """{(file, first line): (label, lines)} of every module-level function
    and method; the first line is a decorator's when there is one, as in
    the function's code object."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            owner, defs = "", [node]
            if isinstance(node, ast.ClassDef):
                owner, defs = f"{node.name}.", node.body
            for fn in defs:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    out[(str(path), first)] = (f"{path.name}:{fn.lineno} {owner}{fn.name}",
                                               fn.end_lineno - first + 1)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,7")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import report_diff

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        from qflatlab.verification import run_verification_suite
        report_diff.dump([int(s) for s in args.seeds.split(",")])
        run_verification_suite()
    finally:
        sys.setprofile(None)
    uncalled = [v for k, v in sorted(definitions().items()) if k not in called]
    for label, lines in uncalled:
        print(f"{label:60s} {lines:4d}")
    print(f"{len(uncalled)} functions, {sum(n for _, n in uncalled)} lines never called")
    return 0


if __name__ == "__main__":
    sys.exit(main())
