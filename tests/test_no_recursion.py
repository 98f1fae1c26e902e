"""No module-level function of the package names itself: every walk over a
formula or a derivation keeps an explicit stack, so no depth of input
reaches Python's recursion limit."""

import ast
import glob
import os

import dblogic


def test_no_module_level_function_recurses():
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(dblogic.__file__), "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for fn in tree.body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a call by bare name, or the function handed on, as to `map`
                found += [f"{os.path.basename(path)}:{n.lineno} {fn.name}"
                          for n in ast.walk(fn)
                          if isinstance(n, ast.Name) and n.id == fn.name]
    assert found == []
