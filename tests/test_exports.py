"""Every defined name has a caller or a test.

A top-level def or class of src/tilestream/*.py, public or private, and
each method of a top-level class (dunder methods aside) passes when some
code in src/, tests/ or perfbench/ names it: as a name, an attribute or
an identifier string (perfbench's TRACED lists the functions it wraps),
but not in a docstring, an import or its own definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "tests", "perfbench")


def _docstrings(tree):
    """The ids of the string constants that are docstrings."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def referenced_names(root):
    """Every name, attribute and identifier string in the code under root's CODE_DIRS."""
    names = set()
    for directory in CODE_DIRS:
        for path in (root / directory).rglob("*.py"):
            tree = ast.parse(path.read_text(), str(path))
            docs = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier() and id(node) not in docs):
                    names.add(node.value)
    return names


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _defined(tree):
    """Each top-level def and class, then each of a top-level class's
    methods but the dunder ones."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (method for method in node.body if isinstance(method, DEFS)
                        and not (method.name.startswith("__") and method.name.endswith("__")))


def unreferenced(root):
    """(module, name) of each top-level def or class, and each non-dunder
    method of a top-level class, of root's src/tilestream that no code
    names."""
    names = referenced_names(root)
    return [(path.name, node.name)
            for path in sorted((root / "src" / "tilestream").glob("*.py"))
            for node in _defined(ast.parse(path.read_text(), str(path)))
            if node.name not in names]


def test_every_exported_name_has_a_caller_or_a_test():
    assert unreferenced(ROOT) == []


def test_an_uncalled_function_is_reported(tmp_path):
    """A def that only an import and a docstring name is reported, and so
    are a private def and a method that nothing names; a call in a test,
    an attribute and an identifier string in perfbench each count, and a
    dunder method needs no caller."""
    package = tmp_path / "src" / "tilestream"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench").mkdir()
    (package / "mod.py").write_text(
        '"""uncalled is only named here."""\n'
        "def called():\n    return 1\n\n\n"
        "def traced():\n    return 2\n\n\n"
        "def uncalled():\n    return 0\n\n\n"
        "def _private():\n    return 3\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = 4\n\n"
        "    def used(self):\n        return self.n\n\n"
        "    def unused(self):\n        return 5\n")
    (package / "__init__.py").write_text("from .mod import Box, called, traced, uncalled\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from tilestream.mod import Box, called\n\n\n"
        "def test_called():\n    assert called() == Box().used() - 3\n")
    (tmp_path / "perfbench" / "spans.py").write_text('TRACED = {"mod": ("traced",)}\n')
    assert unreferenced(tmp_path) == [("mod.py", "uncalled"), ("mod.py", "_private"),
                                      ("mod.py", "unused")]
