"""Every exported name has a caller or a test.

A public top-level def or class of src/tilestream/*.py passes when some
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


def unreferenced(root):
    """(module, name) of each public top-level def or class of root's
    src/tilestream that no code names."""
    names = referenced_names(root)
    return [(path.name, node.name)
            for path in sorted((root / "src" / "tilestream").glob("*.py"))
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in names]


def test_every_exported_name_has_a_caller_or_a_test():
    assert unreferenced(ROOT) == []


def test_an_uncalled_function_is_reported(tmp_path):
    """A def that only an import and a docstring name is reported; a call
    in a test and an identifier string in perfbench each count."""
    package = tmp_path / "src" / "tilestream"
    package.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench").mkdir()
    (package / "mod.py").write_text(
        '"""uncalled is only named here."""\n'
        "def called():\n    return 1\n\n\n"
        "def traced():\n    return 2\n\n\n"
        "def uncalled():\n    return 0\n\n\n"
        "def _private():\n    return 3\n")
    (package / "__init__.py").write_text("from .mod import called, traced, uncalled\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from tilestream.mod import called\n\n\ndef test_called():\n    assert called() == 1\n")
    (tmp_path / "perfbench" / "spans.py").write_text('TRACED = {"mod": ("traced",)}\n')
    assert unreferenced(tmp_path) == [("mod.py", "uncalled")]
