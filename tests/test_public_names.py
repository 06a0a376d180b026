"""Every public name of qcrb has a caller outside the tests, and every error type is signalled.

A name that only tests read belongs in a test helper (`paper_statements`,
`penalty_oracle`, `fock_reference`), not in the package. Both checks read the
sources by AST, so a name mentioned only in a string or a comment does not count.
"""

import ast
import pathlib

from qcrb import errors

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qcrb"
CALLERS = ("scripts", "perfbench")   # directories whose code may be a name's only caller
SIGNAL_FREE = ("isinstance", "issubclass")   # calls that test an error type, not pass it


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _loaded(node):
    """Names that the code under `node` reads: bare names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _public_definitions(tree):
    """(name, node) of each public top-level def, class or assignment of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def unread_public_names(src, callers):
    """Sorted `module.name` of the public names of the modules in `src` that no code
    reads outside the name's own definition, in `src` or in the `callers` files."""
    trees = {p.stem: _tree(p) for p in sorted(src.glob("*.py"))}
    read_outside = set()
    for path in callers:
        read_outside.update(_loaded(_tree(path)))
    # what each top-level statement of src reads, so a definition can skip itself
    reads = [(node, set(_loaded(node))) for tree in trees.values() for node in tree.body]
    unread = []
    for module, tree in trees.items():
        for name, node in _public_definitions(tree):
            if name in read_outside:
                continue
            if not any(name in names for other, names in reads if other is not node):
                unread.append(f"{module}.{name}")
    return sorted(unread)


def signalled_names(src):
    """Names raised in `src`, passed there as a call argument other than to
    isinstance or issubclass, or given as a parameter's default."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                found.update(_loaded(exc))
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id in SIGNAL_FREE:
                    continue
                for arg in node.args + [kw.value for kw in node.keywords]:
                    found.update(_loaded(arg))
            elif isinstance(node, ast.arguments):
                for default in node.defaults + node.kw_defaults:
                    if default is not None:
                        found.update(_loaded(default))
    return found


def _caller_files():
    return [p for d in CALLERS for p in sorted((ROOT / d).rglob("*.py"))]


def test_unread_public_names_are_found(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "X = 1\n_hidden = 2\n\ndef used():\n    return X\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "def named_in_a_string():\n    pass\n\nNOTE = 'named_in_a_string'\n")
    (pkg / "b.py").write_text("from .a import used\n\ndef main():\n    return used()\n")
    script = tmp_path / "run.py"
    script.write_text("import b\nb.main()\n")
    assert unread_public_names(pkg, [script]) == [
        "a.NOTE", "a.named_in_a_string", "a.recursive"]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unread_public_names(SRC, _caller_files()) == []


def test_every_error_type_is_raised_or_passed():
    types = sorted(name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, errors.QcrbError)
                   and obj is not errors.QcrbError)
    assert types and [t for t in types if t not in signalled_names(SRC)] == []
