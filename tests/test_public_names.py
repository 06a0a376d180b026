"""Every public name of qcrb has a caller outside the tests, every parameter
default has two, and every error type is signalled.

A name that only tests read belongs in a test helper (`paper_statements`,
`penalty_oracle`, `fock_reference`), not in the package. A default that the
package, the scripts and the benchmark either always pass or never pass keeps
a branch only tests can reach, so it is made required or taken out. The
checks read the sources by AST, so a name mentioned only in a string or a
comment does not count.
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


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _init_fields(node):
    """(name, default) of each init field of a dataclass, in order; default None if none."""
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id == "field":
            if any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                   and kw.value.value is False for kw in value.keywords):
                continue
        yield stmt.target.id, value


def _defaulted(tree, module):
    """(label, callee name, parameter, position or None) of every default in a module.

    The position counts the arguments a call gives before its keywords: a
    method's call leaves out self, and a keyword-only parameter has none.
    """
    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    for pos, (name, default) in enumerate(_init_fields(node)):
                        if default is not None:
                            yield f"{prefix}{node.name}.{name}", node.name, name, pos
                yield from visit(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = int(in_class and not static)
                for k, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                        len(positional) - len(a.defaults)):
                    yield f"{prefix}{node.name}.{arg.arg}", node.name, arg.arg, k - skip
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield f"{prefix}{node.name}.{arg.arg}", node.name, arg.arg, None
                yield from visit(node.body, f"{prefix}{node.name}.", False)
            else:
                for field_name in ("body", "orelse", "finalbody", "handlers"):
                    inner = getattr(node, field_name, None)
                    if isinstance(inner, list):
                        yield from visit(inner, prefix, in_class)

    yield from visit(tree.body, f"{module}.", False)


def _passes(call, param, pos):
    """Whether a call gives `param`; *args and **kwargs may, so they count."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    return pos is not None and len(call.args) > pos


def one_valued_defaults(src, callers):
    """Sorted `module.def.parameter` of the defaults of `src` that no call, in
    `src` or in the `callers` files, both passes and leaves out.

    Every def counts, methods and nested functions too, and so does every
    defaulted dataclass field but those of field(init=False). A call is
    matched to a def by the name it calls.
    """
    trees = {p: _tree(p) for p in sorted(src.glob("*.py"))}
    calls = {}
    for tree in [*trees.values(), *map(_tree, callers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for path, tree in trees.items():
        for label, name, param, pos in _defaulted(tree, path.stem):
            given = {_passes(call, param, pos) for call in calls.get(name, ())}
            if given != {True, False}:
                found.append(label)
    return sorted(found)


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


def test_one_valued_defaults_are_found(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "def f(x, both=1, passed=2, *, left=3):\n"
        "    def inner(y=0):\n        return y\n"
        "    return inner()\n\n"
        "def g(kw=0):\n    return kw\n\n"
        "class C:\n"
        "    def method(self, a=1):\n        return a\n\n"
        "@dataclass\nclass D:\n    x: int\n    y: int = 0\n"
        "    cache: dict = field(default_factory=dict, init=False)\n")
    (pkg / "b.py").write_text(
        "from .a import C, D, f, g\n\n"
        "def main(opts):\n"
        "    f(0, passed=1)\n    f(0, 1, 2)\n    g(**opts)\n    g()\n"
        "    C().method(2)\n    return D(1, 2)\n")
    script = tmp_path / "run.py"
    script.write_text("import b\nb.main({})\nb.D(3, y=4)\n")
    assert one_valued_defaults(pkg, [script]) == [
        "a.C.method.a", "a.D.y", "a.f.inner.y", "a.f.left", "a.f.passed"]


def test_every_default_is_passed_and_left_out_outside_the_tests():
    assert one_valued_defaults(SRC, _caller_files()) == []


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unread_public_names(SRC, _caller_files()) == []


def test_every_error_type_is_raised_or_passed():
    types = sorted(name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, errors.QcrbError)
                   and obj is not errors.QcrbError)
    assert types and [t for t in types if t not in signalled_names(SRC)] == []
