"""Package hygiene: every module-level import of the package is read,
and every module-level function and class is used somewhere.

A stdlib-``ast`` scan of ``finance_sc_relations_ray/``. An import whose
bound name the module never reads is a dead dependency, and after a
family is cut it is the usual leftover. A name counts as read when it
is loaded anywhere in the module (functions included), or when it
appears in a string annotation, so ``import ray`` used only in
``-> "ray.data.Dataset"`` passes.

The orphan sweep tokenizes every ``.py`` file of the package, the
driver (``__ray_entry__.py``), ``oracle/``, ``tests/`` and
``perfbench/``: a ``def`` or ``class`` whose name is never seen outside
its own definition is dead code."""

import ast
import io
import pathlib
import re
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "finance_sc_relations_ray"


def _module_level(tree: ast.Module):
    """Statements at module level, including those under a module-level
    ``if`` / ``try``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, field, []))
        else:
            yield node


def _module_imports(tree: ast.Module):
    """(line, bound name) of each import at module level."""
    for node in _module_level(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield node.lineno, a.asname or a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield node.lineno, a.asname or a.name


def _loaded(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (a.posonlyargs + a.args + a.kwonlyargs
                        + [a.vararg, a.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.Module) -> set[str]:
    read = _loaded(tree)
    # string annotations: "ray.data.Dataset", list["pd.DataFrame"], ...
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                try:
                    read |= _loaded(ast.parse(n.value, mode="eval"))
                except SyntaxError:
                    pass
    return read


def test_package_has_no_unused_module_imports():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _names_read(tree)
        found += [f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
                  for line, name in sorted(_module_imports(tree))
                  if name not in read]
    assert found == [], "unused imports:\n" + "\n".join(found)


# ------------------------------------------------------------ orphans ---
REPO = PACKAGE.parent
DEFINED_IN = [PACKAGE, REPO / "oracle", REPO / "__ray_entry__.py"]
SCANNED = [PACKAGE, REPO / "oracle", REPO / "__ray_entry__.py",
           REPO / "tests", REPO / "perfbench"]
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _py_files(roots):
    """(root, path) of each ``.py`` file; a root may be a file."""
    for root in roots:
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            yield root, path


def _tokens(src: str) -> list[str]:
    """Identifier tokens of a Python source, comments left out (a name
    that only a comment mentions is not in use); strings are kept, so a
    ``"module:Class"`` spec or a docstring reference counts."""
    text = " ".join(t.string for t in tokenize.generate_tokens(
        io.StringIO(src).readline) if t.type != tokenize.COMMENT)
    return _TOKEN.findall(text)


def find_orphans(defined_in=DEFINED_IN, scanned=SCANNED) -> list[str]:
    """Module-level functions and classes whose name appears as a token
    nowhere but inside their own definition (decorators included),
    counted over every ``.py`` file under ``scanned``, so a name only a
    test, the driver or perfbench reads is still in use."""
    counts: dict[str, int] = {}
    for _, path in _py_files(scanned):
        for tok in _tokens(path.read_text()):
            counts[tok] = counts.get(tok, 0) + 1
    found = []
    for root, path in _py_files(defined_in):
        src = path.read_text()
        lines = src.splitlines()
        for node in _module_level(ast.parse(src, filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[first - 1:node.end_lineno]) + "\n"
            if counts.get(node.name, 0) <= _tokens(own).count(node.name):
                found.append(f"{path.relative_to(root.parent)}:{node.lineno}: "
                             f"{node.name}")
    return found


def test_no_orphan_module_level_defs():
    found = find_orphans()
    assert found == [], "defined but never used:\n" + "\n".join(found)


def test_orphan_sweep_flags_a_planted_def(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def planted_orphan(n):\n    return planted_orphan(n - 1) if n else used()\n"
    )
    (tmp_path / "caller.py").write_text(
        "from mod import used\nused()  # not planted_orphan\n"
    )
    assert find_orphans([tmp_path], [tmp_path]) == [
        f"{tmp_path.name}/mod.py:5: planted_orphan"
    ]
