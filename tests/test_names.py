"""Every name the package binds at module level is used in the package.

Each import of a module of `src/holosphere` must be read in that module
(or listed in its `__all__`), and each module-level private name
(`_name`: function, class or assignment) must be read somewhere in the
package.  Each parameter of every function and lambda of the package is
read in its body, unless its name starts with `_` or it is the `self`
or `cls` of a method.  A helper that lost its last caller, an import
left behind by a deletion, or a parameter that nothing reads any more
fails here.
"""

import ast
from pathlib import Path

import pytest

import holosphere

SRC = Path(holosphere.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _reads(tree):
    """The names a module reads: loaded names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _private(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _unread_parameters(tree):
    """`function(parameter)` for each parameter of a function or lambda
    of the tree that its body does not load, `_`-prefixed names and the
    `self` or `cls` of a method (which an override must take) aside."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {sub.id for stmt in body for sub in ast.walk(stmt)
                  if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        yield from (f"{name}({p})" for p in params
                    if not p.startswith("_") and p not in loaded
                    and p not in ("self", "cls"))


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_read(module):
    tree = TREES[module]
    used = _reads(tree) | _exported(tree)
    assert sorted(set(_imports(tree)) - used) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_read(module):
    used = set().union(*map(_reads, TREES.values()))
    assert sorted(set(_private(TREES[module])) - used) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_parameter_is_read(module):
    assert list(_unread_parameters(TREES[module])) == []
