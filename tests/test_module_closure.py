"""Every module of the package is reached from something outside it, and
every import of the package resolves.

The roots are the files that use the package — the query harness
(``__ray_entry__.py``), ``bench.py``, ``scripts/*.py`` and the benchmark
(``perfbench/*.py``) — plus the modules that implement the reference's
operators (PARITY.md).  Tests are not roots: code only a test reaches is
dead code.  Imports are read with ``ast``, including the ones inside
functions, so this needs no Ray and imports nothing.

The harness imports its modules inside the query functions, so a query
whose module was deleted would fail only when that query runs;
``test_every_package_import_resolves`` catches it statically.
"""

import ast
import glob
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "dynaalign_ray"

# modules that implement a PARITY.md operator row
PARITY_MODULES = [
    "dynaalign_ray.compat",
    "dynaalign_ray.functions.svgplot",
    "dynaalign_ray.hashing",
    "dynaalign_ray.pipelines.clusterbreak",
    "dynaalign_ray.pipelines.curation",
    "dynaalign_ray.pipelines.neardup",
    "dynaalign_ray.shingles",
    "dynaalign_ray.sources.io",
    "dynaalign_ray.stages.bands",
    "dynaalign_ray.stages.blosum",
    "dynaalign_ray.stages.cluster",
    "dynaalign_ray.stages.consensus",
    "dynaalign_ray.stages.louvain",
    "dynaalign_ray.stages.minhash",
    "dynaalign_ray.stages.msa",
    "dynaalign_ray.stages.nw",
    "dynaalign_ray.stages.verify",
]


def _path(module: str) -> str | None:
    base = os.path.join(REPO, *module.split("."))
    for p in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(p):
            return p
    return None


def _tree(path: str) -> ast.Module:
    with open(path) as f:
        return ast.parse(f.read(), path)


def _module_of(path: str) -> str:
    rel = os.path.relpath(path, REPO)[: -len(".py")].replace(os.sep, ".")
    return rel[: -len(".__init__")] if rel.endswith(".__init__") else rel


def _imported_modules(path: str) -> set[str]:
    """Package modules ``path`` imports anywhere in its body, with their
    parent packages (importing ``a.b.c`` runs ``a`` and ``a.b`` too)."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            # ``from pkg import mod`` names a module, not an attribute
            names.update(f"{node.module}.{a.name}" for a in node.names)
    out = set()
    for name in names:
        parts = name.split(".")
        if parts[0] != PKG:
            continue
        for i in range(1, len(parts) + 1):
            if _path(".".join(parts[:i])):
                out.add(".".join(parts[:i]))
    return out


def _package_modules() -> set[str]:
    files = glob.glob(os.path.join(REPO, PKG, "**", "*.py"), recursive=True)
    return {_module_of(f) for f in files}


def test_parity_modules_exist():
    assert [m for m in PARITY_MODULES if _path(m) is None] == []


def test_every_package_module_is_reachable():
    roots = [os.path.join(REPO, "__ray_entry__.py"), os.path.join(REPO, "bench.py")]
    roots += glob.glob(os.path.join(REPO, "scripts", "*.py"))
    roots += glob.glob(os.path.join(REPO, "perfbench", "*.py"))
    roots += [_path(m) for m in PARITY_MODULES]
    seen: set[str] = set()
    stack = list(roots)
    reached: set[str] = set()
    while stack:
        path = stack.pop()
        if path in seen:
            continue
        seen.add(path)
        for module in _imported_modules(path):
            reached.add(module)
            stack.append(_path(module))
    reached.update(m for m in PARITY_MODULES)
    unreachable = sorted(_package_modules() - reached)
    assert unreachable == [], f"modules no root reaches: {unreachable}"


def _top_level_names(path: str) -> set[str]:
    """Names a module binds at import time: defs, classes, assignments and
    imports at module level, including inside top-level if/try/with/for."""
    names: set[str] = set()
    stack = list(_tree(path).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                names.add(a.asname or a.name.split(".")[0])
        else:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
                targets = [node.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, field, []))
    return names


def _unresolved_imports(path: str) -> list[str]:
    """Package imports in ``path`` (anywhere in its body) whose module is
    missing, or whose imported name is neither a submodule nor a top-level
    name of that module."""
    bad = []
    where = os.path.relpath(path, REPO)
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == PKG and _path(a.name) is None:
                    bad.append(f"{where}:{node.lineno}: import {a.name}")
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module.split(".")[0] != PKG:
                continue
            module_path = _path(node.module)
            if module_path is None:
                bad.append(f"{where}:{node.lineno}: from {node.module} (no module)")
                continue
            defined = _top_level_names(module_path)
            for a in node.names:
                if a.name not in defined and _path(f"{node.module}.{a.name}") is None:
                    bad.append(f"{where}:{node.lineno}: from {node.module} import {a.name}")
    return bad


def test_every_package_import_resolves():
    files = [os.path.join(REPO, "__ray_entry__.py"), os.path.join(REPO, "bench.py")]
    for pattern in ("scripts/*.py", "perfbench/*.py", "tests/*.py", f"{PKG}/**/*.py"):
        files += glob.glob(os.path.join(REPO, pattern), recursive=True)
    bad = [b for f in sorted(files) for b in _unresolved_imports(f)]
    assert bad == [], "unresolved package imports:\n" + "\n".join(bad)
