"""``src/`` holds the product and nothing else.

Every module under ``src/repro/`` must be reached by imports from a root:
``repro.core.hacfs``, ``repro.shell.cli``, or any ``.py`` file under
``benchmarks/`` or ``examples/``.  An edge is any ``import`` /
``from … import`` statement, at any depth, so a lazy function-level
import counts.  A name imported from a package counts as an import of the
module that defines it; a package ``__init__``'s own re-exports make
nothing reachable.  A module no root reaches is deleted, or moved under
``tests/`` when tests are its only users.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROOTS = ("repro.core.hacfs", "repro.shell.cli")


def _src_modules():
    """Dotted name -> file, for every module and package under ``src/repro/``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(path):
    """``(module, names)`` for every absolute import statement in *path*."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, tuple(alias.name for alias in node.names)


def _reexports(init):
    """Public name -> the module a package ``__init__`` imports it from."""
    return {alias.asname or alias.name: node.module
            for node in ast.parse(init.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level == 0
            for alias in node.names}


class _Graph:
    def __init__(self):
        self.modules = _src_modules()
        self.packages = {name for name, path in self.modules.items()
                         if path.name == "__init__.py"}

    def _definer(self, module, name):
        """The module that defines *name* as imported from *module*."""
        if module not in self.packages:
            return module
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}"
        source = _reexports(self.modules[module]).get(name)
        return module if source is None else self._definer(source, name)

    def targets(self, path):
        """The ``src/repro`` modules that *path*'s imports reach."""
        for module, names in _imports(path):
            for target in ([self._definer(module, n) for n in names]
                           or [module]):
                if target in self.modules and target not in self.packages:
                    yield target

    def unreached(self):
        roots = [path for top in ("benchmarks", "examples")
                 for path in sorted((ROOT / top).rglob("*.py"))]
        roots += [self.modules[name] for name in ROOTS]
        seen = set(ROOTS)
        while roots:
            for target in self.targets(roots.pop()):
                if target not in seen:
                    seen.add(target)
                    roots.append(self.modules[target])
        return sorted(set(self.modules) - self.packages - seen)


def test_every_src_module_is_reached_from_the_product():
    unreached = _Graph().unreached()
    assert not unreached, "no root reaches " + ", ".join(unreached)


def test_a_package_reexport_alone_reaches_nothing(tmp_path):
    """The rule the guard rests on, on a toy tree: the ``__init__`` names
    ``used`` and ``orphan``, but only ``used`` is imported by a root."""
    graph = _Graph()
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from pkg.used import Used\nfrom pkg.orphan import Orphan\n")
    (pkg / "used.py").write_text("class Used: pass\n")
    (pkg / "orphan.py").write_text("class Orphan: pass\n")
    root = tmp_path / "root.py"
    root.write_text("def lazy():\n    from pkg import Used\n")
    graph.modules = {"pkg": pkg / "__init__.py", "pkg.used": pkg / "used.py",
                     "pkg.orphan": pkg / "orphan.py"}
    graph.packages = {"pkg"}
    assert list(graph.targets(root)) == ["pkg.used"]
