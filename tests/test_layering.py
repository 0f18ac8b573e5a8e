"""The product's layering: the query engine does not reach into the paper's
experiment harness.

``repro.baselines`` (the comparison engines, the simulated cluster's cost
models) and ``repro.bench`` (the paper's tables) sit on top of the product;
no module of ``repro.{core,engine,store,serve,obs,sparql}`` may import them,
at module level or inside a function.  And the engine runs every join in
process as one hash join, so it exports no join strategy.
"""

import ast
import pathlib

import pytest

import repro
import repro.engine

PRODUCT_PACKAGES = ("core", "engine", "store", "serve", "obs", "sparql")
HARNESS_PACKAGES = ("repro.baselines", "repro.bench")
SOURCE_ROOT = pathlib.Path(repro.__file__).parent


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SOURCE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(path: pathlib.Path):
    """Every module ``path`` imports, relative imports resolved."""
    package = module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            # ``from repro import baselines`` names the package in an alias.
            yield from (f"{base}.{alias.name}" for alias in node.names)


def product_modules():
    return sorted(
        path for package in PRODUCT_PACKAGES for path in (SOURCE_ROOT / package).rglob("*.py")
    )


def test_the_walk_sees_every_product_package():
    seen = {module_name(path).split(".")[1] for path in product_modules()}
    assert seen == set(PRODUCT_PACKAGES)


@pytest.mark.parametrize("path", product_modules(), ids=module_name)
def test_no_product_module_imports_the_experiment_harness(path):
    offending = [
        name
        for name in imported_modules(path)
        if any(name == harness or name.startswith(harness + ".") for harness in HARNESS_PACKAGES)
    ]
    assert offending == [], module_name(path)


def test_the_engine_exports_no_join_strategy():
    exported = set(dir(repro.engine)) | set(repro.engine.__all__)
    assert [name for name in sorted(exported) if name.endswith("HashJoin")] == []
