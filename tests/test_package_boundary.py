"""The package holds the simulator and nothing else.

The frozen test oracles live in ``tests/oracles`` and the CI perf gates
in ``benchmarks/perf``; both run from a checkout of the repository, as
does the benchmark in ``hostbench``. An installed package has no
checkout to import them from, so nothing under ``src/repro`` may.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import repro

CHECKOUT_ONLY = {"tests", "benchmarks", "hostbench"}


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_nothing_from_the_checkout():
    package = Path(repro.__file__).parent
    offenders = sorted(
        f"{path.relative_to(package)} imports {root}"
        for path in package.rglob("*.py")
        for root in set(_imported_roots(path)) & CHECKOUT_ONLY
    )
    assert offenders == []


@pytest.mark.parametrize(
    "module", ["repro.bench", "repro.cluster._reference", "repro.mem._reference"]
)
def test_oracles_and_superseded_bench_are_not_in_the_package(module):
    assert importlib.util.find_spec(module) is None
