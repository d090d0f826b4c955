"""The package's public surface, and the internal names the benchmark pins.

The top level holds what a library caller needs; kernel pieces live in
their submodules.  benchmark/ imports from those submodules directly, so
every name it imports is checked here by reading its source, without
running any benchmark code.
"""

import ast
import importlib
from pathlib import Path

import bigsub

PUBLIC = [
    "DecimalMagnitude",
    "EmptyInput",
    "InvalidDigit",
    "IterationLimitExceeded",
    "IterationStats",
    "LIMB_BASE",
    "LIMB_DIGITS",
    "NegativeResult",
    "OpCount",
    "compare_magnitude",
    "format_magnitude",
    "parse_magnitude",
    "subtract_digitwise",
    "subtract_parallel",
    "subtract_sequential",
]

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_top_level_names():
    assert sorted(bigsub.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(bigsub, name)] == []


def test_benchmark_imports_resolve():
    imports = []
    for path in sorted(BENCHMARK.glob("*.py")) + sorted(BENCHMARK.glob("tests/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bigsub":
                imports += [(path.name, node.module, alias.name) for alias in node.names]
    assert imports, f"no bigsub imports found under {BENCHMARK}"
    missing = [
        (where, module, name)
        for where, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
