"""The benchmark's tracer (perfbench/spans.py) wraps package functions that it
names from outside the package; a rename or deletion there must fail here."""
import ast
import concurrent.futures
import importlib
from pathlib import Path

from pqcbound import EntropyCache, search

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_functions():
    """The (module, attribute, span name) triples of spans.FUNCTIONS, read
    from the source without importing the tracer."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTIONS in {SPANS}")


def test_every_traced_function_resolves():
    functions = _traced_functions()
    assert functions
    for module, attr, _ in functions:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_pool_and_entropy_hooks_resolve():
    # the tracer swaps ProcessPoolExecutor by identity and wraps joint_entropy
    assert search.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert callable(EntropyCache.joint_entropy)
    assert callable(EntropyCache.__len__)
