"""The benchmark's tracer wraps library functions by name; they must exist."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers() -> tuple[tuple[str, str], ...]:
    """The ``LAYERS`` literal of perfbench/tracing.py, parsed without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACING}")


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert layers
    missing = [
        f"{module}.{function}"
        for module, function in layers
        if not callable(getattr(importlib.import_module(f"sweepdepth.{module}"), function, None))
    ]
    assert not missing, f"perfbench/tracing.py LAYERS names missing functions: {missing}"
