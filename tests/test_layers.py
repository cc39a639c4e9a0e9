"""The benchmark tracer's layer names must resolve in hornkit.

bench/tracer.py wraps each name in LAYERS with getattr and no fallback, so
a renamed or deleted function makes every traced benchmark run fail.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_layers_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for module_name, attrs in tracer.LAYERS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            assert callable(owner), f"{module_name}.{attr}"
