"""The benchmark's tracer still finds every function it wraps, and puts each back.

``perfbench/tracing.py`` wraps package functions by name; a renamed or
removed target would otherwise break only traced benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import lqgcodesign.cli  # noqa: F401  (loads every module the tracer patches)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module_name: str, attr: str):
    """The function a TARGETS entry names, or None when it does not resolve."""
    holder = importlib.import_module(f"lqgcodesign.{module_name}")
    for part in attr.split("."):
        holder = vars(holder).get(part) if isinstance(holder, type) else getattr(holder, part, None)
    return holder


def _package_namespaces() -> dict:
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "lqgcodesign" or name.startswith("lqgcodesign.")}


def test_tracer_targets_resolve_and_are_restored():
    tracing = _load_tracing()
    originals = {(module, attr): _target(module, attr) for module, attr, _, _ in tracing.TARGETS}
    missing = [key for key, fn in originals.items() if fn is None]
    assert not missing, f"tracer targets not found in the package: {missing}"
    before = _package_namespaces()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for key, original in originals.items():
            assert getattr(_target(*key), "__wrapped__", None) is original, key
    finally:
        tracer.remove()
    for key, original in originals.items():
        assert _target(*key) is original, key
    after = _package_namespaces()
    for name, namespace in before.items():
        assert all(after[name][key] is value for key, value in namespace.items()), name
