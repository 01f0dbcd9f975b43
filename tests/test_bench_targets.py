"""Every function the benchmark's tracer wraps must exist where it names it.

A rename in ``src/`` then fails here instead of breaking the traced
benchmark run.
"""

import importlib
import importlib.util

from conftest import REPO_ROOT


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", REPO_ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    missing = []
    for mod_name, owner, fn_name, *_ in targets:
        module = importlib.import_module(f"repuchain.{mod_name}")
        home = getattr(module, owner).__dict__ if owner else vars(module)
        if not callable(home.get(fn_name)):
            missing.append(f"{mod_name}.{owner + '.' if owner else ''}{fn_name}")
    assert not missing, f"traced names missing from repuchain: {missing}"
