"""The names the benchmark's trace mode looks up in the package.

``perfbench/tracing.py`` wraps library functions by name, maps tomography
backends by class name, and the bench pass calls ``sample_shots`` with
``workers`` and ``chunk``. A renamed or deleted name would break trace
mode with no failure in an untraced run, so the contract is checked here.
The module is loaded from its file and not changed.
"""

import importlib
import inspect
import types
from pathlib import Path

from icshadows import bell_state, pauli6_product, sampling, tomography

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    # executed from its source, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_function_exists():
    missing = [
        f"{mod}.{func}"
        for mod, func in _tracing().TRACED
        if not callable(getattr(importlib.import_module(f"icshadows.{mod}"), func, None))
    ]
    assert not missing, f"perfbench traces names the package lacks: {missing}"


def test_traced_backends_map_to_their_labels():
    backends = {
        "lad": tomography.ConstrainedLAD(),
        "psd": tomography.LinearInversionPSD(),
        "bias": tomography.FrequencyBias(36.0),
    }
    label = _tracing()._backend
    assert {name: label(None, None, b)["backend"] for name, b in backends.items()} == {
        name: name for name in backends
    }


def test_sample_shots_takes_the_bench_pass_keywords():
    params = inspect.signature(sampling.sample_shots).parameters
    assert {"workers", "chunk"} <= set(params)
    ds = sampling.sample_shots(bell_state(), pauli6_product(2), 8, 0, workers=2, chunk=3)
    assert ds.S == 8
