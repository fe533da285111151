"""The package's public names: each module's ``__all__`` and the top-level re-exports."""

import importlib
import pkgutil
import types

import icshadows

MODULES = [
    importlib.import_module(f"icshadows.{info.name}")
    for info in pkgutil.iter_modules(icshadows.__path__)
]


def test_every_export_resolves():
    public = set()
    for module in MODULES:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names what it lacks: {missing}"
        public.update(getattr(module, "__all__", ()))
    # a top-level name must be public in the module it comes from
    top = {
        name
        for name, value in vars(icshadows).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert not top - public, f"re-exported but in no module's __all__: {sorted(top - public)}"
