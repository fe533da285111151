"""The package's public names: each module's ``__all__`` and the top-level re-exports."""

import ast
import importlib
import pathlib
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


STATE_CLASSES = {"PureState", "DensityMatrix", "BlockProductState"}


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_states_tells_the_state_kinds_apart():
    for path in sorted(pathlib.Path(icshadows.__file__).parent.glob("*.py")):
        if path.name == "states.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _names(node.func) & {"isinstance", "hasattr"}:
                # isinstance(x, <classes>) or hasattr(x, "<attribute>")
                probe = node.args[1]
                assert not _names(probe) & STATE_CLASSES, f"{path.name}:{node.lineno} tests a state's class"
                attr = probe.value if isinstance(probe, ast.Constant) else None
                assert attr not in {"matrix", "amplitudes", "blocks"}, f"{path.name}:{node.lineno} sniffs a state"
        if path.stem in ("estimation", "sampling", "frames"):
            named = _names(tree) | {a.asname or a.name for n in ast.walk(tree)
                                    if isinstance(n, ast.ImportFrom) for a in n.names}
            assert not named & STATE_CLASSES, f"{path.name} names a state class"
