"""Square-tiled surfaces: exact flows, SL(2,Z) action, hitting-time lab.

The submodules of `__all__` are imported on first access (PEP 562), so
importing the package, or one submodule such as `cli`, loads only the
modules that are used.
"""

from importlib import import_module as _import_module

__all__ = ["cfrac", "errors", "flow", "origami", "perm", "sl2"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
