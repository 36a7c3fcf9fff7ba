"""Square-tiled surfaces: exact flows, SL(2,Z) action, hitting-time lab.

The names below are re-exported from their submodules on first access
(PEP 562), so importing the package, or one submodule such as `cli`, loads
only the modules that are used.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "cfrac": ("CFSlope", "cf_expand", "diophantine_type_estimate", "g_matrix",
              "golden_slope", "parse_slope_spec", "slope_with_type"),
    "flow": ("INFINITY", "Segment", "cutting_sequence", "make_segment",
             "segments_intersect", "span_for_length_at_least", "trace"),
    "origami": ("ConeData", "Origami", "SurfacePoint", "automorphism_group",
                "builtin_genus2_L", "builtin_ornithorynque", "builtin_torus",
                "canonical_key", "canonical_point", "cone_data",
                "make_origami", "origami_from_text", "origami_to_text"),
    "perm": ("Permutation", "commutator"),
    "sl2": ("MAT_R", "MAT_T", "MAT_V", "AffineChart", "Mat2", "ReflectionMap",
            "act", "act_generator", "act_word", "decompose", "evaluate_word",
            "invert_word", "is_isomorphic", "orbit_enumerate",
            "projective_slope", "reflect_S", "stabilizer_certificate",
            "stretch_factor_squared"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}
# submodules that `__all__` exports by name
_SUBMODULES = ("cfrac", "errors", "flow", "origami", "perm", "sl2")

__all__ = sorted([*_SOURCE, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SOURCE:
        return getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
