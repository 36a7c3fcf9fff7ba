"""Square-tiled surfaces: exact flows, SL(2,Z) action, hitting-time lab."""

from .cfrac import (CFSlope, cf_expand, diophantine_type_estimate, g_matrix,
                    golden_slope, parse_slope_spec, slope_with_type)
from .flow import (INFINITY, Segment, cutting_sequence, make_segment,
                   segments_intersect, span_for_length_at_least, trace)
from .origami import (ConeData, Origami, SurfacePoint, builtin_genus2_L,
                      builtin_ornithorynque, builtin_torus, canonical_key,
                      canonical_point, cone_data, is_isomorphic, make_origami,
                      origami_from_text, origami_to_text)
from .origami import automorphism_group
from .perm import Permutation, commutator
from .sl2 import (MAT_R, MAT_T, MAT_V, AffineChart, Mat2, ReflectionMap, act,
                  act_generator, act_word, decompose, evaluate_word,
                  invert_word, orbit_enumerate, projective_slope, reflect_S,
                  stabilizer_certificate, stretch_factor_squared)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
