"""Scaled planar reflections: canonical forms, orbits, stable sets, trace pairing.

``import symdyn`` loads no submodule. Each public name is imported from the
submodule that defines it on first use and then kept in this namespace
(PEP 562), so a one-shot caller pays only for the parts it reads.
"""

import importlib

# The public names, by the submodule that defines them; __all__ is this table.
_EXPORTS = {
    "core": (
        "DEFAULT_TOL", "ORIGIN", "NotOrthogonalError", "NotSymmetricError",
        "NotTraceZeroError", "Orthogonal2", "OrthogonalVariant", "Point2", "Tolerance",
        "TraceZeroSym2", "classify_orthogonal", "corollary_witness", "decompose",
        "matrix_from_params", "mod_2pi",
    ),
    "geometry": (
        "AxisLine", "Direction", "ReflectScale", "apply_T", "compose_rotation_reflection",
        "mod_pi", "point_on_line", "point_on_perpendicular", "reflect_point",
        "rotation_matrix",
    ),
    "dynamics": (
        "ConvergenceVerdict", "ConvergesTo", "DivergesToInfinity", "Finite", "Infinite",
        "NotConvergent", "OrbitRecord", "StableSet", "Topology", "cauchy_bound",
        "classify_convergence", "classify_orbit_cardinality", "distance_after_n",
        "distance_to_origin_after_n", "is_forward_asymptotic", "is_power_identity", "orbit",
        "power_T", "stable_set",
    ),
    "frobenius": (
        "SymMatN", "frobenius_inner", "is_in_psym", "is_scalar_matrix", "psym_dimension",
        "sym0_basis",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    # Importing a submodule binds it here too, so each runs at most once.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_OWNER[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
