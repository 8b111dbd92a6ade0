"""Length spectra, trace polynomials, and Busemann-cocycle checks for
hyperbolic surfaces."""

from .mobius import (
    BoundaryPoint,
    EllipticElement,
    IsometryClass,
    Mat2,
    NotHyperbolic,
    act,
    boundary_derivative,
    classify,
    fixed_points,
    translation_length,
)
from .surface_group import (
    ConjClassKey,
    Presentation,
    canonical_class,
    enumerate_classes,
    evaluate,
    free_reduce,
    relator,
)
from .fricke import (
    FrickeVector,
    SurfaceRep,
    fricke_from_rep,
    punctured_torus_sample,
    rep_from_fricke,
    schottky_sample,
)
from .characters import RminVerdict, TracePoly, rmin_pairs, rmin_test, trace_poly
from .spectrum import Pattern, pattern, scan_generic, spectrum, subrelation
from . import boundary

__version__ = "0.1.0"

__all__ = [
    "BoundaryPoint",
    "ConjClassKey",
    "EllipticElement",
    "FrickeVector",
    "IsometryClass",
    "Mat2",
    "NotHyperbolic",
    "Pattern",
    "Presentation",
    "RminVerdict",
    "SurfaceRep",
    "TracePoly",
    "act",
    "boundary",
    "boundary_derivative",
    "canonical_class",
    "classify",
    "enumerate_classes",
    "evaluate",
    "fixed_points",
    "free_reduce",
    "fricke_from_rep",
    "pattern",
    "punctured_torus_sample",
    "relator",
    "rep_from_fricke",
    "rmin_pairs",
    "rmin_test",
    "scan_generic",
    "schottky_sample",
    "spectrum",
    "subrelation",
    "trace_poly",
    "translation_length",
]
