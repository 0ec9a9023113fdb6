"""Arithmetic topographs: Conway's (3,inf) geometry over Z, the dilinear
(4,inf)/(6,inf) geometries over Z[sqrt(2)]/Z[sqrt(3)], Hermitian vertex cubes
over the Gaussian and Eisenstein integers, and class-group arithmetic tying
them together."""

from .bqf import BQF, CellValues, arrow, cell_values, classify
from .classgroup import (
    ClassGroupTable,
    ambiguous_form_A,
    compose,
    enumerate_classes,
    verify_red_blue,
)
from .diform import BQD, Divector, Pinwheel, diform_river, diform_well
from .errors import TopographError
from .hermitian import BHF, bhf_evaluate, cube_values, empirical_minimum
from .lax import Superbase, normalize_superbase, verify_simple_transitivity
from .reduction import (
    find_well,
    gauss_reduced,
    minimum_nonzero,
    pell_solve,
    riverbends,
    trace_river,
)
from .render import emit_svg, layout
from .rings import QRE

__all__ = [
    "BHF",
    "BQD",
    "BQF",
    "CellValues",
    "ClassGroupTable",
    "Divector",
    "Pinwheel",
    "QRE",
    "Superbase",
    "TopographError",
    "ambiguous_form_A",
    "arrow",
    "bhf_evaluate",
    "cell_values",
    "classify",
    "compose",
    "cube_values",
    "diform_river",
    "diform_well",
    "emit_svg",
    "empirical_minimum",
    "enumerate_classes",
    "find_well",
    "gauss_reduced",
    "layout",
    "minimum_nonzero",
    "normalize_superbase",
    "pell_solve",
    "riverbends",
    "trace_river",
    "verify_red_blue",
    "verify_simple_transitivity",
]
