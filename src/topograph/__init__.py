"""Arithmetic topographs: Conway's (3,inf) geometry over Z, the dilinear
(4,inf)/(6,inf) geometries over Z[sqrt(2)]/Z[sqrt(3)], Hermitian vertex cubes
over the Gaussian and Eisenstein integers, and class-group arithmetic tying
them together.

The public names below are loaded on first use (PEP 562), so that
``import topograph`` and each CLI subcommand import only the submodules
they need."""

import importlib

# public name -> the submodule that defines it
_HOME = {
    "BQF": "bqf",
    "CellValues": "bqf",
    "arrow": "bqf",
    "cell_values": "bqf",
    "classify": "bqf",
    "ClassGroupTable": "classgroup",
    "ambiguous_form_A": "classgroup",
    "compose": "classgroup",
    "enumerate_classes": "classgroup",
    "verify_red_blue": "classgroup",
    "diform_river": "diform",
    "diform_well": "diform",
    "BQD": "dilinear",
    "Divector": "dilinear",
    "Pinwheel": "dilinear",
    "TopographError": "errors",
    "BHF": "hermitian",
    "bhf_evaluate": "hermitian",
    "cube_values": "hermitian",
    "empirical_minimum": "hermitian",
    "Superbase": "lax",
    "normalize_superbase": "lax",
    "find_well": "reduction",
    "gauss_reduced": "reduction",
    "minimum_nonzero": "reduction",
    "pell_solve": "reduction",
    "riverbends": "reduction",
    "trace_river": "reduction",
    "emit_svg": "render",
    "layout": "render",
    "QRE": "rings",
}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
