"""Ternary images of trace codes over the chain ring F_{3^m}[u]/(u^3 - 1).

`import cubicode` loads no submodule.  Each name of __all__ is imported
from its home module on first use (PEP 562), so the names of the
numpy-free modules, spec and closed_form, cost no numpy import.
"""

import importlib

__version__ = "0.1.0"

# home module: the public names it defines
_EXPORTS = {
    "bounds": ("BoundsVerdict", "DualWitness", "GriesmerReport", "dual_weight_search", "griesmer", "verdict"),
    "chain_ring": ("ChainRing", "DefiningSet", "defining_set", "get_ring"),
    "closed_form": ("WeightDistribution", "formula_distribution"),
    "gf3m": ("GF3m", "get_field"),
    "spec": ("CodeSpec", "code_length"),
    "sss": ("AccessStructure", "MinimalityReport", "access_structure", "massey_shares", "minimal_codewords", "reconstruct"),
    "trace_code": ("TernaryCode", "build_code", "export_generators", "gray_image"),
    "weight_dist": ("GaussPeriods", "charsum_distribution", "enumerate_distribution", "gauss_periods"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
