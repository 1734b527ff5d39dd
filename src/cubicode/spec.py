"""Which code, and the rules on its parameters: the layer that needs no numpy.

A code is named by a CodeSpec(m, set_kind, layout).  This module holds
the spec, the defining set kinds and Gray layouts it may name, the one
scope table with its check, the one rule for a degree-like integer, and
the Gray length N = 3|L|, all in exact integers.  It imports nothing
but the standard library, and neither do closed_form, bounds (up to its
dual certificate) and cli (up to its handlers' array work), so the
closed-form commands answer without loading numpy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

KIND_LPRIME = "lprime"
KIND_UNITS = "units"
KINDS = (KIND_LPRIME, KIND_UNITS)

LAYOUT_INTERLEAVED = "interleaved"
LAYOUT_BLOCK = "block"
LAYOUTS = (LAYOUT_INTERLEAVED, LAYOUT_BLOCK)

# The one scope table: the largest extension degree m each exhaustive,
# materializing or closed-form computation accepts.  Enforced through require_scope.
SCOPE_MAX_M = {
    # the field F_{3^m} itself: the exp and log tables, and the (q, q) int16
    # mul_table and add_table, about 86 MB each at m = 8
    "extension degree": 8,
    # evaluated over its grid X1 x F x F; bounds G, the dual certificate, the
    # enumeration and the structural checks (linalg3.rank tests on G)
    "defining set": 3,
    "Gauss periods": 8,
    # formula and bounds: above this some exact output has more digits than
    # Python's default int-to-str limit (4300); units weights 2 * 3^{3m} do at m = 3004
    "closed form": 3003,
    # all 3^{3m} codewords
    "codeword table": 2,
    # the (classes, points) bool support matrix, which builds no codeword
    # table: at m = 3 units it is 9841 x 9477, about 93 MB
    "minimality census": 2,
}


def _integer(x) -> int | None:
    """x as a Python int, or None for bools and non-integers.

    operator.index accepts Python and numpy integers and refuses floats and
    numpy bools; Python bools are ints to it, so they are refused first.
    """
    if isinstance(x, bool):
        return None
    try:
        return operator.index(x)
    except TypeError:
        return None


def positive_integer(x, name: str = "m") -> int:
    """x as a Python int; ValueError unless it is a positive integer (not a bool)."""
    value = _integer(x)
    if value is None or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {x!r}")
    return value


def require_scope(scope: str, m: int) -> int:
    """m as a Python int; ValueError unless it is an integer (not a bool) in 1..SCOPE_MAX_M[scope]."""
    limit = SCOPE_MAX_M[scope]
    degree = positive_integer(m, f"{scope}: m")
    if degree > limit:
        raise ValueError(f"{scope}: supported for m <= {limit}, got m={m}")
    return degree


def defining_set_size(m: int, kind: str) -> int:
    """|L| without materializing: (3^{3m} - 3^{2m}) / 2 for lprime, undivided for units."""
    m = positive_integer(m)
    if kind not in KINDS:
        raise ValueError(f"unknown defining set kind {kind!r}")
    units = 3 ** (3 * m) - 3 ** (2 * m)
    return units // 2 if kind == KIND_LPRIME else units


def code_length(m: int, kind: str) -> int:
    """Length of the ternary Gray image, N = 3|L|."""
    return 3 * defining_set_size(m, kind)


@dataclass(frozen=True)
class CodeSpec:
    """Which code: extension degree, defining set kind, Gray layout."""

    m: int
    set_kind: str = "lprime"
    layout: str = LAYOUT_INTERLEAVED

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", positive_integer(self.m))  # frozen: a numpy int is stored as int
        if self.set_kind not in KINDS:
            raise ValueError(f"unknown defining set kind {self.set_kind!r}")
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
