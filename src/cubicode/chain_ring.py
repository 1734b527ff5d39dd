"""The chain ring R_m = F_{3^m}[u]/(u^3 - 1): Gray map, Lee weight, defining sets.

Over F_3 we have u^3 - 1 = (u - 1)^3, so R_m is a local ring with maximal
ideal <u - 1> and ideal chain 0 < <(u-1)^2> < <u-1> < R_m.  Elements are
stored as standard-basis triples (a, b, c) meaning a + u b + u^2 c with
a, b, c integer-coded elements of F_{3^m}.

The basis {1, u-1, (u-1)^2} gives the "nilpotent coordinates"
(x1, x2, x3) = (a+b+c, b-c, c).  The first coordinate alone decides
invertibility, and the two defining sets live naturally in these
coordinates:

    lprime: x1 a nonzero square, x2 and x3 free   (index-2 unit subgroup)
    units:  x1 nonzero, x2 and x3 free            (all units)

Both sets are materialized in a canonical order: x1 ascending through its
allowed values, then x2, then x3, each in field element order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .gf3m import GF3m, get_field

Triple = tuple[int, int, int]

KIND_LPRIME = "lprime"
KIND_UNITS = "units"
KINDS = (KIND_LPRIME, KIND_UNITS)

# The one scope table: the largest extension degree m each exhaustive,
# materializing or closed-form computation accepts.  Enforced through require_scope.
SCOPE_MAX_M = {
    "defining set": 3,  # materialized as an (|L|, 3) array; bounds G and the dual certificate
    "exhaustive check": 2,  # injectivity, group action (every v in L), quasi-cyclic shift
    "enumeration": 3,
    "character sum": 2,
    "Gauss periods": 8,
    # formula and bounds: above this some exact output has more digits than
    # Python's default int-to-str limit (4300); units weights 2 * 3^{3m} do at m = 3004
    "closed form": 3003,
    # all 3^{3m} codewords; the minimality census, which never builds the table,
    # stays under the same cap: its class x class relation at m = 3 is 9841^2
    "codeword table": 2,
}


def require_scope(scope: str, m: int) -> None:
    """Raise ValueError when m lies above the cap SCOPE_MAX_M sets for scope."""
    limit = SCOPE_MAX_M[scope]
    if m > limit:
        raise ValueError(f"{scope}: supported for m <= {limit}, got m={m}")


class ChainRing:
    """Arithmetic in F_{3^m}[u]/(u^3 - 1) on coefficient triples."""

    zero: Triple = (0, 0, 0)
    one: Triple = (1, 0, 0)
    u: Triple = (0, 1, 0)
    u_squared: Triple = (0, 0, 1)

    def __init__(self, field: GF3m | int) -> None:
        self.field = field if isinstance(field, GF3m) else get_field(field)
        self.m = self.field.m
        self.size = self.field.q**3

    def __repr__(self) -> str:
        return f"ChainRing(m={self.m})"

    def elements(self):
        """All 3^{3m} triples, (a, b, c) ascending with a the major index."""
        return itertools.product(range(self.field.q), repeat=3)

    # -- ring operations -------------------------------------------------------

    def add(self, x: Triple, y: Triple) -> Triple:
        F = self.field
        return (F.add(x[0], y[0]), F.add(x[1], y[1]), F.add(x[2], y[2]))

    def neg(self, x: Triple) -> Triple:
        F = self.field
        return (F.neg(x[0]), F.neg(x[1]), F.neg(x[2]))

    def sub(self, x: Triple, y: Triple) -> Triple:
        return self.add(x, self.neg(y))

    def mul(self, x: Triple, y: Triple) -> Triple:
        # cyclic convolution of u-exponents, u^3 = 1
        a1, b1, c1 = x
        a2, b2, c2 = y
        F = self.field
        return (
            F.add(F.add(F.mul(a1, a2), F.mul(b1, c2)), F.mul(c1, b2)),
            F.add(F.add(F.mul(a1, b2), F.mul(b1, a2)), F.mul(c1, c2)),
            F.add(F.add(F.mul(a1, c2), F.mul(b1, b2)), F.mul(c1, a2)),
        )

    def scalar_mul(self, s: int, x: Triple) -> Triple:
        F = self.field
        return (F.mul(s, x[0]), F.mul(s, x[1]), F.mul(s, x[2]))

    def frobenius(self, x: Triple) -> Triple:
        F = self.field
        return (F.frobenius(x[0]), F.frobenius(x[1]), F.frobenius(x[2]))

    def trace(self, x: Triple) -> Triple:
        """Ring trace down to R_1, componentwise absolute field traces.

        Equal to the sum of the m Frobenius iterates of x; the result is a
        triple with entries in {0, 1, 2}.
        """
        F = self.field
        return (F.trace(x[0]), F.trace(x[1]), F.trace(x[2]))

    # -- structure ---------------------------------------------------------------

    def is_unit(self, x: Triple) -> bool:
        """x is invertible iff it avoids <u - 1>, i.e. a + b + c != 0."""
        F = self.field
        return F.add(F.add(x[0], x[1]), x[2]) != 0

    def to_nilpotent(self, x: Triple) -> Triple:
        """Coordinates (x1, x2, x3) over the basis {1, u-1, (u-1)^2}."""
        a, b, c = x
        F = self.field
        return (F.add(F.add(a, b), c), F.sub(b, c), c)

    def from_nilpotent(self, t: Triple) -> Triple:
        x1, x2, x3 = t
        F = self.field
        return (F.add(F.sub(x1, x2), x3), F.add(x2, x3), x3)

    # -- Gray map and Lee weight (base ring only) ---------------------------------

    def gray(self, x: Triple) -> Triple:
        """Gray image of a + u b + u^2 c, the ternary triple (a, b, c).

        In the coefficient representation this is the identity on triples;
        it is only defined on the base ring (m = 1).
        """
        if self.m != 1:
            raise ValueError("the Gray map is defined on the base ring (m = 1)")
        return tuple(x)

    def lee_weight(self, x: Triple) -> int:
        """Hamming weight of the Gray image; base ring only."""
        if self.m != 1:
            raise ValueError("Lee weight is defined on the base ring (m = 1)")
        return sum(1 for v in x if v)


@functools.lru_cache(maxsize=None)
def get_ring(m: int) -> ChainRing:
    return ChainRing(get_field(m))


# ---------------------------------------------------------------------------
# defining sets


@dataclass(frozen=True, eq=False)
class DefiningSet:
    """A multiplicatively closed coordinate set for the trace construction.

    nilpotent is a read-only (|L|, 3) int64 array of the (x1, x2, x3)
    coordinates, in the canonical order described in the module
    docstring; elements, the matching standard-coordinate triples, is
    built on first use.
    """

    kind: str
    m: int
    nilpotent: np.ndarray

    def __len__(self) -> int:
        return len(self.nilpotent)

    @functools.cached_property
    def elements(self) -> tuple[Triple, ...]:
        ring = get_ring(self.m)
        return tuple(ring.from_nilpotent(t) for t in map(tuple, self.nilpotent.tolist()))


def defining_set_size(m: int, kind: str) -> int:
    """|L| without materializing: (3^{3m} - 3^{2m}) / 2 for lprime, undivided for units."""
    if kind not in KINDS:
        raise ValueError(f"unknown defining set kind {kind!r}")
    units = 3 ** (3 * m) - 3 ** (2 * m)
    return units // 2 if kind == KIND_LPRIME else units


def code_length(m: int, kind: str) -> int:
    """Length of the ternary Gray image, N = 3|L|."""
    return 3 * defining_set_size(m, kind)


@functools.lru_cache(maxsize=None)
def defining_set(m: int, kind: str) -> DefiningSet:
    if kind not in KINDS:
        raise ValueError(f"unknown defining set kind {kind!r}")
    require_scope("defining set", m)
    F = get_field(m)
    x1_values = F.squares() if kind == KIND_LPRIME else tuple(range(1, F.q))
    axes = np.meshgrid(np.array(x1_values), np.arange(F.q), np.arange(F.q), indexing="ij")
    nil = np.stack(axes, axis=-1).reshape(-1, 3).astype(np.int64)
    nil.flags.writeable = False
    if len(nil) != defining_set_size(m, kind):
        raise ArithmeticError(f"materialized {len(nil)} elements, not |L| for m={m} {kind}")
    return DefiningSet(kind=kind, m=m, nilpotent=nil)
