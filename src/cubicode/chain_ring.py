"""The chain ring R_m = F_{3^m}[u]/(u^3 - 1) and its defining sets.

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

from .gf3m import GF3m, get_field, per_degree, positive_integer

Triple = tuple[int, int, int]

KIND_LPRIME = "lprime"
KIND_UNITS = "units"
KINDS = (KIND_LPRIME, KIND_UNITS)

# The one scope table: the largest extension degree m each exhaustive,
# materializing or closed-form computation accepts.  Enforced through require_scope.
SCOPE_MAX_M = {
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


def require_scope(scope: str, m: int) -> int:
    """m as a Python int; ValueError unless it is an integer (not a bool) in 1..SCOPE_MAX_M[scope]."""
    limit = SCOPE_MAX_M[scope]
    degree = positive_integer(m, f"{scope}: m")
    if degree > limit:
        raise ValueError(f"{scope}: supported for m <= {limit}, got m={m}")
    return degree


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


@per_degree()
def get_ring(m: int) -> ChainRing:
    return ChainRing(get_field(m))


# ---------------------------------------------------------------------------
# defining sets


@dataclass(frozen=True, eq=False)
class DefiningSet:
    """A multiplicatively closed coordinate set for the trace construction.

    nilpotent is a read-only (|L|, 3) int64 array of the (x1, x2, x3)
    coordinates, in the canonical order described in the module
    docstring.
    """

    kind: str
    m: int
    nilpotent: np.ndarray

    def __len__(self) -> int:
        return len(self.nilpotent)


def allowed_x1(field: GF3m, kind: str) -> tuple[int, ...]:
    """The first nilpotent coordinates of L, ascending: nonzero squares (lprime) or F^*.

    The one map from a kind to X1; ValueError on an unknown kind.
    """
    if kind == KIND_LPRIME:
        return field.squares()
    if kind == KIND_UNITS:
        return tuple(range(1, field.q))
    raise ValueError(f"unknown defining set kind {kind!r}")


def defining_set_generators(m: int, kind: str) -> tuple[Triple, ...]:
    """2m + 1 nilpotent triples generating L = <gamma> x U, U = {(1, y, z)}.

    gamma generates the allowed x1 (g^2 for lprime, g for units, g the
    primitive element).  (1, y, z)(1, y', z') = (1, y + y', z + z' + y y'),
    so (1, e_i, 0) and (1, 0, e_i) over the field basis e_i = 3^i generate U.
    """
    F = get_field(m)
    gamma = F.pow(F.generator, (F.q - 1) // len(allowed_x1(F, kind)))
    basis = [3**i for i in range(m)]
    return ((gamma, 0, 0), *((1, e, 0) for e in basis), *((1, 0, e) for e in basis))


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


@per_degree(functools.partial(require_scope, "defining set"))
def defining_set(m: int, kind: str) -> DefiningSet:
    """The defining set L of the kind at degree m, materialized in canonical order.

    The (|X1|, q, q, 3) grid of nilpotent triples is written by
    broadcasting into one read-only (|L|, 3) int64 array.
    """
    F = get_field(m)
    q = F.q
    x1 = np.array(allowed_x1(F, kind), dtype=np.int64)
    nil = np.empty((len(x1) * q * q, 3), dtype=np.int64)
    grid = nil.reshape(len(x1), q, q, 3)
    grid[..., 0] = x1[:, None, None]
    grid[..., 1] = np.arange(q)[:, None]
    grid[..., 2] = np.arange(q)
    nil.flags.writeable = False
    if len(nil) != defining_set_size(m, kind):
        raise ArithmeticError(f"materialized {len(nil)} elements, not |L| for m={m} {kind}")
    return DefiningSet(kind=kind, m=m, nilpotent=nil)
