"""Trace codes over the chain ring and their ternary Gray images.

For a defining set L the code is C = { ev(a) : a in R_m } with
ev(a) = (Tr(a x))_{x in L}, a length-|L| code over the base ring R_1.
Its Gray image is a ternary [3|L|, 3m] code.  Generator rows are the Gray
images of ev(g) for g running through the F_3-basis of R_m taken in the
order e_0, u e_0, u^2 e_0, e_1, u e_1, ... with e_i the field polynomial
basis.

Two coordinate layouts of the Gray image are supported:

    interleaved: (a_0, b_0, c_0, a_1, b_1, c_1, ...)
    block:       (a_0 .. a_{n-1}, b_0 .. b_{n-1}, c_0 .. c_{n-1})

In the block layout multiplication of the scalar by u becomes a cyclic
shift by n = |L| places, which is what check_quasicyclic certifies.
Only this module knows the layouts; elsewhere set positions map to image
positions through gray_positions.

Scalars are nilpotent indices and coordinates nilpotent triples.
EvalContext is the one evaluator of ev(a), straight from the field's
trace_mul_table; generators, enumeration and the structural checks all
go through it.  It evaluates over the defining set's grid L = X1 x F x F
in canonical order and holds only the x1 values: x3 enters Tr(a x) only
through tr(a1 x3), which takes three values, and every leading pair
(x1, x2) has its whole x3 fiber, so a Lee weight is counted per pair and
trace value, not per coordinate.  evaluate, the per-coordinate ring
arithmetic on standard triples, is kept as the independent reference the
tests compare EvalContext against.

The column lemma.  The nilpotent traces of a x are t1 = tr(a1 x1),
t2 = tr(a1 x2 + a2 x1) and t3 = tr(a1 x3 + a2 x2 + a3 x1), so the three
Gray slots of ev(a) at x, t1 - t2 + t3, t2 + t3 and t3, are each the
functional a -> sum_i tr(a_i v_i) of one vector v(x) in F^3:

    (x1 - x2 + x3, x2 - x1, x1),  (x2 + x3, x1 + x2, x1),  (x3, x2, x1).

Each x -> v(x) is triangular, with v3 = x1, v2 = x2 plus a multiple of
x1 and v1 = x3 plus terms in x1 and x2, so as x runs over
L = X1 x F x F each runs once over V = {v in F^3 : v3 in X1}.  So every
column of G is the functional of one v in V on ring_basis, and
wt(a) = 3 #{v in V : sum_i tr(a_i v_i) != 0}, which
weight_dist.charsum_distribution and formula_distribution stand on.

ev is F_3-linear, so every code here is the F_3 row space of its
generator matrix G, and the structural checks decide on G alone, by
linalg3.rank: injectivity is "the 3m basis images have rank 3m", and a
coordinate permutation pi maps the code onto itself iff
rank([G; G[:, pi]]) = rank(G); for the group action it suffices to check
the 2m + 1 generators of L.  All checks are exact, with no sampling, for
m <= 3.
G is evaluated once per (m, kind, layout) and shared, read-only, by
every TernaryCode that build_code returns for that spec; each code keeps
its own parties, reduction, recombination row and codeword table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg3
from .chain_ring import (
    KINDS,
    Triple,
    DefiningSet,
    allowed_x1,
    defining_set_generators,
    get_ring,
    require_scope,
)
from .gf3m import get_field, per_degree, positive_integer

LAYOUT_INTERLEAVED = "interleaved"
LAYOUT_BLOCK = "block"
LAYOUTS = (LAYOUT_INTERLEAVED, LAYOUT_BLOCK)


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


# ---------------------------------------------------------------------------
# evaluation


def evaluate(a: Triple, dset: DefiningSet) -> tuple[Triple, ...]:
    """The codeword ev(a) = (Tr(a x))_{x in L} as base-ring triples, a in standard coordinates."""
    ring = get_ring(dset.m)
    xs = map(ring.from_nilpotent, map(tuple, dset.nilpotent.tolist()))
    return tuple(ring.trace(ring.mul(a, x)) for x in xs)


def gray_image(word, layout: str) -> np.ndarray:
    """Flatten a base-ring word to its ternary Gray image in the given layout.

    A stack of words, shape (..., n, 3), maps to a stack of images.
    """
    arr = np.asarray(word, dtype=np.int8)
    if arr.ndim < 2 or arr.shape[-1] != 3:
        raise ValueError("expected a sequence of coefficient triples")
    shape = (*arr.shape[:-2], 3 * arr.shape[-2])
    if layout == LAYOUT_INTERLEAVED:
        return arr.reshape(shape)
    if layout == LAYOUT_BLOCK:
        return np.swapaxes(arr, -1, -2).reshape(shape).copy()
    raise ValueError(f"unknown layout {layout!r}")


def gray_positions(index: int, layout: str, n: int) -> tuple[int, int, int]:
    """Gray image positions of the triple at set position index, for |L| = n."""
    if layout == LAYOUT_INTERLEAVED:
        return (3 * index, 3 * index + 1, 3 * index + 2)
    if layout == LAYOUT_BLOCK:
        return (index, n + index, 2 * n + index)
    raise ValueError(f"unknown layout {layout!r}")


# The nilpotent traces before reduction, t1 < 3, t2 < 5 and t3 < 7, keyed
# 35 t1 + 7 t2 + t3: the standard trits of each key and their count.
_TRITS = np.array(
    [((t1 - t2 + t3) % 3, (t2 + t3) % 3, t3 % 3) for t1 in range(3) for t2 in range(5) for t3 in range(7)],
    dtype=np.int8,
)
_LEE = np.count_nonzero(_TRITS, axis=1).astype(np.int8)
_TRITS.flags.writeable = False
_LEE.flags.writeable = False
# _LEE_FROM[u, r] = _LEE[u + r]: a pair key u <= 102 plus the last trace term r < 3.
_LEE_FROM = np.lib.stride_tricks.sliding_window_view(_LEE, 3)


class EvalContext:
    """Bulk evaluation of Tr(a x) over the grid x1 x F x F.

    Scalars are indexed in nilpotent coordinates,
    index = (a1 * q + a2) * q + a3 for a = a1 + a2 (u-1) + a3 (u-1)^2,
    and the coordinates are the nilpotent triples (x1, x2, x3) with x1
    running through the given x1 values, in their order, then x2 and x3
    through [0, q): n = |x1| q^2 coordinates.  A defining set is such a
    grid, with X1 the nonzero squares or F^* (get_eval_context).  The
    ring trace acts componentwise in nilpotent coordinates, so with T the
    field's trace_mul_table the nilpotent traces of a x, the ring product,
    are, before reduction mod 3,

        t1 = T[a1, x1] < 3,
        t2 = T[a1, x2] + T[a2, x1] < 5,
        t3 = T[a1, x3] + T[a2, x2] + T[a3, x1] < 7,

    and Tr(a x) has standard coefficients (t1 - t2 + t3, t2 + t3, t3) mod 3.
    With A, B, C the rows T[a1], T[a2], T[a3], the mixed-radix key

        35 t1 + 7 t2 + t3 = (35 A + 7 B + C)[x1] + (7 A + B)[x2] + A[x3]

    lies in [0, 105), and a word is one lookup per coordinate in a
    105-row table of trits, _TRITS; _LEE counts their nonzero entries.
    Only the last term depends on x3, and only through a1, and every
    leading pair (x1, x2) has its whole x3 fiber, so a Lee weight is
    counted per pair and trace value, not per coordinate.  x1 is an
    owned, read-only copy: the context is shared through get_eval_context.
    """

    def __init__(self, m: int, x1) -> None:
        self.m = m
        self.field = get_field(m)
        self.q = q = self.field.q
        values = np.asarray(x1).reshape(-1)
        if values.size and (values.dtype.kind not in "iu" or values.min() < 0 or values.max() >= q):
            raise ValueError(f"x1 values must be integers in [0, q) = [0, {q})")
        self.x1 = values.astype(np.intp)  # a copy; np.asarray([]) is float64
        self.x1.flags.writeable = False
        self.n = len(self.x1) * q * q

    def _pair_keys(self, scalars) -> tuple[np.ndarray, np.ndarray]:
        """(U, A) for integer scalar indices in [0, q^3).

        U is the (len(scalars), |x1|, q) int8 key of each leading pair,
        (35 A + 7 B + C)[x1] + (7 A + B)[x2] = 35 t1 + 7 t2 + t3 - A[x3]
        (at most 102), and A the (len(scalars), q) rows T[a1], the last
        trace term of each x3.
        """
        q = self.q
        s = np.asarray(scalars).reshape(-1)
        if s.size and (s.dtype.kind not in "iu" or s.min() < 0 or s.max() >= q**3):
            raise ValueError(f"scalar indices must be integers in [0, 3^{3 * self.m}) = [0, {q**3})")
        s = s.astype(np.int64)
        T = self.field.trace_mul_table
        A, B, C = T[s // (q * q)], T[s // q % q], T[s % q]
        keys = (35 * A + 7 * B + C).take(self.x1, axis=1)[:, :, None] + (7 * A + B)[:, None, :]
        return keys, A

    def trace_triples(self, scalars) -> np.ndarray:
        """(len(scalars), n, 3) int8 words Tr(a x) for integer scalar indices in [0, q^3)."""
        U, A = self._pair_keys(scalars)
        return _TRITS.take(U[..., None] + A[:, None, None, :], axis=0).reshape(len(U), self.n, 3)

    def lee_weights(self, scalars) -> np.ndarray:
        """Lee weight of ev(a) per scalar index, as int64: the nonzero trits of trace_triples.

        Per scalar, the sum over pairs and r < 3 of _LEE[U[pair] + r]
        times #{x3 : A[x3] = r}, the same count for every pair.  With S
        scalars a call holds O(S |x1| q) int8 keys and does O(S |x1| q)
        work; no key per coordinate is formed.
        """
        U, A = self._pair_keys(scalars)
        counts = (A[:, :, None] == np.arange(3)).sum(axis=1)  # (S, 3)
        return (_LEE_FROM.take(U, axis=0).sum(axis=(1, 2)) * counts).sum(axis=1)


@per_degree(functools.partial(require_scope, "defining set"))
def get_eval_context(m: int, kind: str) -> EvalContext:
    """The context over the defining set L = X1 x F x F, in its canonical order."""
    return EvalContext(m, allowed_x1(get_field(m), kind))


# ---------------------------------------------------------------------------
# code construction


def ring_basis(m: int) -> tuple[int, ...]:
    """Nilpotent indices of the F_3-basis e_i, u e_i, u^2 e_i of R_m, grouped per i.

    With e = 3^i these are (e, 0, 0), (e, e, 0) and (e, 2e, e), as u^2 = 1 + 2(u-1) + (u-1)^2.
    """
    q = 3**m
    out = []
    for i in range(m):
        e = 3**i
        out += [e * q * q, (e * q + e) * q, (e * q + 2 * e) * q + e]
    return tuple(out)


class Reduction(NamedTuple):
    """The reduced row echelon form of a generator matrix G.

    With R its rank nonzero rows, pivots holds their pivot columns P (an
    int64 array; R[:, P] is the identity), planes the rows R bit-sliced by
    linalg3.pack and slot the first column j > 0 with R[0, j] != 0 (None
    if there is none).  float_rows and float_generators are R and G in
    float64, for BLAS products with trit vectors: each entry of such a
    product is an integer of at most 4N.
    """

    pivots: np.ndarray
    planes: list[linalg3.Planes]
    slot: int | None
    float_rows: np.ndarray
    float_generators: np.ndarray


class TernaryCode:
    """Ternary Gray image of a trace code, held as a generator matrix.

    parties, the positions 1 .. N-1 of the secret sharing scheme, is one
    tuple of ints per code, built on first use: the dealt shares and every
    minimal access set hold references to its int objects, not copies.
    recombination is sss.reconstruct's last (party mask, recombination
    row or None), so a party set met again skips its elimination.
    """

    def __init__(self, spec: CodeSpec, generators: np.ndarray) -> None:
        self.spec = spec
        self.generators = generators
        self.dimension, self.length = generators.shape
        self.layout = spec.layout
        self._codewords: np.ndarray | None = None
        self._reduction: Reduction | None = None
        self.recombination: tuple[int, linalg3.Planes | None] | None = None

    def __repr__(self) -> str:
        return (
            f"TernaryCode(N={self.length}, k={self.dimension}, "
            f"m={self.spec.m}, set={self.spec.set_kind}, layout={self.layout})"
        )

    def codewords(self) -> np.ndarray:
        """All 3^k codewords; message index digits are little-endian row coefficients.

        Built in int8, one generator row at a time: the words with digit
        i set to 0, 1, 2 are the words so far plus 0, g_i, 2 g_i.
        """
        if self._codewords is None:
            require_scope("codeword table", self.spec.m)
            words = np.zeros((3**self.dimension, self.length), dtype=np.int8)
            for i, g in enumerate(self.generators):
                size = 3**i
                for digit in (1, 2):
                    words[digit * size : (digit + 1) * size] = (words[:size] + digit * g) % 3
            self._codewords = words
        return self._codewords

    def reduction(self) -> Reduction:
        """The reduced row echelon form of the generators, computed once."""
        if self._reduction is None:
            reduced, pivots = linalg3.row_reduce(self.generators)
            rows = reduced[: len(pivots)]
            slots = (np.flatnonzero(rows[:1, 1:]) + 1).tolist()
            self._reduction = Reduction(
                np.array(pivots, dtype=np.int64),
                linalg3.pack(rows),
                slots[0] if slots else None,
                rows.astype(np.float64),
                self.generators.astype(np.float64),
            )
        return self._reduction

    @functools.cached_property
    def parties(self) -> tuple[int, ...]:
        """The party positions 1 .. N-1."""
        return tuple(range(1, self.length))


def _generator_matrix(ctx: EvalContext, layout: str) -> np.ndarray:
    """Gray images of ev(g) for the ring basis g, one row per basis element."""
    return gray_image(ctx.trace_triples(ring_basis(ctx.m)), layout)


@functools.lru_cache(maxsize=None)
def _cached_generators(m: int, kind: str, layout: str) -> np.ndarray:
    G = _generator_matrix(get_eval_context(m, kind), layout)
    G.flags.writeable = False
    return G


def build_code(spec: CodeSpec) -> TernaryCode:
    """A fresh code on the spec's cached, read-only generator matrix G."""
    return TernaryCode(spec, _cached_generators(spec.m, spec.set_kind, spec.layout))


def export_generators(code: TernaryCode) -> str:
    """Plain text generator matrix: a header line, then one trit row per generator."""
    header = (
        f"# ternary code N={code.length} k={code.dimension} "
        f"layout={code.layout} m={code.spec.m} set={code.spec.set_kind}"
    )
    rows = ["".join(str(int(t)) for t in row) for row in code.generators]
    return "\n".join([header, *rows]) + "\n"


# ---------------------------------------------------------------------------
# structural checks


def check_injectivity(spec: CodeSpec) -> bool:
    """Decide whether a -> ev(a) separates all 3^{3m} scalars.

    ev is F_3-linear, so it is injective iff the images of the 3m basis
    scalars, the rows of the cached G, have rank 3m.
    """
    return linalg3.rank(build_code(CodeSpec(spec.m, spec.set_kind)).generators) == 3 * spec.m


def coordinate_permutation(spec: CodeSpec, v: Triple) -> np.ndarray:
    """Index permutation of the defining set induced by x -> v x.

    perm[i] is the position of v * x_i, v in nilpotent coordinates; v must
    lie in the set's multiplicative stabilizer (any set element qualifies).
    The x_i run over the evaluator's grid X1 x F x F, the columns of G.
    """
    ctx = get_eval_context(spec.m, spec.set_kind)
    q, MUL, ADD = ctx.q, ctx.field.mul_table, ctx.field.add_table
    x1_rank = np.full(q, -1, dtype=np.int64)
    x1_rank[ctx.x1] = np.arange(len(ctx.x1))
    x1, x2, x3 = ctx.x1[:, None, None], np.arange(q)[:, None], np.arange(q)
    v1, v2, v3 = v
    p1 = MUL[v1, x1]
    p2 = ADD[MUL[v1, x2], MUL[v2, x1]]
    p3 = ADD[ADD[MUL[v1, x3], MUL[v2, x2]], MUL[v3, x1]]
    r1 = x1_rank[p1]
    if (r1 < 0).any():
        raise ValueError("multiplication by v does not stabilize the defining set")
    return ((r1 * q + p2) * q + p3).reshape(-1)


def _stays_in_code(G: np.ndarray, perms) -> bool:
    """True iff G[:, perm] lies in the F_3 row space of G for every perm.

    It does iff stacking it under G keeps the rank; a permutation keeps
    the dimension, so "maps into the code" is "maps onto the code".  G
    is packed once, and only G[:, perm] per permutation.
    """
    planes = linalg3.pack(G)
    k = len(linalg3.eliminate(planes)[1])
    return all(len(linalg3.eliminate(planes + linalg3.pack(G[:, perm]))[1]) == k for perm in perms)


def check_group_action(spec: CodeSpec) -> bool:
    """True iff for every v in L the permutation x -> v x maps the code into itself.

    Decided on the 2m + 1 generators of L (defining_set_generators) and
    the interleaved generator matrix; the spec's layout plays no part.
    """
    G = build_code(CodeSpec(spec.m, spec.set_kind)).generators
    slots = np.arange(3)
    perms = (
        (3 * coordinate_permutation(spec, v)[:, None] + slots).reshape(-1)
        for v in defining_set_generators(spec.m, spec.set_kind)
    )
    return _stays_in_code(G, perms)


def check_quasicyclic(spec: CodeSpec) -> bool:
    """True iff the block-layout image is invariant under a cyclic shift by |L|."""
    if spec.layout != LAYOUT_BLOCK:
        raise ValueError("the shift certification is defined for the block layout")
    G = build_code(spec).generators
    N = G.shape[1]
    return _stays_in_code(G, [np.roll(np.arange(N), N // 3)])
