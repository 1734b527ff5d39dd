"""Minimal codewords and the secret sharing scheme built on the code.

A nonzero codeword c covers another nonzero codeword c' when the support
of c' is contained in that of c.  c is minimal when it covers only its
own scalar multiples.  The sufficient condition used as a screen is
3 w_min > 2 w_max over nonzero weights; when it holds, every nonzero
codeword is minimal, and the exhaustive check enforces that as an
invariant.  Minimality is a property of the projective class {c, 2c},
so the search runs over class representatives.  Supports depend only on
which projective points of PG(k-1, 3) the columns of G are, so the
census runs on one boolean (classes, points) matrix, never on the
codeword table.  The class representatives, their digit rows and the map
from a vector's label to its point's are one read-only table per
dimension k, built on the first census of that k and shared by every
code of it (both kinds at one m, and access_structure), so labelling
G's columns is one lookup.  Nor does the census test all pairs of
classes: a class can only be covered by one of smaller weight or by one
with the same support, so equal rows are found by sorting and each
weight level is tested against the levels below it.

The scheme is Massey's, built on the dual code C^perp with distinguished
coordinate 0: the dealer draws a uniform x in C^perp with x_0 = secret
and hands x_1 .. x_{N-1} to the parties at those coordinates.  A party
set T is qualified iff some codeword c of C with c_0 = 1 is zero off
{0} and T; then c . x = 0 gives the secret as -sum_t c_t x_t.  So the
minimal access sets are the supports (minus coordinate 0) of the
minimal codewords of C whose coordinate 0 is nonzero, which is what
access_structure lists.  Both directions read one reduction of G cached
on the code.  Dealing solves G x = 0 on its pivot columns with float64
BLAS products of trits, exact because every entry is an integer of at
most 4N, far below 2^53.  Reconstruction is one masked
`linalg3.eliminate` of the bit-sliced rows, which yields the
recombination row c of the party set, and an inner product by popcounts.
c depends on the party set alone, so the code keeps the last (party
mask, c) and a run of calls on one set eliminates once.  A party is one
int object per code, code.parties[p - 1]: the share dicts are keyed on
them and every minimal access set holds references to them, so an entry
costs a tuple slot, not a new int.

Parties in every minimal access set are dictators; because the Gray
image repeats generator columns (the triple at a set position x
reappears rotated at ux and u^2 x), dictators always exist here.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import linalg3
from .spec import require_scope
from .trace_code import TernaryCode


# ---------------------------------------------------------------------------
# minimal codewords


@dataclass(frozen=True)
class MinimalityReport:
    """Exhaustive minimality census over projective classes.

    non_minimal_classes lists the representative message indices (the
    smaller of the pair encoding {c, 2c}) of classes that cover some
    other class.
    """

    ab_ratio_holds: bool
    minimal_count: int
    non_minimal_classes: tuple[int, ...]
    convention: str = "up to scalar multiples"


def ab_condition(weights: Iterable[int]) -> bool:
    """3 w_min > 2 w_max over the nonzero weights (or a distribution's entries).

    False when no weight is nonzero: the screen then certifies nothing.
    """
    nz = [w for w in weights if w > 0]
    return bool(nz) and 3 * min(nz) > 2 * max(nz)


@functools.cache
def _point_table(k: int) -> tuple[np.ndarray, ...]:
    """The census's read-only arrays for dimension k, built on first use and shared by every code of that k.

    A vector v of F_3^k has the label sum v_i 3^i, and its projective
    point {v, 2v} the smaller label of the two.  The point labels are the
    class representatives too: a message y and a column g are both
    vectors of F_3^k, and {y, 2y} is one class.  Returns

        place   float32 3^i, so place @ g is the label of a column g;
        normal  label -> the label of its point;
        reps    the nonzero point labels ascending, one message index per class;
        rows    float32 (classes, k), the digits of each representative;
        digits  float32 (k, 3^k), column v the digits of label v.
    """
    # column v holds the base-3 digits of v, least significant first
    digits = np.indices((3,) * k, dtype=np.uint8)[::-1].reshape(k, -1)
    place = 3 ** np.arange(k)
    labels = np.arange(3**k)
    normal = np.minimum(labels, place @ (2 * digits % 3))
    reps = np.flatnonzero(normal == labels)[1:]
    table = (
        place.astype(np.float32),
        normal,
        reps,
        digits.T[reps].astype(np.float32),
        digits.astype(np.float32),
    )
    for array in table:
        array.flags.writeable = False
    return table


def _census(code: TernaryCode):
    """The census on the projective points of the columns of G.

    (yG)_j = y . g_j is nonzero iff y . p_j is, for p_j either vector of
    the point {g_j, 2g_j}; a zero column is point 0, in no support.  The
    classes, their digit rows and the map from a column's label to its
    point's come from _point_table(k), so labelling the columns is one
    lookup, normal[place @ G].  With S[y, p] = (y . p != 0) over
    the representatives y and the distinct points p, the supports are
    S[:, point], and supp_j lies in supp_i iff it does on the points.
    The weights are the rows of S times the point multiplicities; they
    feed the screen and split the classes into levels.  A point in a
    support has multiplicity at least 1, so supp_j lies strictly inside
    supp_i only if wt_j < wt_i.  Class i is therefore non-minimal iff
    another class has its support (an equal packed row at the same
    weight) or some class of a smaller weight lies inside it, and each
    level is tested only against the levels below it.

    Returns the report, the representatives, the mask of minimal classes,
    S and the point index of each column.
    """
    require_scope("minimality census", code.spec.m)
    place, normal, reps, rows, digits = _point_table(code.dimension)
    # exact in float32 while 3^k stays below 2^24
    labels = normal[(place @ code.generators).astype(np.intp)]
    # the distinct points ascending, each column's rank among them, and
    # each point's multiplicity
    count = np.bincount(labels, minlength=len(normal))
    present = count != 0
    points = np.flatnonzero(present)
    column_point = (np.cumsum(present) - 1)[labels]
    # both BLAS operands C-contiguous: a transposed one is several times slower
    p = np.take(digits, points, axis=1)
    # every entry of rows @ p is an integer at most 4k (below 256 for any k whose
    # 3^k classes fit in memory), so float32 and uint8 hold it exactly; 171 is
    # the inverse of 3 mod 256, which maps the multiples of 3 below 256 onto
    # 0..85 and every other byte above 85
    support = (rows @ p).astype(np.uint8) * np.uint8(171) > 85
    # exact in float32 while the length N stays below 2^24
    weight = (support.astype(np.float32) @ count[points].astype(np.float32)).astype(np.int64)
    packed = np.packbits(support, axis=1)
    # words[w, i] is the w-th uint64 word of row i, the bytes zero-padded to
    # whole words; after the sort the weights ascend and equal rows are
    # neighbours
    words = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    words = words.view(np.uint64).T
    order = np.lexsort((*words, weight))
    words = words[:, order]
    weight = weight[order]
    same = (words[:, 1:] == words[:, :-1]).all(axis=0)
    covered = np.zeros(len(reps), dtype=bool)
    covered[1:] |= same
    covered[:-1] |= same
    # row j lies inside row i iff words_j & ~words_i is 0 in every word
    edges = [*(np.flatnonzero(weight[1:] != weight[:-1]) + 1).tolist(), len(reps)]
    for lo, hi in zip(edges, edges[1:]):
        outside = ~words[:, lo:hi, None]
        spill = words[0, :lo] & outside[0]
        for word, out in zip(words[1:, :lo], outside[1:]):
            spill |= word & out
        covered[lo:hi] |= (spill == 0).any(axis=1)
    minimal = np.empty(len(reps), dtype=bool)
    minimal[order] = ~covered
    holds = ab_condition(weight.tolist())
    # the screen speaks of nonzero codewords only.  A class of weight 0
    # exists exactly when G is rank-deficient, and then y and y + z, for z
    # in the kernel of y -> yG, are one codeword and cover each other
    if holds and weight[0] > 0 and not minimal.all():
        raise RuntimeError(
            "weight-ratio screen guarantees all-minimal, but covering pairs exist"
        )
    report = MinimalityReport(
        ab_ratio_holds=holds,
        minimal_count=int(minimal.sum()),
        non_minimal_classes=tuple(reps[~minimal].tolist()),
    )
    return report, reps, minimal, support, column_point


def minimality_report(code: TernaryCode) -> MinimalityReport:
    """The census alone, without the supports minimal_codewords gathers."""
    return _census(code)[0]


def minimal_codewords(code: TernaryCode) -> tuple[MinimalityReport, dict[int, np.ndarray]]:
    """Exhaustively classify projective classes as minimal or covered.

    Returns the census and a map from representative message index to the
    class support, a boolean row of length N.  Class i covers class j != i
    iff supp_j lies inside supp_i.
    """
    report, reps, _, support, column_point = _census(code)
    return report, dict(zip(reps.tolist(), support[:, column_point]))


# ---------------------------------------------------------------------------
# secret sharing


@dataclass(frozen=True)
class AccessStructure:
    """The minimal access sets, ordered by size then lexicographically, and
    the dictators (parties in every set).  Every party in them is the
    code's shared int object from code.parties.
    """

    secret_position: int
    minimal_access_sets: tuple[tuple[int, ...], ...]
    dictators: tuple[int, ...]
    convention: str = "minimal codewords with a nonzero secret coordinate"


def access_structure(code: TernaryCode) -> AccessStructure:
    """Minimal access sets and dictator parties of the scheme on this code."""
    _, _, minimal, support, column_point = _census(code)
    # distinct minimal classes have distinct supports (equal ones cover each
    # other); each row stays on the points and is gathered onto the parties'
    # columns alone, so no (sets, N - 1) matrix is formed
    rows = support[minimal & support[:, column_point[0]]]
    party_point = column_point[1:]
    # an object array over the shared tuple gathers references, not new ints
    parties = np.array(code.parties, dtype=object)
    sets = (tuple(parties[row[party_point]].tolist()) for row in rows)
    ordered = tuple(sorted(sets, key=lambda s: (len(s), s)))
    dictators = ()
    if len(rows):
        dictators = tuple(parties[np.logical_and.reduce(rows)[party_point]].tolist())
    return AccessStructure(
        secret_position=0, minimal_access_sets=ordered, dictators=dictators
    )


# row b holds the five base-3 digits of the byte value b < 243 = 3^5
_DIGITS = ((np.arange(243)[:, None] // 3 ** np.arange(5)) % 3).astype(np.int8)


def _trits(rng: random.Random, count: int) -> np.ndarray:
    """count uniform trits from random bytes: a byte below 243 gives its five
    base-3 digits, and the other bytes are rejected."""
    chunks, have = [], 0
    while have < count:
        nbytes = (count - have) // 4 + 8  # 5 trits a byte, about 5% rejected
        raw = rng.getrandbits(8 * nbytes).to_bytes(nbytes, "little")
        raw = np.frombuffer(raw, dtype=np.uint8)
        chunks.append(_DIGITS[raw[raw < 243]].reshape(-1))
        have += chunks[-1].size
    return np.concatenate(chunks)[:count]


def massey_shares(code: TernaryCode, secret: int, seed: int | None = None) -> dict[int, int]:
    """Shares {position: trit} for parties 1 .. N-1 from a random dual codeword.

    x is uniform among the words of C^perp with x_0 = secret.  With R the
    reduced rows of G and P their pivot columns, G x = 0 iff
    x[P] = -R[:, F] x[F] on the free columns F.  Column 0 is the first
    pivot, so x_0 = -R[0, F] x[F]: every free coordinate but one j with
    R[0, j] != 0 is drawn at random, and x_j is solved for so that
    x_0 = secret.  The trits come from random.Random(seed).  R x and the
    check G x = 0 are float64 products with the float copies the cached
    reduction keeps; every entry is an integer of at most 4N, so both are
    exact.
    """
    if isinstance(secret, bool) or secret not in (0, 1, 2):
        raise ValueError("the secret must be a trit")
    red = code.reduction()
    if not len(red.pivots) or red.pivots[0] != 0:
        raise ValueError("column 0 of the generator matrix is zero; no secret slot")
    # R[0, P] is e_0, so the nonzero columns of row 0 after column 0 are free
    j = red.slot
    if j is None:
        raise ValueError("e_0 is a codeword, so every dual codeword is 0 at position 0")
    # the draws at the pivot columns are discarded
    x = _trits(random.Random(seed), code.length)
    x[red.pivots] = 0
    x[j] = 0
    # with x[P] = 0 and x_j = 0, R x sums the other free columns; a nonzero
    # trit is its own inverse.  The float64 products are exact: each entry
    # is an integer of at most 4N, far below 2^53
    partial = red.float_rows @ x
    x[j] = (-int(red.float_rows[0, j]) * (secret + int(partial[0]))) % 3
    x[red.pivots] = -(partial + red.float_rows[:, j] * x[j]) % 3
    if x[0] != secret or ((red.float_generators @ x) % 3).any():
        raise ArithmeticError("the sampled word is not a dual codeword carrying the secret")
    return dict(zip(code.parties, x[1:].tolist()))


def _all_ints(values) -> bool:
    """Whether every value is exactly an int, not a bool, float, str or numpy scalar."""
    return list(map(type, values)).count(int) == len(values)


def reconstruct(shares: dict[int, int], code: TernaryCode) -> int:
    """Recover the secret from the shares of a qualified party set T.

    The codewords of C that are zero off {0} and T are the row-space words
    vanishing on the other columns S, so one elimination of the cached
    reduced rows with pivots restricted to S leaves rows spanning them.
    One with a nonzero coordinate 0, scaled to c_0 = 1, is the
    recombination row c, and the secret is -sum_t c_t x_t.  c depends on
    T alone, not on the shares, so the code keeps the last (party mask, c)
    in code.recombination and a call with the same party set reuses it.
    Raises ValueError when a position is not an int in 1 .. N-1, a share
    is not an int in 0 .. 2, or T is not qualified (no left-over row is
    nonzero at 0).
    """
    if not shares:
        raise ValueError("no shares given")
    keys, values = shares.keys(), shares.values()
    try:
        positions = np.fromiter(keys, dtype=np.int64, count=len(keys)) if _all_ints(keys) else None
    except OverflowError:
        positions = None
    if positions is None or positions.min() < 1 or positions.max() >= code.length:
        raise ValueError("share positions must be ints in 1 .. N-1")
    try:
        # bytearray() refuses an int below 0 or above 255
        trits = np.frombuffer(bytearray(values), dtype=np.uint8) if _all_ints(values) else None
    except ValueError:
        trits = None
    if trits is None or trits.max() > 2:
        raise ValueError("share values must be trits")
    party = np.zeros(code.length, dtype=bool)
    party[positions] = True
    party[0] = True
    mask = linalg3.bits(party)
    cached = code.recombination
    if cached is None or cached[0] != mask:
        # ~mask allows every column off {0} and T
        _, _, rest = linalg3.eliminate(code.reduction().planes, ~mask)
        c = next((row for row in rest if (row[0] | row[1]) & 1), None)
        if c is not None and c[1] & 1:
            c = (c[1], c[0])
        code.recombination = cached = (mask, c)
    c = cached[1]
    if c is None:
        raise ValueError("the given party set cannot reconstruct the secret")
    x = np.zeros(code.length, dtype=np.uint8)
    x[positions] = trits
    return -linalg3.dot(c, (linalg3.bits(x == 1), linalg3.bits(x == 2))) % 3
