"""Minimal codewords and the secret sharing scheme built on the code.

A nonzero codeword c covers another nonzero codeword c' when the support
of c' is contained in that of c.  c is minimal when it covers only its
own scalar multiples.  The sufficient condition used as a screen is
3 w_min > 2 w_max over nonzero weights; when it holds, every nonzero
codeword is minimal, and the exhaustive check enforces that as an
invariant.  Minimality is a property of the projective class {c, 2c},
so the search runs over class representatives, whose supports are the
rows of one boolean (classes, N) matrix; the screen reads its row
weights and the access structure its rows.

The scheme is Massey's, built on the dual code C^perp with distinguished
coordinate 0: the dealer draws a uniform x in C^perp with x_0 = secret
and hands x_1 .. x_{N-1} to the parties at those coordinates.  A party
set T is qualified iff some codeword c of C with c_0 = 1 is zero off
{0} and T; then c . x = 0 gives the secret as -sum_t c_t x_t.  So the
minimal access sets are the supports (minus coordinate 0) of the
minimal codewords of C whose coordinate 0 is nonzero, which is what
access_structure lists.  Both directions read one reduction of G cached
on the code: dealing solves G x = 0 on its pivot columns, and
reconstruction is one masked `linalg3.eliminate` of its bit-sliced rows
and an inner product by popcounts.

Parties in every minimal access set are dictators; because the Gray
image repeats generator columns (the triple at a set position x
reappears rotated at ux and u^2 x), dictators always exist here.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import linalg3
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
    """3 w_min > 2 w_max over the nonzero weights (or a distribution's entries)."""
    nz = [w for w in weights if w > 0]
    return 3 * min(nz) > 2 * max(nz)


def _class_representatives(k: int) -> np.ndarray:
    """Ascending message indices representing each projective class {c, 2c}, c != 0."""
    digits = 3 ** np.arange(k)
    msgs = np.arange(1, 3**k)
    partners = (2 * (msgs[:, None] // digits) % 3) @ digits
    return msgs[msgs <= partners]


def minimal_codewords(code: TernaryCode) -> tuple[MinimalityReport, dict[int, np.ndarray]]:
    """Exhaustively classify projective classes as minimal or covered.

    Returns the census and a map from representative message index to the
    class support, a boolean row of length N (a row of one (classes, N)
    support matrix).  Class i covers class j != i iff supp_j lies inside
    supp_i, tested on packed bits.
    """
    reps = _class_representatives(code.dimension)
    rows = code.codewords()[reps] != 0
    packed = np.packbits(rows, axis=1)
    # row i covers itself, so it is non-minimal iff it covers some other row,
    # including a distinct class with the same support
    non_minimal = [
        i
        for i, row in zip(reps.tolist(), packed)
        if np.count_nonzero(~(packed & ~row).any(axis=1)) > 1
    ]
    holds = ab_condition(rows.sum(axis=1).tolist())
    if holds and non_minimal:
        raise RuntimeError(
            "weight-ratio screen guarantees all-minimal, but covering pairs exist"
        )
    report = MinimalityReport(
        ab_ratio_holds=holds,
        minimal_count=len(reps) - len(non_minimal),
        non_minimal_classes=tuple(non_minimal),
    )
    return report, dict(zip(reps.tolist(), rows))


# ---------------------------------------------------------------------------
# secret sharing


@dataclass(frozen=True)
class AccessStructure:
    secret_position: int
    minimal_access_sets: tuple[tuple[int, ...], ...]
    dictators: tuple[int, ...]
    convention: str = "minimal codewords with a nonzero secret coordinate"


def access_structure(code: TernaryCode) -> AccessStructure:
    """Minimal access sets and dictator parties of the scheme on this code."""
    report, support = minimal_codewords(code)
    excluded = set(report.non_minimal_classes)
    sets = {
        tuple((np.flatnonzero(row[1:]) + 1).tolist())
        for i, row in support.items()
        if row[0] and i not in excluded
    }
    ordered = tuple(sorted(sets, key=lambda s: (len(s), s)))
    if ordered:
        dictators_set = set(ordered[0])
        for s in ordered[1:]:
            dictators_set &= set(s)
        dictators = tuple(sorted(dictators_set))
    else:
        dictators = ()
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
    x_0 = secret.  The trits come from random.Random(seed).
    """
    if isinstance(secret, bool) or secret not in (0, 1, 2):
        raise ValueError("the secret must be a trit")
    red = code.reduction()
    if not red.pivots or red.pivots[0] != 0:
        raise ValueError("column 0 of the generator matrix is zero; no secret slot")
    # R[0, P] is e_0, so the nonzero columns of row 0 after column 0 are free
    slots = np.flatnonzero(red.rows[0, 1:])
    if len(slots) == 0:
        raise ValueError("e_0 is a codeword, so every dual codeword is 0 at position 0")
    j = int(slots[0]) + 1
    # the draws at the pivot columns are discarded
    x = _trits(random.Random(seed), code.length).astype(np.int64)
    x[red.pivots] = 0
    x[j] = 0
    # with x[P] = 0 and x_j = 0, R x sums the other free columns; a nonzero
    # trit is its own inverse
    partial = red.rows @ x
    x[j] = (-int(red.rows[0, j]) * (secret + partial[0])) % 3
    x[red.pivots] = -(partial + red.rows[:, j] * x[j]) % 3
    if x[0] != secret or ((code.generators @ x) % 3).any():
        raise ArithmeticError("the sampled word is not a dual codeword carrying the secret")
    return dict(enumerate(x[1:].tolist(), start=1))


def reconstruct(shares: dict[int, int], code: TernaryCode) -> int:
    """Recover the secret from the shares of a qualified party set T.

    The codewords of C that are zero off {0} and T are the row-space words
    vanishing on the other columns S, so one elimination of the cached
    reduced rows with pivots restricted to S leaves rows spanning them.
    One with a nonzero coordinate 0, scaled to c_0 = 1, gives the secret
    -sum_t c_t x_t.  Raises ValueError when a position is not an int in
    1 .. N-1, a share is not a trit, or T is not qualified (no left-over
    row is nonzero at 0).
    """
    if not shares:
        raise ValueError("no shares given")
    # exact type: rejects bool, float, str and numpy positions alike
    if set(map(type, shares)) != {int}:
        raise ValueError("share positions must be ints")
    try:
        positions = np.fromiter(shares, dtype=np.int64, count=len(shares))
    except OverflowError:
        positions = None
    if positions is None or positions.min() < 1 or positions.max() >= code.length:
        raise ValueError("share positions must lie in 1 .. N-1")
    if not set(shares.values()) <= {0, 1, 2}:
        raise ValueError("share values must be trits")
    x = np.zeros(code.length, dtype=np.int8)
    x[positions] = np.fromiter(shares.values(), dtype=np.int8, count=len(shares))
    party = np.zeros(code.length, dtype=bool)
    party[positions] = True
    party[0] = True
    _, _, rest = linalg3.eliminate(code.reduction().planes, linalg3.bits(~party))
    c = next((row for row in rest if (row[0] | row[1]) & 1), None)
    if c is None:
        raise ValueError("the given party set cannot reconstruct the secret")
    if c[1] & 1:
        c = (c[1], c[0])
    return -linalg3.dot(c, linalg3.pack(x)[0]) % 3
