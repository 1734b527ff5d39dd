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

The shares are codewords of C itself: with a generator matrix G and
distinguished coordinate 0, pick a random codeword c with c_0 = secret
and hand c_1 .. c_{N-1} to the parties at those coordinates.  A party
set T reconstructs iff column 0 of G is an F_3 combination of the
columns in T.  A round trip is array work: the shares come from one
message-times-G product, and reconstruction is one `linalg3.solve` on
the columns of T (its elimination grows with the rank k, not with |T|)
and a sum over the at most k nonzero coefficients.

The access structure lists the supports (minus coordinate 0) of minimal
codewords of C whose coordinate 0 is nonzero.  By Massey's
correspondence these are the minimal access sets of the scheme built on
the dual code C^perp, not of the scheme massey_shares deals on C: every
listed set holds a party whose column is a multiple of column 0, so it
is qualified but not minimal for these shares.  This mismatch is an
open defect; dealing codewords of C^perp would fix it.  Parties in
every minimal access set are dictators; because the Gray image repeats
generator columns (the triple at a set position x reappears rotated at
ux and u^2 x), dictators always exist here.
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


def massey_shares(code: TernaryCode, secret: int, seed: int | None = None) -> dict[int, int]:
    """Shares {position: trit} for parties 1 .. N-1 from a random codeword.

    The codeword is sampled uniformly among those with c_0 = secret by
    solving for one message coordinate at a pivot of column 0 and drawing
    the rest at random, so no rejection loop is needed.
    """
    if isinstance(secret, bool) or secret not in (0, 1, 2):
        raise ValueError("the secret must be a trit")
    G = code.generators
    col0 = G[:, 0]
    pivots = np.flatnonzero(col0)
    if len(pivots) == 0:
        raise ValueError("column 0 of the generator matrix is zero; no secret slot")
    pivot = int(pivots[0])
    rng = random.Random(seed)
    msg = np.array([rng.randrange(3) for _ in range(code.dimension)], dtype=np.int64)
    msg[pivot] = 0
    # a nonzero trit is its own inverse
    msg[pivot] = ((secret - msg @ col0) * col0[pivot]) % 3
    word = (msg @ G) % 3
    if word[0] != secret:
        raise ArithmeticError("the sampled codeword does not carry the secret at position 0")
    return dict(enumerate(word[1:].tolist(), start=1))


def reconstruct(shares: dict[int, int], code: TernaryCode) -> int:
    """Recover the secret from shares at a qualified party set.

    Solves G[:, T] lam = G[:, 0] over F_3; the secret is then
    sum lam_t * share_t over the (at most k) nonzero lam_t.  Raises
    ValueError when a position is not an int in 1 .. N-1, a share is not
    a trit, or T is not qualified.
    """
    if not shares:
        raise ValueError("no shares given")
    # exact type: rejects bool, float, str and numpy positions alike
    if set(map(type, shares)) != {int}:
        raise ValueError("share positions must be ints")
    positions = sorted(shares)
    if positions[0] < 1 or positions[-1] >= code.length:
        raise ValueError("share positions must lie in 1 .. N-1")
    if not set(shares.values()) <= {0, 1, 2}:
        raise ValueError("share values must be trits")
    G = code.generators
    lam = linalg3.solve(np.take(G, positions, axis=1), G[:, 0])
    if lam is None:
        raise ValueError("the given party set cannot reconstruct the secret")
    return int(sum(int(lam[i]) * shares[positions[i]] for i in np.flatnonzero(lam)) % 3)
