"""Minimal codewords and the secret sharing scheme built on the code.

A nonzero codeword c covers another nonzero codeword c' when the support
of c' is contained in that of c.  c is minimal when it covers only its
own scalar multiples.  The sufficient condition used as a screen is
3 w_min > 2 w_max over nonzero weights; when it holds, every nonzero
codeword is minimal, and the exhaustive check enforces that as an
invariant.  Minimality is a property of the projective class {c, 2c},
so the search runs over class representatives.

The sharing scheme is the standard construction on the dual side of a
generator matrix G with distinguished coordinate 0: pick a random
codeword c with c_0 = secret and hand c_1 .. c_{N-1} to the parties at
those coordinates.  A party set T reconstructs iff column 0 of G is an
F_3 combination of the columns in T.  The minimal access sets are
exactly the supports (minus coordinate 0) of minimal codewords whose
coordinate 0 is nonzero.  Parties appearing in every minimal access set
are dictators; because the Gray image repeats generator columns (the
triple at a set position x reappears rotated at ux and u^2 x), dictators
always exist here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import linalg3
from .chain_ring import require_scope
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


def ab_condition(entries: dict[int, int]) -> bool:
    """3 w_min > 2 w_max over the nonzero weights of a distribution."""
    nz = [w for w in entries if w > 0]
    return 3 * min(nz) > 2 * max(nz)


def _class_representatives(code: TernaryCode) -> list[int]:
    """Message indices representing each projective class {c, 2c}, c != 0."""
    k = code.dimension
    digits = 3 ** np.arange(k)
    reps = []
    for i in range(1, 3**k):
        msg = (i // digits) % 3
        partner = int(((2 * msg) % 3 @ digits))
        if i <= partner:
            reps.append(i)
    return reps


def minimal_codewords(code: TernaryCode) -> tuple[MinimalityReport, dict[int, int]]:
    """Exhaustively classify projective classes as minimal or covered.

    Returns the census and a map from representative message index to the
    support bitmask of the class.  Supports are compared as ints; class
    A covers class B iff B's support bits all lie inside A's and B != A.
    """
    require_scope("minimality census", code.spec.m)
    words = code.codewords()
    reps = _class_representatives(code)
    support: dict[int, int] = {}
    for i in reps:
        bits = 0
        for pos in np.flatnonzero(words[i]):
            bits |= 1 << int(pos)
        support[i] = bits
    # a class with the same support as another distinct class covers it too
    non_minimal = [
        i
        for i in reps
        if any(j != i and (support[j] & support[i]) == support[j] for j in reps)
    ]
    holds = ab_condition(_weight_census(words))
    if holds and non_minimal:
        raise RuntimeError(
            "weight-ratio screen guarantees all-minimal, but covering pairs exist"
        )
    report = MinimalityReport(
        ab_ratio_holds=holds,
        minimal_count=len(reps) - len(non_minimal),
        non_minimal_classes=tuple(non_minimal),
    )
    return report, support


def _weight_census(words: np.ndarray) -> dict[int, int]:
    weights = (words != 0).sum(axis=1)
    vals, cnt = np.unique(weights, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, cnt)}


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
    minimal = [i for i in support if i not in excluded]
    words = code.codewords()
    sets = set()
    for i in minimal:
        if words[i][0] == 0:
            continue
        parties = tuple(int(p) for p in np.flatnonzero(words[i]) if p != 0)
        sets.add(parties)
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
    if secret not in (0, 1, 2):
        raise ValueError("the secret must be a trit")
    G = code.generators
    col0 = G[:, 0].astype(np.int64)
    pivots = np.flatnonzero(col0)
    if len(pivots) == 0:
        raise ValueError("column 0 of the generator matrix is zero; no secret slot")
    pivot = int(pivots[0])
    rng = random.Random(seed)
    msg = np.array([rng.randrange(3) for _ in range(code.dimension)], dtype=np.int64)
    partial = int((np.delete(msg, pivot) * np.delete(col0, pivot)).sum() % 3)
    msg[pivot] = ((secret - partial) * pow(int(col0[pivot]), -1, 3)) % 3
    word = (msg @ G.astype(np.int64)) % 3
    if word[0] != secret:
        raise ArithmeticError("the sampled codeword does not carry the secret at position 0")
    return {int(p): int(word[p]) for p in range(1, code.length)}


def reconstruct(shares: dict[int, int], code: TernaryCode) -> int:
    """Recover the secret from shares at a qualified party set.

    Solves G[:, T] lam = G[:, 0] over F_3; the secret is then
    sum lam_t * share_t.  Raises ValueError when T is not qualified.
    """
    if not shares:
        raise ValueError("no shares given")
    positions = sorted(shares)
    if positions[0] < 1 or positions[-1] >= code.length:
        raise ValueError("share positions must lie in 1 .. N-1")
    if any(v not in (0, 1, 2) for v in shares.values()):
        raise ValueError("share values must be trits")
    G = code.generators
    lam = linalg3.solve(G[:, positions], G[:, 0])
    if lam is None:
        raise ValueError("the given party set cannot reconstruct the secret")
    return int(sum(int(l) * shares[p] for l, p in zip(lam, positions)) % 3)
