"""Griesmer and sphere-packing verdicts, and dual-distance certification.

For an [N, K, d]_3 code the Griesmer bound says N >= sum_{j<K} ceil(d / 3^j).
Optimality here means: the bound holds at d but fails at d + 1, so no
[N, K, d+1]_3 code exists and d is the largest minimum distance any ternary
code of this length and dimension can have.

The dual certificate is elementary and is checked on the generator
matrix G of the built image.  A ternary word t e_p of weight 1 lies in
the dual iff column p of G is zero, so "G has no all-zero column" rules
out every weight-1 dual word at once.  A dual word of weight 2 always
exists: with coordinate 0 the ring element 1 and coordinate q the element
u (the canonical ordering guarantees both), the value pair (1, 2u^2) at
those positions annihilates every ev(a), since
Tr(a) + 2u^2 Tr(a u) = Tr(a)(1 + 2u^3) = 0; on the Gray image it is the
trit 1 on the first slot of triple 0 and the trit 2 on the middle slot of
triple q, and that word is checked against every row of G.  Hence the
dual distance is exactly 2.  The same conclusion falls out of sphere packing:
the dual is a [N, N - 3m] code, and correcting even one error would need
3^{N - 3m} (1 + 2N) <= 3^N, i.e. 1 + 2N <= 3^{3m}, which fails for every
m >= 1 because N = (3^m - 1) 3^{2m+1} / 2 (or twice that) is already at
least 3^{3m}.

Only the dual certificate needs G, so dual_weight_search alone imports
trace_code, and numpy with it, when it is first called.  The Griesmer
and sphere-packing functions, and verdict above the defining-set scope,
are exact integer work on spec and closed_form, which import no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closed_form import formula_distribution
from .spec import KIND_LPRIME, SCOPE_MAX_M, CodeSpec, code_length, positive_integer, require_scope


# ---------------------------------------------------------------------------
# Griesmer


def griesmer_sum(K: int, d: int) -> int:
    """sum_{j=0}^{K-1} ceil(d / 3^j), each term the ceiling of the last over 3.

    ceil(ceil(d / 3^j) / 3) = ceil(d / 3^{j+1}), so no power of 3 is formed.
    ValueError unless K and d are positive integers (not bools).
    """
    K, d = positive_integer(K, "K"), positive_integer(d, "d")
    total, term = 0, d
    for _ in range(K):
        total += term
        term = -(-term // 3)
    return total


@dataclass(frozen=True)
class GriesmerReport:
    """The Griesmer sums of an [N, K, d]_3 code at d and d + 1.

    holds: the bound N >= sum at d is met; optimal: it holds and fails
    at d + 1, so no [N, K, d + 1]_3 code exists.
    """

    N: int
    K: int
    d: int
    sum_at_d: int
    sum_at_d_plus_1: int

    @property
    def holds(self) -> bool:
        return self.sum_at_d <= self.N

    @property
    def optimal(self) -> bool:
        return self.holds and self.sum_at_d_plus_1 > self.N


def griesmer(N: int, K: int, d: int) -> GriesmerReport:
    """The Griesmer report of an [N, K, d]_3 code; ValueError unless N, K and d are positive integers (not bools)."""
    N, K, d = positive_integer(N, "N"), positive_integer(K, "K"), positive_integer(d, "d")
    if d > N:
        raise ValueError(f"minimum distance {d} exceeds length {N}")
    return GriesmerReport(
        N=N,
        K=K,
        d=d,
        sum_at_d=griesmer_sum(K, d),
        sum_at_d_plus_1=griesmer_sum(K, d + 1),
    )


def closed_form_sum_d_plus_1(m: int, kind: str) -> tuple[tuple[int, ...], int]:
    """Per-term values and total of the Griesmer sum at d + 1, K = 3m.

    Applies to the two-weight families, whose minimum distance is
    d = 3^{3m} - 3^{2m} (lprime, m odd) or twice that (units, any m).

    With c = 1 (lprime) or 2 (units), d + 1 = c(3^{3m} - 3^{2m}) + 1, and
    ceil((d+1)/3^j) equals c(3^{3m-j} - 3^{2m-j}) + 1 for j <= 2m, then
    c 3^{3m-j}.  The total is N + 2m for lprime and N + 2m - 1 for units,
    one lower relative to N because the doubled geometric tails absorb an
    extra unit.  The total is checked against griesmer_sum.  ValueError
    on the m or kind code_length refuses, and for lprime at even m, which
    is three-weight.
    """
    m = positive_integer(m)
    code_length(m, kind)  # ValueError unless kind is a known kind
    if kind == KIND_LPRIME and m % 2 == 0:
        raise ValueError(
            "the lprime family is two-weight only for odd m; even m has a "
            "smaller minimum distance and no closed-form expansion here"
        )
    c = 1 if kind == KIND_LPRIME else 2
    K = 3 * m
    terms = tuple(
        c * (3 ** (3 * m - j) - 3 ** (2 * m - j)) + 1 if j <= 2 * m else c * 3 ** (3 * m - j)
        for j in range(K)
    )
    total = sum(terms)
    if total != griesmer_sum(K, c * (3 ** (3 * m) - 3 ** (2 * m)) + 1):
        raise ArithmeticError("per-term expansion disagrees with the direct Griesmer sum")
    return terms, total


# ---------------------------------------------------------------------------
# sphere packing


def sphere_packing_t1(N: int, log3_size: int) -> bool:
    """Whether a code of 3^log3_size words and length N can correct 1 error."""
    if N < 1 or log3_size < 0:
        raise ValueError("need N >= 1 and log3_size >= 0")
    return 3**log3_size * (1 + 2 * N) <= 3**N


# ---------------------------------------------------------------------------
# dual distance


@dataclass(frozen=True)
class DualWitness:
    """Certificate that the dual distance is exactly the stated value.

    witness lists (gray_position, trit_value) pairs of a dual word of
    that weight; weight1_exhausted records that all lighter words were
    ruled out by exhaustion.
    """

    distance: int
    witness: tuple[tuple[int, int], ...]
    weight1_exhausted: bool


def dual_weight_search(spec: CodeSpec) -> DualWitness:
    """Certify the dual distance on the generator matrix G of the image.

    Weight 1 is exhausted by "G has no all-zero column": that covers every
    weight-1 ternary word.  Weight 2 is certified by the word with trit 1
    at the first Gray slot of set position 0 (the element 1) and trit 2 at
    the middle slot of set position q (the element u), the image of the
    ring relation ev(a)_1 + 2u^2 ev(a)_u = 0; it must annihilate every
    row of G.  Its scope is that of G, the defining-set scope.
    """
    from .trace_code import build_code, gray_positions

    G = build_code(spec).generators
    zero_columns = (~G.any(axis=0)).nonzero()[0]
    if len(zero_columns):
        raise ArithmeticError(f"unexpected weight-1 dual word at Gray position {zero_columns[0]}")
    n = G.shape[1] // 3
    q = 3**spec.m
    witness = (
        (gray_positions(0, spec.layout, n)[0], 1),
        (gray_positions(q, spec.layout, n)[1], 2),
    )
    if any(sum(int(row[p]) * t for p, t in witness) % 3 for row in G):
        raise ArithmeticError("weight-2 witness failed to annihilate a generator")
    return DualWitness(distance=2, witness=witness, weight1_exhausted=True)


# ---------------------------------------------------------------------------
# assembled verdict


@dataclass(frozen=True)
class BoundsVerdict:
    """verdict's answer for one spec: the code's [N, K, d], its Griesmer sums and optimality.

    dual_distance and witness are the dual certificate (DualWitness), or
    None above the defining-set scope, where a note says it was skipped.
    """

    N: int
    K: int
    d: int
    griesmer_sum_d: int
    griesmer_sum_d1: int
    optimal: bool
    dual_distance: int | None
    witness: tuple[tuple[int, int], ...] | None
    notes: tuple[str, ...]


def verdict(spec: CodeSpec) -> BoundsVerdict:
    """Full bounds verdict: Griesmer optimality plus the dual certificate.

    The minimum distance comes from the closed-form distribution, which
    answers at every m of its scope, so m above that scope is refused
    before any arithmetic.  An optimal code with two nonzero weights also
    checks the closed-form Griesmer total at d + 1.  The dual
    certificate is attached wherever G can be built, i.e. in the
    defining-set scope.
    """
    require_scope("closed form", spec.m)
    N = code_length(spec.m, spec.set_kind)
    K = 3 * spec.m
    dist = formula_distribution(spec)
    d = dist.min_nonzero_weight
    report = griesmer(N, K, d)
    if report.optimal and len(dist.entries) == 3:
        _, closed_total = closed_form_sum_d_plus_1(spec.m, spec.set_kind)
        if closed_total != report.sum_at_d_plus_1:
            raise ArithmeticError("closed-form Griesmer total disagrees with the direct sum")
    notes = []
    if spec.m <= SCOPE_MAX_M["defining set"]:
        dual = dual_weight_search(spec)
        dual_distance: int | None = dual.distance
        witness: tuple[tuple[int, int], ...] | None = dual.witness
    else:
        dual_distance = None
        witness = None
        notes.append("dual certificate skipped above the exhaustive range")
    notes.append(
        "the dual cannot correct a single error: 1 + 2N <= 3^{3m} fails, "
        "consistent with dual distance 2"
    )
    return BoundsVerdict(
        N=N,
        K=K,
        d=d,
        griesmer_sum_d=report.sum_at_d,
        griesmer_sum_d1=report.sum_at_d_plus_1,
        optimal=report.optimal,
        dual_distance=dual_distance,
        witness=witness,
        notes=tuple(notes),
    )
