"""Lee weight distributions three independent ways, plus quadratic Gauss periods.

With q = 3^m and size = 3^{3m} scalars, the closed forms are

    lprime, m odd:
        {0: 1,  3^{3m} - 3^{2m}: 3^{3m} - 3^m,  3^{3m}: 3^m - 1}
    lprime, m even:
        {0: 1,  3^{3m} - 3^{5m/2}: (3^m - 1)/2,
                3^{3m} - 3^{2m}:   3^{3m} - 3^m,
                3^{3m} + 3^{5m/2}: (3^m - 1)/2}
    units, any m:
        {0: 1,  2(3^{3m} - 3^{2m}): 3^{3m} - 3^m,  2 * 3^{3m}: 3^m - 1}

formula_distribution proves them from the column lemma (trace_code)
and the quadratic Gauss sum.  Each route returns one Lee weight per
orbit of L (scalar_orbits), 7 for lprime and 4 for units: ev(v a)
permutes the coordinates of ev(a) for v in L.  The enumeration path
scores one scalar per orbit against the whole defining set.

The charsum path scores the same orbits with no field and no evaluator,
by the column lemma: wt(a) = 3 #{v in V : sum tr(a_i v_i) != 0} with
V = {v in F^3 : v3 in X1}, which is 2 |X1| q^2 when (a1, a2) != 0 and
otherwise counts the y in a3 X1 with tr(y) != 0: integer trace counts
over the squares, the nonsquares or F*, the same counts the Gauss
periods are formed from.

_finish counts each weight with its orbit's size and checks the two
invariants sum f = 3^{3m} and sum w f = 2 N 3^{3m-1}.  The routes are
compared orbit by orbit, so two equal-sized orbits cannot swap weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain_ring import KIND_LPRIME, allowed_x1, code_length, defining_set_generators, require_scope
from .gf3m import get_field, per_degree, positive_integer, trace_form
from .trace_code import CodeSpec, get_eval_context


# ---------------------------------------------------------------------------
# quadratic character sums


@dataclass(frozen=True)
class GaussPeriods:
    """Quadratic Gauss sum and periods of F_{3^m}: pairs (a, b) of ints meaning a + b omega.

    squares and nonsquares are the periods sum omega^{tr(x)} over the two
    classes, from their trace counts; gauss_sum is the closed form G.
    """

    m: int
    gauss_sum: tuple[int, int]
    squares: tuple[int, int]
    nonsquares: tuple[int, int]

    @property
    def closed_forms(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The squares' and nonsquares' periods G fixes, (G - 1)/2 and (-G - 1)/2: exact, as G = 1 (mod 2)."""
        a, b = self.gauss_sum
        return ((a - 1) // 2, b // 2), ((-a - 1) // 2, -b // 2)


def _period_counts(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(c, n): c[t] squares and n[t] nonsquares of F_{3^m} with trace t, as int64.

    With B = trace_form(m), tr(x^2) = d^T B d on the digit vector d of x,
    so one pass over the q - 1 digit vectors of F* counts the x with
    tr(x^2) = t.  x -> x^2 maps F* 2-to-1 onto the squares, so c is half
    those counts, and n is the count of tr(x) = B[0] . d over F* minus c.
    No field is built.
    """
    B = trace_form(m)
    digits = np.arange(1, 3**m)[:, None] // 3 ** np.arange(m) % 3
    squares = np.bincount(((digits @ B) * digits).sum(axis=1) % 3, minlength=3) // 2
    return squares, np.bincount(digits @ B[0] % 3, minlength=3) - squares


def gauss_periods(m: int) -> GaussPeriods:
    """The Gauss periods from exact trace counts, checked against the closed form.

    A class with counts c (_period_counts) has the period
    c_0 + c_1 omega + c_2 omega^2 = (c_0 - c_2) + (c_1 - c_2) omega.  The
    periods differ by G and sum to -1, so G = (-1)^{m-1} (1 + 2 omega)^m
    (Lidl and Niederreiter, Finite Fields, Thm 5.15, with
    (1 + 2 omega)^2 = -3) fixes both (GaussPeriods.closed_forms).  A class
    whose pair differs from its closed form raises ArithmeticError.
    ValueError unless m is an integer (not a bool) in 1..8, the
    "Gauss periods" scope.
    """
    m = require_scope("Gauss periods", m)
    a, b = (1 if m % 2 else -1), 0
    for _ in range(m):  # times 1 + 2 omega, with omega^2 = -1 - omega
        a, b = a - 2 * b, 2 * a - b
    counts = _period_counts(m)
    pairs = [(c0 - c2, c1 - c2) for c0, c1, c2 in (c.tolist() for c in counts)]
    periods = GaussPeriods(m, (a, b), *pairs)
    for name, c, pair, closed in zip(("squares", "nonsquares"), counts, pairs, periods.closed_forms):
        if pair != closed:
            raise ArithmeticError(
                f"trace counts {tuple(c.tolist())} of the {name} break the closed form {closed} at m={m}"
            )
    return periods


def codeword_char_sum(spec: CodeSpec, scalars) -> np.ndarray:
    """theta(a) = sum_t c_t omega^t, c_t = #{j : y_j = t} over the Gray image y of ev(a), per scalar index a.

    Exact in Z[omega] as in gauss_periods: the int64 pair (c_0 - c_2, c_1 - c_2)
    meaning a + b omega, so the result has shape (len(scalars), 2).
    """
    words = get_eval_context(spec.m, spec.set_kind).trace_triples(scalars)
    c0, c1, c2 = ((words == t).sum(axis=(1, 2)) for t in range(3))
    return np.stack([c0 - c2, c1 - c2], axis=-1)


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class WeightDistribution:
    """weight -> frequency over all 3^{3m} scalars, weights ascending."""

    entries: dict[int, int]
    total: int
    method: str  # 'enumerated' | 'formula' | 'charsum'
    orbit_weights: tuple[int, ...] = field(default=(), repr=False)  # in scalar_orbits order; not exported

    @property
    def min_nonzero_weight(self) -> int:
        return min(w for w in self.entries if w > 0)


def _validate(entries: dict[int, int], m: int, kind: str) -> None:
    size = 3 ** (3 * m)
    n_len = code_length(m, kind)
    if sum(entries.values()) != size:
        raise ArithmeticError("frequencies must cover all scalars")
    moment = sum(w * f for w, f in entries.items())
    if moment != 2 * n_len * 3 ** (3 * m - 1):
        raise ArithmeticError("first moment identity violated")


def _finish(weights: list[int], spec: CodeSpec, method: str) -> WeightDistribution:
    """The validated histogram of the orbit weights (scalar_orbits order), each counted with its orbit's size.

    ArithmeticError unless there is one weight per orbit.
    """
    sizes = orbit_sizes(spec.m, spec.set_kind)
    if len(weights) != len(sizes):
        raise ArithmeticError(f"{len(weights)} orbit weights for {len(sizes)} orbits")
    entries = dict.fromkeys(sorted(weights), 0)
    for w, size in zip(weights, sizes):
        entries[w] += size
    _validate(entries, spec.m, spec.set_kind)
    return WeightDistribution(entries, 3 ** (3 * spec.m), method, tuple(weights))


def orbit_sizes(m: int, kind: str) -> tuple[int, ...]:
    """The scalar_orbits sizes with no field: 1, then |X1| q^2, |X1| q, |X1| per coset of X1, squares first."""
    q = 3 ** positive_integer(m)
    x1 = code_length(m, kind) // (3 * q * q)
    return (1, *(x1 * q * q, x1 * q, x1) * ((q - 1) // x1))


@per_degree()
def scalar_orbits(m: int, kind: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbits of L on the 3^{3m} scalar indices: (representatives, orbit_sizes).

    ev(v a)_x = ev(a)_{v x} and x -> v x permutes L for v in L, so an
    orbit has one Lee weight.  L is the set of units whose first nilpotent
    coordinate lies in X1 = <gamma> (defining_set_generators), so the
    orbit of a nonzero scalar whose first nonzero nilpotent coordinate
    is c holds every scalar whose first nonzero coordinate sits in the
    same place and lies in the coset c X1.  The representatives are 0,
    then (c, 0, 0), (0, c, 0), (0, 0, c) for c = g^j, j < (q - 1) / |X1|,
    with sizes 1, |X1| q^2, |X1| q, |X1|: 7 orbits for lprime and 4 for
    units at every m.  An X1 that is not <gamma> raises ArithmeticError.
    Built once per (m, kind), on the first call.
    """
    F = get_field(m)
    q = F.q
    x1 = set(allowed_x1(F, kind))
    gamma = defining_set_generators(m, kind)[0][0]
    if {F.pow(gamma, k) for k in range(q - 1)} != x1:
        raise ArithmeticError(f"the allowed x1 of the {kind} set are not the subgroup <{gamma}> at m={m}")
    cosets = [F.pow(F.generator, j) for j in range((q - 1) // len(x1))]
    return (0, *(c * shift for c in cosets for shift in (q * q, q, 1))), orbit_sizes(m, kind)


def _class_orbit_weights(q: int, zero_weights: tuple[int, ...]) -> list[int]:
    """0, then per class c X1 its (c, 0, 0) and (0, c, 0) weight 2 |X1| q^2 and its (0, 0, c) weight."""
    w = 2 * (q - 1) // len(zero_weights) * q * q
    return [0, *(x for z in zero_weights for x in (w, w, z))]


def enumerate_distribution(spec: CodeSpec, threads: int = 1) -> WeightDistribution:
    """Brute force: the Lee weight of ev(a) for one scalar a per L-orbit.

    scalar_orbits refuses allowed x1 that are not a cyclic subgroup.  The
    representatives are scored in one EvalContext.lee_weights call.
    threads must be a positive integer and changes neither the work nor
    the result.
    """
    require_scope("defining set", spec.m)
    positive_integer(threads, "threads")
    reps, _ = scalar_orbits(spec.m, spec.set_kind)
    return _finish(get_eval_context(spec.m, spec.set_kind).lee_weights(reps).tolist(), spec, "enumerated")


def charsum_distribution(spec: CodeSpec) -> WeightDistribution:
    """Orbit weights from the Gauss period counts in integers.

    Each (0, 0, c) orbit weighs 3 q^2 (|X1| - z) with
    z = #{y in c X1 : tr(y) = 0} (_class_orbit_weights has the others).
    c X1 is the squares or the nonsquares (lprime) or F* (units), so z
    is the trace-0 entry of its _period_counts.  Counts of a class that
    do not sum to |X1| raise ArithmeticError.  No field is built.
    """
    require_scope("Gauss periods", spec.m)
    q = 3**spec.m
    squares, nonsquares = _period_counts(spec.m)
    classes = (squares, nonsquares) if spec.set_kind == KIND_LPRIME else (squares + nonsquares,)
    x1 = (q - 1) // len(classes)
    for c in classes:
        if c.sum() != x1:
            raise ArithmeticError(
                f"trace counts {tuple(c.tolist())} do not cover the {x1} elements of a class at m={spec.m}"
            )
    zero_weights = tuple(3 * q * q * (x1 - int(c[0])) for c in classes)
    return _finish(_class_orbit_weights(q, zero_weights), spec, "charsum")


def formula_distribution(spec: CodeSpec) -> WeightDistribution:
    """The closed forms of the module docstring, proven at every m.

    By the column lemma each (c, 0, 0) and (0, c, 0) orbit weighs
    2 |X1| q^2, and each (0, 0, c) orbit holds |X1| scalars and weighs
    3 q^2 (|X1| - z), z the number of trace-0 elements in the class c X1
    (charsum_distribution).  Units: the class is F*, z = q/3 - 1, so the
    weight is 2 q^3.  lprime: |X1| = (q - 1)/2 and the classes are the
    squares and the nonsquares.  By the quadratic Gauss sum
    G = (-1)^{m-1} (1 + 2 omega)^m (gauss_periods; (1 + 2 omega)^2 = -3)
    the squares have z = (q - 3 + 2 Re G)/6 and the nonsquares the same
    with -G: the squares weigh q^2 (q - Re G) and the nonsquares
    q^2 (q + Re G).  For odd m, G is imaginary, so both weigh q^3.  For
    even m, G = -(-3)^{m/2}, so the squares weigh 3^{3m} - 3^{5m/2} at
    m == 2 and 3^{3m} + 3^{5m/2} at m == 0 (mod 4).  Both orbits hold
    (q - 1)/2 scalars, so the histogram is one at every even m; a swap of
    the two shows in the orbit weights.  ValueError above the scope.
    """
    m = require_scope("closed form", spec.m)
    q = 3**m
    g = 0 if m % 2 else -((-3) ** (m // 2))  # Re G
    zero_weights = (q * q * (q - g), q * q * (q + g)) if spec.set_kind == KIND_LPRIME else (2 * q**3,)
    return _finish(_class_orbit_weights(q, zero_weights), spec, "formula")


# ---------------------------------------------------------------------------
# serialization


def distribution_csv(dist: WeightDistribution) -> str:
    lines = ["weight,frequency"]
    lines += [f"{w},{f}" for w, f in sorted(dist.entries.items())]
    return "\n".join(lines) + "\n"
