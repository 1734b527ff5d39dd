"""Lee weight distributions three independent ways, plus quadratic character sums.

With q = 3^m and size = 3^{3m} scalars, the closed forms are

    lprime, m odd:
        {0: 1,  3^{3m} - 3^{2m}: 3^{3m} - 3^m,  3^{3m}: 3^m - 1}
    lprime, m == 2 (mod 4):
        {0: 1,  3^{3m} - 3^{5m/2}: (3^m - 1)/2,
                3^{3m} - 3^{2m}:   3^{3m} - 3^m,
                3^{3m} + 3^{5m/2}: (3^m - 1)/2}
    units, any m:
        {0: 1,  2(3^{3m} - 3^{2m}): 3^{3m} - 3^m,  2 * 3^{3m}: 3^m - 1}

The lprime pattern for m == 0 (mod 4) is unproven and refused unless
explicitly extrapolated.  The enumeration path scores one scalar per
orbit of the group <+-u^i, sigma> of order 6m against the whole defining
set and counts its Lee weight with the orbit's size: ev(u a) rotates
every triple of ev(a), ev(-a) = -ev(a), and for the Frobenius
sigma(a) = a^3, which fixes u and permutes L, ev(sigma a) permutes the
coordinates of ev(a) as Tr(sigma(a) x) = Tr(a sigma^{-1}(x)).  The
character-sum path recovers the weights of all 3^{3m} scalars in one
bulk pass from sums of cube roots of unity over the Gray images via

    w = (2N - theta(a) - theta(2a)) / 3,

using that sum_{s=1,2} Theta(s y) = 2N - 3 wH(y) for any ternary vector y.
Every produced distribution is checked against the two exact invariants
sum f = 3^{3m} and sum w f = 2 N 3^{3m-1}.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .chain_ring import KIND_LPRIME, SCOPE_MAX_M, allowed_x1, code_length, require_scope
from .gf3m import get_field
from .trace_code import CodeSpec, get_eval_context

_OMEGA = np.exp(2j * np.pi * np.arange(3) / 3)


# ---------------------------------------------------------------------------
# quadratic character sums


@dataclass(frozen=True)
class GaussPeriods:
    """Character sums over the squares and nonsquares of F_{3^m}.

    squares and nonsquares hold the directly summed numeric values of
    sum omega^{tr(x)} over the two classes.  For even m both are exact
    integers (exact_even); for odd m both have real part -1/2 and
    imaginary parts +-(1/2) 3^{m/2} with opposite signs, odd_imag_sign
    giving the sign on the squares side.  They always satisfy
    squares + nonsquares = -1.
    """

    m: int
    squares: complex
    nonsquares: complex
    exact_even: tuple[int, int] | None
    odd_imag_sign: int | None

    @property
    def gauss_sum(self) -> complex:
        """Closed form (-1)^(m-1) i^m sqrt(3^m) of the quadratic Gauss sum."""
        return ((-1) ** (self.m - 1)) * (1j**self.m) * math.sqrt(3**self.m)

    @property
    def closed_squares(self) -> complex:
        return (self.gauss_sum - 1) / 2

    @property
    def closed_nonsquares(self) -> complex:
        return (-self.gauss_sum - 1) / 2


def gauss_periods(m: int) -> GaussPeriods:
    require_scope("Gauss periods", m)
    F = get_field(m)
    trace = F.trace_table.tolist()
    sq = complex(sum(_OMEGA[trace[x]] for x in F.squares()))
    ns = complex(sum(_OMEGA[trace[x]] for x in F.nonsquares()))
    if m % 2 == 0:
        root = 3 ** (m // 2)
        g = root if m % 4 == 2 else -root
        exact_even: tuple[int, int] | None = ((g - 1) // 2, (-g - 1) // 2)
        odd_sign = None
        closed_sq = complex(exact_even[0])
        closed_ns = complex(exact_even[1])
    else:
        exact_even = None
        odd_sign = 1 if m % 4 == 1 else -1
        half_root = math.sqrt(3**m) / 2
        closed_sq = complex(-0.5, odd_sign * half_root)
        closed_ns = complex(-0.5, -odd_sign * half_root)
    for direct, closed in ((sq, closed_sq), (ns, closed_ns)):
        if abs(direct - closed) > 1e-9 * abs(closed):
            raise ArithmeticError(
                f"character sum {direct} disagrees with closed form {closed} at m={m}"
            )
    return GaussPeriods(
        m=m, squares=sq, nonsquares=ns, exact_even=exact_even, odd_imag_sign=odd_sign
    )


def codeword_char_sum(spec: CodeSpec, scalars) -> np.ndarray:
    """theta(a) = sum_t #{j : y_j = t} omega^t over the Gray image y of ev(a), per scalar index a."""
    require_scope("character sum", spec.m)
    words = get_eval_context(spec.m, spec.set_kind).trace_triples(scalars)
    return np.stack([(words == t).sum(axis=(1, 2)) for t in range(3)], axis=-1) @ _OMEGA


def charsum_weights(spec: CodeSpec) -> np.ndarray:
    """Lee weight of ev(a) for every scalar index, from theta(a) + theta(2a) in one pass.

    2a = -a negates each nilpotent coordinate.  A weight 1e-6 or more off
    an integer, or an imaginary part that large, raises ArithmeticError.
    """
    require_scope("character sum", spec.m)
    F = get_field(spec.m)
    q = F.q
    neg = np.diagonal(F.add_table).astype(np.int64)  # -x = x + x
    every = np.arange(q**3)
    doubled = (neg[every // (q * q)] * q + neg[every // q % q]) * q + neg[every % q]
    theta = codeword_char_sum(spec, every)
    total = theta + theta[doubled]
    w = (2 * code_length(spec.m, spec.set_kind) - total.real) / 3
    nearest = np.rint(w)
    bad = ~((np.abs(w - nearest) < 1e-6) & (np.abs(total.imag) < 1e-6))  # NaN is bad too
    if bad.any():
        i = int(np.argmax(bad))
        raise ArithmeticError(
            f"character-sum weight {w[i]!r} is not an integer within 1e-6 (imag {total.imag[i]!r})"
        )
    return nearest.astype(np.int64)


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class WeightDistribution:
    """weight -> frequency over all 3^{3m} scalars, weights ascending."""

    entries: dict[int, int]
    total: int
    method: str  # 'enumerated' | 'formula' | 'charsum'
    note: str | None = None

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


def _finish(counts: Counter, spec: CodeSpec, method: str, note: str | None = None):
    entries = {int(w): int(counts[w]) for w in sorted(counts)}
    _validate(entries, spec.m, spec.set_kind)
    return WeightDistribution(
        entries=entries, total=3 ** (3 * spec.m), method=method, note=note
    )


@functools.lru_cache(maxsize=None)
def scalar_orbits(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the group <+-u^i, sigma> on the 3^{3m} scalar indices.

    Returns read-only (representatives, sizes): the least index of each
    orbit, ascending, and the number of scalars in it.  In nilpotent
    coordinates u (a1, a2, a3) = (a1, a1 + a2, a2 + a3), -a negates all
    three and the Frobenius sigma(a) = a^3 cubes each, so the orbits do
    not depend on the coordinate set.  ev(u a) is ev(a) with every triple
    rotated, ev(-a) = -ev(a) and ev(sigma a) a coordinate permutation of
    ev(a) whenever L is sigma-stable (enumerate_distribution checks
    that), so an orbit has one Lee weight.  The group has order 6m;
    Burnside's lemma gives 6, 68 and 1106 orbits at m = 1, 2, 3.  Most
    representatives with a1 != 0 come in runs of all q values of a3,
    which EvalContext.lee_weights scores against the W3 table in place;
    where some sigma^k fixes (a1, a2) up to +-u^i, the run is partial.
    """
    require_scope("enumeration", m)
    F = get_field(m)
    q = F.q
    add = F.add_table.astype(np.int64)
    neg = np.diagonal(add)  # -x = x + x in characteristic 3
    frob = np.array([F.frobenius(x) for x in range(q)])
    index = np.arange(q**3)
    a1, a2, a3 = np.unravel_index(index, (q, q, q))
    sigma = np.ravel_multi_index((frob[a1], frob[a2], frob[a3]), (q, q, q))
    least = index.copy()
    for _ in range(3):  # a, u a, u^2 a and their negatives
        for image in ((a1, a2, a3), (neg[a1], neg[a2], neg[a3])):
            np.minimum(least, np.ravel_multi_index(image, (q, q, q)), out=least)
        a2, a3 = add[a1, a2], add[a2, a3]
    # sigma commutes with u and -1: the orbit of a joins the {+-u^i}-orbits of sigma^k a
    total, image = least.copy(), index
    for _ in range(m - 1):
        image = sigma[image]
        np.minimum(total, least[image], out=total)
    reps = np.flatnonzero(total == index)
    sizes = np.bincount(total)[reps]
    reps.flags.writeable = False
    sizes.flags.writeable = False
    return reps, sizes


def enumerate_distribution(spec: CodeSpec, threads: int = 1) -> WeightDistribution:
    """Brute force: the Lee weight of ev(a) for one scalar a per <+-u^i, sigma>-orbit.

    Each weight counts with its orbit's size, so the histogram covers
    all 3^{3m} scalars (scalar_orbits).  The Frobenius orbits are sound
    only for a sigma-stable L, that is a sigma-stable set of allowed x1;
    otherwise ArithmeticError is raised.  The representatives are scored
    in process, one EvalContext.lee_weights call per step of them.
    threads must be at least 1 and changes neither the work nor the
    result: at m <= 3 the kernel's numpy calls are too short for worker
    processes or threads to pay for themselves.
    """
    require_scope("enumeration", spec.m)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    F = get_field(spec.m)
    x1 = set(allowed_x1(F, spec.set_kind))
    if {F.frobenius(x) for x in x1} != x1:
        raise ArithmeticError(f"the {spec.set_kind} defining set is not Frobenius-stable at m={spec.m}")
    ctx = get_eval_context(spec.m, spec.set_kind)
    reps, sizes = scalar_orbits(spec.m)
    counts: Counter = Counter()
    for lo in range(0, len(reps), ctx.step):
        chunk = slice(lo, lo + ctx.step)
        for w, size in zip(ctx.lee_weights(reps[chunk]).tolist(), sizes[chunk].tolist()):
            counts[w] += size
    return _finish(counts, spec, "enumerated")


def charsum_distribution(spec: CodeSpec) -> WeightDistribution:
    """Distribution of the weights charsum_weights recovers from character sums."""
    values, counts = np.unique(charsum_weights(spec), return_counts=True)
    return _finish(Counter(dict(zip(values.tolist(), counts.tolist()))), spec, "charsum")


def formula_distribution(spec: CodeSpec, extrapolate: bool = False) -> WeightDistribution:
    """Closed-form distribution for the supported (m, kind) combinations."""
    require_scope("closed form", spec.m)
    m = spec.m
    size = 3 ** (3 * m)
    q = 3**m
    note = None
    if spec.set_kind == KIND_LPRIME:
        if m % 2 == 1:
            entries = {0: 1, size - 3 ** (2 * m): size - q, size: q - 1}
        elif m % 4 == 2 or extrapolate:
            half = 3 ** (5 * m // 2)
            entries = {
                0: 1,
                size - half: (q - 1) // 2,
                size - 3 ** (2 * m): size - q,
                size + half: (q - 1) // 2,
            }
            if m % 4 == 0:
                note = "unverified extrapolation"
        else:
            raise ValueError(
                "the closed form for the lprime family is stated only for m odd or "
                "m == 2 (mod 4); pass --extrapolate (extrapolate=True) to emit the "
                "unproven pattern"
            )
    else:
        entries = {
            0: 1,
            2 * (size - 3 ** (2 * m)): size - q,
            2 * size: q - 1,
        }
    counts = Counter(dict(sorted(entries.items())))
    return _finish(counts, spec, "formula", note)


def auto_distribution(
    spec: CodeSpec, threads: int = 1, extrapolate: bool = False
) -> WeightDistribution:
    """The closed form where one is stated, else enumeration within its scope.

    Above the enumeration scope the closed form's refusal is raised, so
    the error names the reason the formula did not apply.
    """
    try:
        return formula_distribution(spec, extrapolate=extrapolate)
    except ValueError:
        if spec.m > SCOPE_MAX_M["enumeration"]:
            raise
        return enumerate_distribution(spec, threads=threads)


# ---------------------------------------------------------------------------
# serialization


def distribution_csv(dist: WeightDistribution) -> str:
    lines = ["weight,frequency"]
    lines += [f"{w},{f}" for w, f in sorted(dist.entries.items())]
    return "\n".join(lines) + "\n"


def distribution_json(dist: WeightDistribution) -> dict:
    out = {
        "entries": {str(w): f for w, f in sorted(dist.entries.items())},
        "total": dist.total,
        "method": dist.method,
    }
    if dist.note:
        out["note"] = dist.note
    return out
