"""The closed-form Lee weight distributions, in exact integers and with no array.

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
and the quadratic Gauss sum, as one Lee weight per orbit of L
(weight_dist.scalar_orbits), 7 for lprime and 4 for units.  _finish
counts each weight with its orbit's size (orbit_sizes) and checks the
two invariants sum f = 3^{3m} and sum w f = 2 N 3^{3m-1}; the other
routes in weight_dist finish through it too.  Like spec, this module
imports no numpy, so `weights` and `export --format csv|json` at the
default method, and `bounds` above the defining-set scope, answer
without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .spec import KIND_LPRIME, CodeSpec, code_length, positive_integer, require_scope


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


def _class_orbit_weights(q: int, zero_weights: tuple[int, ...]) -> list[int]:
    """0, then per class c X1 its (c, 0, 0) and (0, c, 0) weight 2 |X1| q^2 and its (0, 0, c) weight."""
    w = 2 * (q - 1) // len(zero_weights) * q * q
    return [0, *(x for z in zero_weights for x in (w, w, z))]


def formula_distribution(spec: CodeSpec) -> WeightDistribution:
    """The closed forms of the module docstring, proven at every m.

    By the column lemma each (c, 0, 0) and (0, c, 0) orbit weighs
    2 |X1| q^2, and each (0, 0, c) orbit holds |X1| scalars and weighs
    3 q^2 (|X1| - z), z the number of trace-0 elements in the class c X1
    (weight_dist.charsum_distribution).  Units: the class is F*,
    z = q/3 - 1, so the weight is 2 q^3.  lprime: |X1| = (q - 1)/2 and
    the classes are the squares and the nonsquares.  By the quadratic
    Gauss sum G = (-1)^{m-1} (1 + 2 omega)^m (weight_dist.gauss_periods;
    (1 + 2 omega)^2 = -3) the squares have z = (q - 3 + 2 Re G)/6 and
    the nonsquares the same with -G: the squares weigh q^2 (q - Re G)
    and the nonsquares q^2 (q + Re G).  For odd m, G is imaginary, so
    both weigh q^3.  For even m, G = -(-3)^{m/2}, so the squares weigh
    3^{3m} - 3^{5m/2} at m == 2 and 3^{3m} + 3^{5m/2} at m == 0 (mod 4).
    Both orbits hold (q - 1)/2 scalars, so the histogram is one at every
    even m; a swap of the two shows in the orbit weights.  ValueError
    above the scope.
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
