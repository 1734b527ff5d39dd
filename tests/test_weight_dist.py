import dataclasses
import json
import random

import numpy as np
import pytest

from checkout import python
from cubicode import weight_dist
from cubicode.bounds import verdict
from cubicode.chain_ring import allowed_x1, defining_set, get_ring
from cubicode.cli import main
from cubicode.closed_form import distribution_csv
from cubicode.gf3m import get_field
from cubicode.spec import code_length
from cubicode.trace_code import CodeSpec, EvalContext, get_eval_context
from cubicode.weight_dist import (
    charsum_distribution,
    enumerate_distribution,
    formula_distribution,
    gauss_periods,
    scalar_orbits,
)
from ring_reference import OMEGA, char_sum_weights, scalar_from_index, scalar_weights, vector_char_sum

FROZEN = {
    ("lprime", 1): {0: 1, 18: 24, 27: 2},
    ("units", 1): {0: 1, 36: 24, 54: 2},
    ("lprime", 2): {0: 1, 486: 4, 648: 720, 972: 4},
    ("units", 2): {0: 1, 1296: 720, 1458: 8},
}


@pytest.mark.parametrize("kind,m", sorted(FROZEN))
def test_enumerated_distributions_frozen(kind, m):
    dist = enumerate_distribution(CodeSpec(m=m, set_kind=kind))
    assert dist.entries == FROZEN[(kind, m)]
    assert dist.method == "enumerated"
    assert dist.total == 3 ** (3 * m)


@pytest.mark.parametrize("kind,m", sorted(FROZEN))
def test_formula_matches_enumeration(kind, m):
    spec = CodeSpec(m=m, set_kind=kind)
    assert formula_distribution(spec).entries == enumerate_distribution(spec).entries


def test_threaded_enumeration_merges_to_same_histogram():
    # threads changes neither the work nor the result
    spec = CodeSpec(m=2, set_kind="lprime")
    assert (
        enumerate_distribution(spec, threads=3).entries
        == enumerate_distribution(spec, threads=1).entries
    )


def test_threaded_m3_enumeration_merges_to_same_histogram():
    # one histogram whatever the thread count
    spec = CodeSpec(m=3, set_kind="lprime")
    assert (
        enumerate_distribution(spec, threads=3).entries
        == enumerate_distribution(spec, threads=1).entries
    )


def _standard_orbit_maps(m):
    """Index maps of a -> u a, a -> -a and a -> a^3, built in standard coordinates.

    u (a + u b + u^2 c) = c + u a + u^2 b rotates the triple, negation
    and the Frobenius act coefficientwise, so this route shares nothing
    with the nilpotent coordinates of scalar_orbits.
    """
    ring = get_ring(m)
    triples = [scalar_from_index(m, i) for i in range(3 ** (3 * m))]
    position = {t: i for i, t in enumerate(triples)}
    times_u = np.array([position[(c, a, b)] for a, b, c in triples])
    negated = np.array([position[ring.neg(t)] for t in triples])
    frobenius = np.array([position[ring.frobenius(t)] for t in triples])
    return times_u, negated, frobenius


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("kind", ("lprime", "units"))
def test_scalar_orbits_are_the_weight_classes_of_every_scalar(m, kind):
    # classify every scalar by its leading nonzero nilpotent coordinate and,
    # for lprime, that coordinate's quadratic character: the orbits of L
    F = get_field(m)
    q = F.q

    def label(index):
        for place, c in enumerate((index // (q * q), index // q % q, index % q)):
            if c:
                return place, F.quadratic_character(c) if kind == "lprime" else 1
        return None

    weights = scalar_weights(CodeSpec(m, kind)).tolist()
    classes = {}
    for index, w in enumerate(weights):
        classes.setdefault(label(index), []).append(w)
    reps, sizes = scalar_orbits(m, kind)
    assert len(reps) == {"lprime": 7, "units": 4}[kind] == len(classes)
    assert set(map(label, reps)) == set(classes)
    for rep, size in zip(reps, sizes):
        members = classes[label(rep)]
        assert set(members) == {weights[rep]}
        assert len(members) == size


def test_enumeration_makes_one_lee_weights_call(monkeypatch):
    calls = []
    original = EvalContext.lee_weights

    def counted(ctx, scalars):
        calls.append(len(scalars))
        return original(ctx, scalars)

    monkeypatch.setattr(EvalContext, "lee_weights", counted)
    for kind in ("lprime", "units"):
        enumerate_distribution(CodeSpec(m=3, set_kind=kind))
    assert calls == [7, 4]


@pytest.mark.parametrize("spec", [CodeSpec(m, kind) for m in (1, 2) for kind in ("lprime", "units")], ids=str)
def test_scalar_weights_invariant_under_u_and_negation(spec):
    weights = scalar_weights(spec)
    times_u, negated, _ = _standard_orbit_maps(spec.m)
    assert (weights[times_u] == weights).all()
    assert (weights[negated] == weights).all()


@pytest.mark.parametrize("spec", [CodeSpec(m, kind) for m in (1, 2) for kind in ("lprime", "units")], ids=str)
def test_scalar_weights_invariant_under_frobenius(spec):
    weights = scalar_weights(spec)
    assert (weights[_standard_orbit_maps(spec.m)[2]] == weights).all()


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("kind", ("lprime", "units"))
def test_defining_set_is_frobenius_stable(m, kind):
    # sigma(L) = L, so the Frobenius permutes the coordinates of every codeword
    ring = get_ring(m)
    nil = defining_set(m, kind).nilpotent.tolist()
    images = {ring.to_nilpotent(ring.frobenius(ring.from_nilpotent(t))) for t in map(tuple, nil)}
    assert images == set(map(tuple, nil))


def test_orbit_build_refuses_x1_that_is_not_a_subgroup(monkeypatch):
    # x1 in {1, x}: not closed under products at m = 2, so not the subgroup <gamma>.
    # scalar_orbits is cached per (m, kind), so the build itself is called here;
    # test_subgroup_guard_holds_under_optimize sees the enumeration refuse in a fresh process
    monkeypatch.setattr(weight_dist, "allowed_x1", lambda field, kind: (1, 3))
    with pytest.raises(ArithmeticError, match="not the subgroup"):
        scalar_orbits.__wrapped__(2, "lprime")


def test_scalar_orbits_are_built_once_per_degree_and_kind():
    orbits = scalar_orbits(2, "units")
    assert scalar_orbits(np.int64(2), "units") is orbits
    assert type(orbits) is tuple and all(type(part) is tuple for part in orbits)


def test_subgroup_guard_holds_under_optimize():
    script = """
from cubicode import weight_dist
from cubicode.bounds import verdict
from cubicode.trace_code import CodeSpec
print("debug", __debug__)
weight_dist.allowed_x1 = lambda field, kind: (1, 3)
try:
    weight_dist.enumerate_distribution(CodeSpec(m=2))
except ArithmeticError:
    print("refused")
else:
    print("accepted")
"""
    status, out, err = python("-O", "-c", script)
    assert status == 0, err
    assert out.split("\n")[:2] == ["debug False", "refused"]


@pytest.mark.parametrize("kind", ("lprime", "units"))
def test_reference_scalar_weights_equal_lee_weights_m3(kind):
    spec = CodeSpec(m=3, set_kind=kind)
    weights = scalar_weights(spec)
    assert scalar_weights(spec) is weights and not weights.flags.writeable
    sample = np.array(random.Random(5).sample(range(3**9), 200))
    assert get_eval_context(3, kind).lee_weights(sample).tolist() == weights[sample].tolist()


@pytest.mark.parametrize("kind", ("lprime", "units"))
def test_orbit_histogram_equals_every_scalar_m3(kind):
    spec = CodeSpec(m=3, set_kind=kind)
    values, counts = np.unique(scalar_weights(spec), return_counts=True)
    every = dict(zip(values.tolist(), counts.tolist()))
    for threads in (1, 2):
        assert enumerate_distribution(spec, threads=threads).entries == every


def test_formula_m3_two_weight_shapes():
    lp = formula_distribution(CodeSpec(m=3, set_kind="lprime")).entries
    assert lp == {0: 1, 18954: 19656, 19683: 26}
    un = formula_distribution(CodeSpec(m=3, set_kind="units")).entries
    assert un == {0: 1, 37908: 19656, 39366: 26}


@pytest.mark.parametrize("m", (4, 8))
def test_lprime_multiple_of_four_answers(m):
    spec = CodeSpec(m=m, set_kind="lprime")
    dist = formula_distribution(spec)
    assert dist.entries == charsum_distribution(spec).entries
    assert len(dist.entries) == 4
    assert "note" not in {f.name for f in dataclasses.fields(dist)}
    assert verdict(spec).d == dist.min_nonzero_weight == 3 ** (3 * m) - 3 ** (5 * m // 2)


def test_both_signs_of_the_gauss_sum_give_one_even_m_distribution():
    # the proof in formula_distribution, in integers: the squares and the
    # nonsquares have z = (q - 3 +- 2G)/6 trace-0 elements, G = +-3^{m/2}
    for m in range(2, 201, 2):
        q = 3**m
        x1 = (q - 1) // 2
        weights = []
        for g in (3 ** (m // 2), -(3 ** (m // 2))):
            zs = [(q - 3 + 2 * sign * g) // 6 for sign in (1, -1)]
            assert [(q - 3 + 2 * sign * g) % 6 for sign in (1, -1)] == [0, 0]
            weights.append(sorted(3 * q * q * (x1 - z) for z in zs))
        assert weights[0] == weights[1]
        low, high = weights[0]
        expected = {0: 1, low: x1, q**3 - q**2: q**3 - q, high: x1}
        assert formula_distribution(CodeSpec(m=m, set_kind="lprime")).entries == expected


@pytest.mark.parametrize("kind", ("lprime", "units"))
def test_orbit_weights_equal_the_closed_form_m4(kind):
    # brute force outside the scope cap, over the grid X1 x F x F, since both of these refuse m = 4
    for refused in (defining_set, get_eval_context):
        with pytest.raises(ValueError):
            refused(4, kind)
    reps, sizes = scalar_orbits(4, kind)
    counts: dict[int, int] = {}
    for w, size in zip(EvalContext(4, allowed_x1(get_field(4), kind)).lee_weights(reps).tolist(), sizes):
        counts[w] = counts.get(w, 0) + size
    assert counts == formula_distribution(CodeSpec(4, kind)).entries


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_distribution(CodeSpec(m=4))
    for threads in (0, -3):
        with pytest.raises(ValueError):
            enumerate_distribution(CodeSpec(m=1), threads=threads)


def test_enumeration_loads_no_pool_machinery():
    # every enumeration runs in process: no worker pool module is imported
    script = """
import sys
import cubicode
from cubicode.trace_code import CodeSpec
from cubicode.weight_dist import enumerate_distribution
enumerate_distribution(CodeSpec(3, "lprime"), threads=2)
print(sorted(n for n in sys.modules if n.split(".")[0] in ("multiprocessing", "concurrent")))
"""
    status, out, err = python("-c", script)
    assert status == 0, err
    assert out == "[]\n"


def test_a_wrong_number_of_orbit_weights_is_an_arithmetic_error():
    # not the ValueError of a strict zip, which the CLI would report as a usage error
    for weights in ([0, 18], [0, 18, 18, 27, 18, 18, 27, 27]):
        with pytest.raises(ArithmeticError, match=f"{len(weights)} orbit weights for 7 orbits"):
            weight_dist._finish(weights, CodeSpec(m=1), "enumerated")


def test_invariants_hold_under_optimize():
    # python -O strips assert statements; the invariant checks must survive
    script = """
from cubicode.trace_code import CodeSpec
from cubicode.closed_form import _finish, _validate
print("debug", __debug__)
checks = (
    # one corrupted orbit weight (the last (0, 0, c) orbit, 27 -> 28) breaks the first moment
    lambda: _finish([0, 18, 18, 27, 18, 18, 28], CodeSpec(m=1), "enumerated"),
    # a corrupted count breaks the coverage check
    lambda: _validate({0: 1, 18: 25, 27: 2}, 1, "lprime"),
    # two weights for the 7 orbits of lprime at m = 1
    lambda: _finish([0, 18], CodeSpec(m=1), "enumerated"),
)
for check in checks:
    try:
        check()
    except ArithmeticError as exc:
        print("refused", exc)
    else:
        print("accepted")
"""
    status, out, err = python("-O", "-c", script)
    assert status == 0, err
    assert out.split("\n")[:4] == [
        "debug False",
        "refused first moment identity violated",
        "refused frequencies must cover all scalars",
        "refused 2 orbit weights for 7 orbits",
    ]


@pytest.mark.parametrize("m", (2, 4))
def test_charsum_with_swapped_classes_keeps_the_histogram_but_not_the_orbit_weights(monkeypatch, m):
    # the squares' and nonsquares' (0, 0, c) orbits have one size, so only the orbit weights see the swap
    spec = CodeSpec(m, "lprime")
    formula = formula_distribution(spec)
    squares, nonsquares = weight_dist._period_counts(m)
    monkeypatch.setattr(weight_dist, "_period_counts", lambda m: (nonsquares, squares))
    swapped = charsum_distribution(spec)
    assert swapped.entries == formula.entries
    assert swapped.orbit_weights != formula.orbit_weights
    assert swapped.orbit_weights == tuple(formula.orbit_weights[i] for i in (0, 4, 5, 6, 1, 2, 3))


@pytest.mark.parametrize("kind", ("lprime", "units"))
def test_the_routes_give_one_weight_per_orbit_and_agree(kind):
    for m in range(1, 9):
        spec = CodeSpec(m, kind)
        formula = formula_distribution(spec)
        assert len(formula.orbit_weights) == len(weight_dist.orbit_sizes(m, kind)) == {"lprime": 7, "units": 4}[kind]
        assert charsum_distribution(spec).orbit_weights == formula.orbit_weights
        if m <= 3:
            assert enumerate_distribution(spec).orbit_weights == formula.orbit_weights
            assert weight_dist.orbit_sizes(m, kind) == scalar_orbits(m, kind)[1]


def test_first_moment_identity():
    for (kind, m), entries in FROZEN.items():
        N = code_length(m, kind)
        assert sum(w * f for w, f in entries.items()) == 2 * N * 3 ** (3 * m - 1)


# the quadratic Gauss sum G = (-1)^{m-1} (1 + 2 omega)^m at m = 1..8, as (a, b) meaning a + b omega
GAUSS_SUMS = [(1, 2), (3, 0), (-3, -6), (-9, 0), (9, 18), (27, 0), (-27, -54), (-81, 0)]


def test_gauss_periods_closed_forms():
    for m, g in enumerate(GAUSS_SUMS, start=1):
        gp = gauss_periods(np.int64(m))
        assert gp.gauss_sum == g
        (a, b), (c, d) = gp.squares, gp.nonsquares
        assert (a + c, b + d) == (-1, 0)
        assert (a - c, b - d) == g
        # the norm a^2 - a b + b^2 of a + b omega is |G|^2 = q
        assert g[0] ** 2 - g[0] * g[1] + g[1] ** 2 == 3**m
        if m % 2 == 0:
            assert g == ((1 if m % 4 == 2 else -1) * 3 ** (m // 2), 0)
        fields = (gp.m, *gp.gauss_sum, *gp.squares, *gp.nonsquares)
        assert all(type(x) is int for x in fields)


@pytest.mark.parametrize("m", range(1, 9))
def test_period_counts_equal_trace_table_counts(m):
    F = get_field(m)
    squares, nonsquares = weight_dist._period_counts(m)
    for counts, elements in ((squares, F.squares()), (nonsquares, F.nonsquares())):
        assert counts.tolist() == np.bincount(F.trace_table[list(elements)], minlength=3).tolist()
    # the numeric route: a + b omega is the direct sum of omega^tr(x) over the class
    gp = gauss_periods(m)
    for (a, b), elements in ((gp.squares, F.squares()), (gp.nonsquares, F.nonsquares())):
        direct = vector_char_sum(F.trace_table[list(elements)])
        assert abs(a + b * OMEGA[1] - direct) < 1e-9


@pytest.mark.parametrize("bad", [0, -1, 9, True, 2.0, "3", None])
def test_gauss_periods_refuse_bad_degrees(bad):
    # answers for 1 and 2 must not stand in for True and 2.0, which equal them
    gauss_periods(1)
    gauss_periods(2)
    with pytest.raises(ValueError):
        gauss_periods(bad)


# (class, change of (c_0, c_1, c_2)), each keeping the class size: a shift of
# c_0, then c_1 != c_2 at the same c_0 - c_1, then c_1 - c_2 moved by 2
PERTURBATIONS = [(0, (2, -1, -1)), (1, (2, -1, -1)), (0, (1, 1, -2)), (0, (0, 1, -1))]


@pytest.mark.parametrize("side,change", PERTURBATIONS)
@pytest.mark.parametrize("m", range(1, 7))
def test_gauss_periods_check_the_counts_exactly(monkeypatch, m, side, change):
    counts = list(weight_dist._period_counts(m))
    counts[side] = counts[side] + change
    monkeypatch.setattr(weight_dist, "_period_counts", lambda _: tuple(counts))
    with pytest.raises(ArithmeticError, match="trace counts"):
        gauss_periods(m)


@pytest.mark.parametrize("m", (1, 3, 5))
def test_gauss_periods_check_the_sign_of_odd_periods(monkeypatch, m):
    # c_1 and c_2 swapped: the conjugate periods, right in size, wrong in sign
    conjugate = tuple(counts[[0, 2, 1]] for counts in weight_dist._period_counts(m))
    monkeypatch.setattr(weight_dist, "_period_counts", lambda _: conjugate)
    with pytest.raises(ArithmeticError, match="trace counts"):
        gauss_periods(m)


def test_exact_period_check_holds_under_optimize():
    script = """
from cubicode import weight_dist
from cubicode.bounds import verdict
print("debug", __debug__)
original = weight_dist._period_counts
for m, change in ((2, (1, 1, -2)), (3, (0, 1, -1))):
    squares, nonsquares = original(m)
    weight_dist._period_counts = lambda _, w=(squares + change, nonsquares): w
    try:
        weight_dist.gauss_periods(m)
    except ArithmeticError as error:
        print("refused" if "trace counts" in str(error) else "other")
    else:
        print("accepted")
"""
    status, out, err = python("-O", "-c", script)
    assert status == 0, err
    assert out.split("\n")[:3] == ["debug False", "refused", "refused"]


def test_vector_char_sum():
    assert vector_char_sum([0, 0, 0]) == pytest.approx(3)
    assert abs(vector_char_sum([0, 1, 2])) < 1e-12
    with pytest.raises(ValueError):
        vector_char_sum([0, 3])


def test_char_sum_weight_equals_direct_weight_m1():
    for kind in ("lprime", "units"):
        spec = CodeSpec(m=1, set_kind=kind)
        assert char_sum_weights(spec).tolist() == scalar_weights(spec).tolist()


def test_codeword_char_sum_takes_an_array_of_indices():
    spec = CodeSpec(m=1, set_kind="lprime")
    theta = weight_dist.codeword_char_sum(spec, np.array([0, 13, 26]))
    assert theta.shape == (3, 2) and theta.dtype.kind == "i"
    # ev(0) is the zero word: theta(0) = N + 0 omega
    assert theta[0].tolist() == [code_length(1, "lprime"), 0]
    words = get_eval_context(1, "lprime").trace_triples([13, 26])
    for word, (a, b) in zip(words, theta[1:].tolist()):
        assert a + b * OMEGA[1] == pytest.approx(vector_char_sum(word.reshape(-1)))


def test_charsum_distribution_m2():
    spec = CodeSpec(m=2, set_kind="lprime")
    assert charsum_distribution(spec).entries == FROZEN[("lprime", 2)]
    with pytest.raises(ValueError, match=r"^Gauss periods: supported for m <= 8, got m=9$"):
        charsum_distribution(CodeSpec(m=9))


@pytest.mark.parametrize("kind", ["lprime", "units"])
def test_charsum_equals_enumeration_and_the_extrapolated_formula(kind):
    for m in range(1, 9):
        spec = CodeSpec(m=m, set_kind=kind)
        dist = charsum_distribution(spec)
        assert dist.method == "charsum"
        assert dist.entries == formula_distribution(spec).entries
        if m <= 3:
            assert dist.entries == enumerate_distribution(spec).entries


def test_charsum_builds_no_field_and_no_evaluator(monkeypatch):
    specs = [CodeSpec(m=m, set_kind=kind) for m in (1, 3, 4) for kind in ("lprime", "units")]
    want = [formula_distribution(spec).entries for spec in specs]

    def refuse(*args):
        raise AssertionError("the charsum route must not build a field or an evaluator")

    monkeypatch.setattr(weight_dist, "get_field", refuse)
    monkeypatch.setattr(weight_dist, "get_eval_context", refuse)
    assert [charsum_distribution(spec).entries for spec in specs] == want


@pytest.mark.parametrize("t", range(3))
@pytest.mark.parametrize("side", range(2))
@pytest.mark.parametrize("kind,m", [("lprime", 1), ("units", 1), ("lprime", 4), ("units", 5)])
def test_charsum_distribution_checks_the_period_counts(monkeypatch, kind, m, side, t):
    counts = [c.copy() for c in weight_dist._period_counts(m)]
    counts[side][t] += 1
    monkeypatch.setattr(weight_dist, "_period_counts", lambda _: tuple(counts))
    with pytest.raises(ArithmeticError):
        charsum_distribution(CodeSpec(m=m, set_kind=kind))


def test_charsum_period_count_check_holds_under_optimize():
    script = """
from cubicode import weight_dist
from cubicode.bounds import verdict
from cubicode.trace_code import CodeSpec
print("debug", __debug__)
original = weight_dist._period_counts
for t in (0, 1):
    squares, nonsquares = original(1)
    squares = squares.copy()
    squares[t] += 1
    weight_dist._period_counts = lambda _, w=(squares, nonsquares): w
    try:
        weight_dist.charsum_distribution(CodeSpec(m=1))
    except ArithmeticError:
        print("refused")
    else:
        print("accepted")
"""
    status, out, err = python("-O", "-c", script)
    assert status == 0, err
    assert out.split("\n")[:3] == ["debug False", "refused", "refused"]


def test_hamming_identity_on_random_vectors():
    rng = random.Random(17)
    for n in (27, 54):
        for _ in range(50):
            y = np.array([rng.randrange(3) for _ in range(n)])
            total = vector_char_sum(y) + vector_char_sum((2 * y) % 3)
            assert total == pytest.approx(2 * n - 3 * int((y != 0).sum()), abs=1e-9)


def test_serializations(capsys):
    dist = formula_distribution(CodeSpec(m=1))
    csv = distribution_csv(dist)
    assert csv.splitlines()[0] == "weight,frequency"
    assert csv.splitlines()[1:] == ["0,1", "18,24", "27,2"]
    assert main(["weights", "--m", "1", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == {"0": 1, "18": 24, "27": 2}
    assert payload["method"] == dist.method == "formula"
