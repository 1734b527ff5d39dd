import itertools
import random
import tracemalloc

import numpy as np
import pytest

from cubicode import linalg3
from cubicode.spec import KINDS, LAYOUTS
from cubicode.sss import (
    AccessStructure,
    MinimalityReport,
    _point_table,
    _trits,
    ab_condition,
    access_structure,
    massey_shares,
    minimal_codewords,
    minimality_report,
    reconstruct,
)
from cubicode.trace_code import CodeSpec, TernaryCode, build_code
from cubicode.weight_dist import formula_distribution

SMALL_SPECS = [
    CodeSpec(m=m, set_kind=kind, layout=layout)
    for m, kind, layout in itertools.product((1, 2), KINDS, LAYOUTS)
]


def class_representatives(k):
    """Ascending message indices representing each projective class {c, 2c}, c != 0, by brute force."""
    digits = 3 ** np.arange(k)
    msgs = np.arange(1, 3**k)
    partners = (2 * (msgs[:, None] // digits) % 3) @ digits
    return msgs[msgs <= partners]


def table_census(code):
    """The census on rows of the codeword table, one packed-row pass per class."""
    reps = class_representatives(code.dimension)
    rows = code.codewords()[reps] != 0
    packed = np.packbits(rows, axis=1)
    non_minimal = [
        i
        for i, row in zip(reps.tolist(), packed)
        if np.count_nonzero(~(packed & ~row).any(axis=1)) > 1
    ]
    report = MinimalityReport(
        ab_ratio_holds=ab_condition(rows.sum(axis=1).tolist()),
        minimal_count=len(reps) - len(non_minimal),
        non_minimal_classes=tuple(non_minimal),
    )
    return report, dict(zip(reps.tolist(), rows))


def table_access_structure(code):
    report, support = table_census(code)
    excluded = set(report.non_minimal_classes)
    sets = {
        tuple((np.flatnonzero(row[1:]) + 1).tolist())
        for i, row in support.items()
        if row[0] and i not in excluded
    }
    ordered = tuple(sorted(sets, key=lambda s: (len(s), s)))
    dictators = set(ordered[0]).intersection(*ordered[1:]) if ordered else set()
    return AccessStructure(
        secret_position=0, minimal_access_sets=ordered, dictators=tuple(sorted(dictators))
    )


@pytest.mark.parametrize("k", range(1, 7))
def test_point_tables_equal_the_brute_force(k):
    place, normal, reps, rows, digits = _point_table(k)
    assert np.array_equal(reps, class_representatives(k))
    want_digits = np.arange(3**k)[:, None] // 3 ** np.arange(k) % 3
    assert rows.dtype == np.float32 and rows.flags.c_contiguous
    assert np.array_equal(rows, want_digits[reps])
    assert digits.dtype == np.float32 and np.array_equal(digits, want_digits.T)
    assert np.array_equal(place, 3 ** np.arange(k))
    # each label goes to the smaller of itself and its double, which is 0 or a representative
    double = (2 * want_digits % 3) @ 3 ** np.arange(k)
    assert np.array_equal(normal, np.minimum(np.arange(3**k), double))
    assert set(normal.tolist()) == {0, *reps.tolist()}


def test_point_tables_are_read_only_and_built_once():
    table = _point_table(3)
    assert _point_table(3) is table
    for array in table:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1


def test_ab_condition():
    assert ab_condition({0: 1, 1296: 720, 1458: 8})
    assert not ab_condition({0: 1, 18: 24, 27: 2})  # boundary: 54 == 54
    assert ab_condition({0: 1, 18954: 19656, 19683: 26})


def test_minimality_census_m1():
    for kind in ("lprime", "units"):
        code = build_code(CodeSpec(m=1, set_kind=kind))
        report, support = minimal_codewords(code)
        assert not report.ab_ratio_holds
        assert report.minimal_count == 12
        assert report.non_minimal_classes == (13,)
        # the covered class is exactly the full-support one
        assert support[13].shape == (code.length,) and support[13].all()
        assert not any(support[i].all() for i in support if i != 13)


def test_minimality_census_m2():
    report, _ = minimal_codewords(build_code(CodeSpec(m=2, set_kind="units")))
    assert report.ab_ratio_holds
    assert report.minimal_count == 364
    assert report.non_minimal_classes == ()

    report, support = minimal_codewords(build_code(CodeSpec(m=2, set_kind="lprime")))
    assert not report.ab_ratio_holds
    assert report.minimal_count == 362
    assert len(report.non_minimal_classes) == 2
    assert all(support[i].shape == (972,) and support[i].all() for i in report.non_minimal_classes)


def test_census_answers_on_a_rank_deficient_g_that_passes_the_screen():
    # rows g and 2g: the nonzero codewords g, 2g share one support, so the
    # screen holds, while the classes y and y + (1, 1) are one codeword and
    # the weight-0 class (1, 1) lies inside the three others
    code = TernaryCode(CodeSpec(m=1), np.array([[1, 1, 1], [2, 2, 2]], dtype=np.int8))
    report, support = minimal_codewords(code)
    assert report.ab_ratio_holds
    assert report.minimal_count == 1
    assert report.non_minimal_classes == (1, 3, 5)
    assert not support[4].any()


def test_census_on_an_all_zero_g_covers_every_class():
    assert not ab_condition([0, 0])
    report, support = minimal_codewords(TernaryCode(CodeSpec(m=1), np.zeros((2, 3))))
    assert not report.ab_ratio_holds
    assert report.minimal_count == 0
    assert report.non_minimal_classes == (1, 3, 4, 5)
    assert not any(row.any() for row in support.values())


def test_minimality_guard():
    with pytest.raises(ValueError):
        minimal_codewords(build_code(CodeSpec(m=3)))


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_point_census_equals_codeword_table_census(spec):
    code = build_code(spec)
    report, support = minimal_codewords(code)
    want_report, want_support = table_census(code)
    assert report == want_report
    assert list(support) == list(want_support)
    for i, row in support.items():
        assert row.dtype == np.bool_ and row.shape == (code.length,)
        assert np.array_equal(row, want_support[i])
    assert access_structure(code) == table_access_structure(code)


@pytest.mark.parametrize("k,seed", [(5, 0), (6, 1), (6, 2)])
def test_point_census_on_a_hyperplane_and_points_off_it(k, seed):
    # every column of the hyperplane x_{k-1} = 0, the point e_{k-1} and a few
    # random columns, in random coordinates: the classes vanishing on the
    # hyperplane have tiny supports that other classes cover, and the
    # distinct points fill several uint64 words
    rng = np.random.default_rng(seed)
    digits = np.arange(1, 3 ** (k - 1))[:, None] // 3 ** np.arange(k) % 3
    cols = np.column_stack([digits.T, np.eye(k, dtype=np.int64)[:, -1], rng.integers(0, 3, (k, 5))])
    basis = rng.integers(0, 3, (k, k))
    while linalg3.rank(basis) < k:
        basis = rng.integers(0, 3, (k, k))
    G = (basis @ cols % 3)[:, rng.permutation(cols.shape[1])].astype(np.int8)
    code = TernaryCode(CodeSpec(m=2), G)
    report, support = minimal_codewords(code)
    want_report, want_support = table_census(code)
    assert report == want_report and report.non_minimal_classes
    assert list(support) == list(want_support)
    assert all(np.array_equal(support[i], want_support[i]) for i in support)
    assert access_structure(code) == table_access_structure(code)


@pytest.mark.parametrize("seed", [0, 1])
def test_census_covers_a_level_wider_than_a_block(seed):
    # one column per point of PG(4, 3) with y_5 = 0, and two columns off that
    # hyperplane: the weights are 2, 81 (40 classes), 82 (162) and 83 (161),
    # and every class of weight 83 is covered: tested against the 203 rows of
    # the levels below it, the whole top level of 161 rows must come out
    # non-minimal, as in the census on the codeword table
    digits = np.arange(1, 3**5)[:, None] // 3 ** np.arange(5) % 3
    lead = digits[np.arange(len(digits)), np.argmax(digits != 0, axis=1)]
    hyperplane = np.column_stack([digits[lead == 1], np.zeros(121, dtype=np.int64)])
    cols = np.vstack([hyperplane, [[1, 1, 2, 2, 2, 1], [2, 1, 2, 1, 2, 1]]]).T
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, 3, (6, 6))
    while linalg3.rank(basis) < 6:
        basis = rng.integers(0, 3, (6, 6))
    G = (basis @ cols % 3)[:, rng.permutation(cols.shape[1])].astype(np.int8)
    code = TernaryCode(CodeSpec(m=2), G)
    report, support = minimal_codewords(code)
    want_report, want_support = table_census(code)
    assert report == want_report
    assert len(report.non_minimal_classes) == 161 and report.minimal_count == 203
    assert all(np.array_equal(support[i], want_support[i]) for i in support)
    assert access_structure(code) == table_access_structure(code)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_minimality_report_is_the_census_report(spec):
    code = build_code(spec)
    assert minimality_report(code) == minimal_codewords(code)[0]


def test_census_never_builds_the_codeword_table(monkeypatch):
    want = {spec: (minimal_codewords(build_code(spec))[0], access_structure(build_code(spec)))
            for spec in SMALL_SPECS}

    def refuse(self):
        raise AssertionError("the codeword table was built")

    monkeypatch.setattr(TernaryCode, "codewords", refuse)
    for spec in SMALL_SPECS:
        code = build_code(spec)
        assert minimal_codewords(code)[0] == want[spec][0]
        assert access_structure(code) == want[spec][1]


def test_access_structure_m1_lprime():
    acc = access_structure(build_code(CodeSpec(m=1, set_kind="lprime")))
    assert acc.secret_position == 0
    assert len(acc.minimal_access_sets) == 8
    assert acc.dictators == (10, 23)
    for group in acc.minimal_access_sets:
        assert 0 not in group
        assert all(1 <= p <= 26 for p in group)
        assert set(acc.dictators) <= set(group)


def test_build_code_leaves_the_party_tuple_unbuilt():
    code = build_code(CodeSpec(m=2, set_kind="units"))
    assert "parties" not in vars(code)
    assert code.parties == tuple(range(1, code.length))
    assert code.parties is code.parties


@pytest.mark.parametrize("kind", KINDS)
def test_access_sets_hold_the_code_party_ints_m2(kind):
    code = build_code(CodeSpec(m=2, set_kind=kind))
    code.parties  # built before tracing: only the access structure is measured
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        acc = access_structure(code)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = sum(map(len, acc.minimal_access_sets))
    # a tuple slot is 8 bytes; a fresh int per entry would add 28 more
    assert retained < 10 * entries
    for group in (*acc.minimal_access_sets, acc.dictators):
        assert all(p is code.parties[p - 1] for p in group)
    shares = massey_shares(code, 1, seed=0)
    assert all(p is code.parties[p - 1] for p in shares)


def test_dictator_columns_are_proportional_to_the_secret_column():
    # the Gray image repeats the secret column up to scalar at u x and u^2 x;
    # a lone dictator is still unqualified: no codeword is zero off {0, p}
    code = build_code(CodeSpec(m=1, set_kind="lprime"))
    G = code.generators.astype(int)
    acc = access_structure(code)
    col0 = G[:, 0]
    shares = massey_shares(code, 1, seed=0)
    for p in acc.dictators:
        col = G[:, p]
        assert any(((lam * col0) % 3 == col).all() for lam in (1, 2))
        with pytest.raises(ValueError):
            reconstruct({p: shares[p]}, code)


def test_massey_shares_deterministic_and_complete():
    code = build_code(CodeSpec(m=1, set_kind="units"))
    a = massey_shares(code, 2, seed=99)
    b = massey_shares(code, 2, seed=99)
    assert a == b
    assert sorted(a) == list(range(1, code.length))
    assert set(a.values()) <= {0, 1, 2}
    assert massey_shares(code, 2, seed=100) != a
    with pytest.raises(ValueError):
        massey_shares(code, 3)
    for secret in (True, False):
        with pytest.raises(ValueError):
            massey_shares(code, secret)


def list_built_massey_shares(code, secret, seed):
    """The dealing with its pivots, slot and parties rebuilt from lists on every call."""
    reduced, pivots = linalg3.row_reduce(code.generators)
    rows = reduced[: len(pivots)]
    j = int(np.flatnonzero(rows[0, 1:])[0]) + 1
    x = _trits(random.Random(seed), code.length).astype(np.int64)
    x[pivots] = 0
    x[j] = 0
    partial = rows @ x
    x[j] = (-int(rows[0, j]) * (secret + partial[0])) % 3
    x[pivots] = -(partial + rows[:, j] * x[j]) % 3
    return dict(enumerate(x[1:].tolist(), start=1))


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_massey_shares_equal_the_list_built_dealing(spec):
    code = build_code(spec)
    for seed in (0, 1, 7, 2024, 2**40 + 3):
        for secret in (0, 1, 2):
            got = massey_shares(code, secret, seed=seed)
            want = list_built_massey_shares(code, secret, seed)
            assert list(got.items()) == list(want.items())
            assert all(type(v) is int for v in got.values())


def test_massey_shares_refuse_codes_without_a_secret_slot():
    spec = CodeSpec(m=1)
    # column 0 is zero
    with pytest.raises(ValueError, match="no secret slot"):
        massey_shares(TernaryCode(spec, np.array([[0, 1, 2], [0, 0, 1]], dtype=np.int8)), 1)
    # e_0 = (1, 0, 0) is a codeword, so row 0 of the reduced form is e_0
    with pytest.raises(ValueError, match="e_0 is a codeword"):
        massey_shares(TernaryCode(spec, np.array([[1, 1, 2], [2, 1, 2]], dtype=np.int8)), 1)


def test_round_trip_every_access_set():
    rng = random.Random(2024)
    for kind in ("lprime", "units"):
        code = build_code(CodeSpec(m=1, set_kind=kind))
        acc = access_structure(code)
        assert acc.minimal_access_sets
        for group in acc.minimal_access_sets:
            for _ in range(5):
                secret = rng.randrange(3)
                shares = massey_shares(code, secret, seed=rng.randrange(1 << 30))
                picked = {p: shares[p] for p in group}
                assert reconstruct(picked, code) == secret


def test_reconstruct_rejects_unqualified_sets():
    code = build_code(CodeSpec(m=1, set_kind="lprime"))
    shares = massey_shares(code, 1, seed=1)
    with pytest.raises(ValueError):
        reconstruct({1: shares[1]}, code)
    with pytest.raises(ValueError):
        reconstruct({}, code)
    with pytest.raises(ValueError):
        reconstruct({0: 1}, code)
    with pytest.raises(ValueError):
        reconstruct({1: 5}, code)
    # parties 3 .. N-1 reconstruct, so next to them only the bad position can fail
    qualified = {p: v for p, v in shares.items() if p > 2}
    for bad in ({1.5: 0}, {True: shares[1]}, {"a": 1}, {2.0: shares[2]}, {1 << 70: 0}, {-(1 << 70): 0}):
        with pytest.raises(ValueError):
            reconstruct(bad, code)
        with pytest.raises(ValueError):
            reconstruct({**qualified, **bad}, code)
    # share values must be exact ints in 0 .. 2: no float, bool or numpy trit
    for value in (float(shares[1]), bool(shares[1] % 2), np.int8(shares[1]), 300, -1, 1 << 70):
        with pytest.raises(ValueError):
            reconstruct({1: value}, code)
        with pytest.raises(ValueError):
            reconstruct({**qualified, 1: value}, code)
        with pytest.raises(ValueError):
            reconstruct({**qualified, 3: value}, code)
    # the full party set always reconstructs
    assert reconstruct(shares, code) == 1


def test_reconstruct_refuses_values_bytes_would_accept():
    code = build_code(CodeSpec(m=1, set_kind="lprime"))
    shares = massey_shares(code, 1, seed=1)
    qualified = {p: v for p, v in shares.items() if p > 2}
    # 255 fits a byte but is no trit; numpy integers pass bytes() by __index__
    for value in (255, 3, np.uint8(shares[1]), np.uint8(255)):
        for bad in ({1: value}, {**qualified, 1: value}, {**qualified, 3: value}):
            with pytest.raises(ValueError, match="share values must be trits"):
                reconstruct(bad, code)
    assert reconstruct(qualified, code) == 1


def qualified_by_brute_force(code, party):
    """Some codeword nonzero at 0 is zero off {0} and the party set."""
    words = code.codewords()
    outside = np.setdiff1d(np.arange(1, code.length), party)
    return bool(((words[:, 0] != 0) & ~words[:, outside].any(axis=1)).any())


def test_round_trips_interleaved_across_codes_and_party_sets():
    # requests in random order on the four m = 1 codes: each minimal set,
    # that set minus a party and a superset of it, three secrets at a time,
    # each sent to its code and then to the code of the other layout, where
    # the same party mask has another recombination row.  A row kept for
    # another code or another party set answers or refuses wrongly
    codes = {(spec.set_kind, spec.layout): build_code(spec) for spec in SMALL_SPECS if spec.m == 1}
    rng = random.Random(19)
    requests = []
    for (kind, layout), code in codes.items():
        sibling = codes[kind, next(other for other in LAYOUTS if other != layout)]
        for group in access_structure(code).minimal_access_sets:
            superset = tuple(sorted({*group, *rng.sample(range(1, code.length), 3)}))
            requests += [((code, party), (sibling, party)) for party in (group, group[1:], superset)]
    rng.shuffle(requests)
    outcomes = set()
    for request in requests:
        for code, party in request:
            qualified = qualified_by_brute_force(code, party)
            outcomes.add(qualified)
            for secret in rng.sample(range(3), 3):
                shares = massey_shares(code, secret, seed=rng.randrange(1 << 30))
                picked = {p: shares[p] for p in party}
                if qualified:
                    assert reconstruct(picked, code) == secret
                else:
                    with pytest.raises(ValueError, match="cannot reconstruct"):
                        reconstruct(picked, code)
    assert outcomes == {True, False}


def test_reconstruct_eliminates_once_per_run_of_one_party_set(monkeypatch):
    code, other = (build_code(CodeSpec(m=1, set_kind="units")) for _ in range(2))
    first, second = access_structure(code).minimal_access_sets[:2]
    code.reduction(), other.reduction()  # row_reduce eliminates too
    calls = []
    eliminate = linalg3.eliminate
    monkeypatch.setattr(linalg3, "eliminate", lambda *args: calls.append(1) or eliminate(*args))
    for party, want in ((first, 1), (first[1:], 2), (second, 3), (first, 4)):
        for secret in (0, 1, 2):
            shares = massey_shares(code, secret, seed=secret)
            try:
                assert reconstruct({p: shares[p] for p in party}, code) == secret
            except ValueError:
                assert party == first[1:]
        assert len(calls) == want
    # another code with the same party set keeps its own row
    shares = massey_shares(other, 2, seed=0)
    assert reconstruct({p: shares[p] for p in first}, other) == 2
    assert len(calls) == 5


@pytest.mark.parametrize("kind,support_parties", [("lprime", 647), ("units", 1295)])
def test_reconstruct_m2_codeword_supports(kind, support_parties):
    # c = yG with c_0 != 0 is zero off {0} and T = supp(c) \ {0}, so T is
    # qualified; c is minimal, so no codeword nonzero at 0 is zero off {0}
    # and T minus one party, and that set is unqualified
    code = build_code(CodeSpec(m=2, set_kind=kind))
    G = code.generators.astype(np.int64)
    rng = np.random.default_rng(5)
    y = rng.integers(0, 3, code.dimension)
    while y @ G[:, 0] % 3 == 0:
        y = rng.integers(0, 3, code.dimension)
    support = (np.flatnonzero((y @ G % 3)[1:]) + 1).tolist()
    assert len(support) == support_parties
    for secret in (0, 1, 2):
        shares = massey_shares(code, secret, seed=int(rng.integers(1 << 30)))
        assert reconstruct({p: shares[p] for p in support}, code) == secret
        dropped = support[int(rng.integers(len(support)))]
        with pytest.raises(ValueError):
            reconstruct({p: shares[p] for p in support if p != dropped}, code)


def test_access_sets_minus_one_party_are_unqualified_m1():
    for kind in ("lprime", "units"):
        code = build_code(CodeSpec(m=1, set_kind=kind))
        shares = massey_shares(code, 2, seed=11)
        for group in access_structure(code).minimal_access_sets:
            for dropped in group:
                with pytest.raises(ValueError):
                    reconstruct({p: shares[p] for p in group if p != dropped}, code)


def test_access_sets_minus_one_party_are_unqualified_m2_sample():
    rng = random.Random(2027)
    for kind in ("lprime", "units"):
        code = build_code(CodeSpec(m=2, set_kind=kind))
        for group in rng.sample(access_structure(code).minimal_access_sets, 60):
            shares = massey_shares(code, rng.randrange(3), seed=rng.randrange(1 << 30))
            dropped = rng.choice(group)
            with pytest.raises(ValueError):
                reconstruct({p: shares[p] for p in group if p != dropped}, code)


def test_round_trip_every_access_set_m2():
    rng = random.Random(2026)
    trips = 0
    for kind in ("lprime", "units"):
        code = build_code(CodeSpec(m=2, set_kind=kind))
        for group in access_structure(code).minimal_access_sets:
            secret = rng.randrange(3)
            shares = massey_shares(code, secret, seed=rng.randrange(1 << 30))
            assert reconstruct({p: shares[p] for p in group}, code) == secret
            trips += 1
    assert trips == 484


def test_superset_of_minimal_set_reconstructs():
    code = build_code(CodeSpec(m=1, set_kind="lprime"))
    acc = access_structure(code)
    group = set(acc.minimal_access_sets[0]) | {1, 2, 3}
    shares = massey_shares(code, 2, seed=7)
    assert reconstruct({p: shares[p] for p in sorted(group)}, code) == 2


def test_ab_screen_consistent_with_census_at_m3_arithmetic():
    # exact arithmetic on the closed form: the screen holds at m=3 lprime
    entries = formula_distribution(CodeSpec(m=3, set_kind="lprime")).entries
    assert ab_condition(entries)
