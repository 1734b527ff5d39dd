import pytest

from cubicode.bounds import (
    closed_form_sum_d_plus_1,
    dual_weight_search,
    griesmer,
    griesmer_sum,
    sphere_packing_t1,
    verdict,
)
from cubicode.trace_code import CodeSpec


def test_griesmer_sum_values():
    assert griesmer_sum(3, 18) == 18 + 6 + 2
    assert griesmer_sum(3, 19) == 19 + 7 + 3
    assert griesmer_sum(6, 486) == 728
    assert griesmer_sum(6, 487) == 734
    with pytest.raises(ValueError):
        griesmer_sum(0, 5)


def test_griesmer_report():
    r = griesmer(27, 3, 18)
    assert r.holds and r.optimal
    r = griesmer(972, 6, 486)
    assert r.holds and not r.optimal
    with pytest.raises(ValueError):
        griesmer(10, 3, 11)


@pytest.mark.parametrize(
    "m,kind,total",
    [
        (1, "lprime", 29),
        (3, "lprime", 28437),
        (1, "units", 55),
        (2, "units", 1947),
        (3, "units", 56867),
    ],
)
def test_closed_form_totals(m, kind, total):
    terms, got = closed_form_sum_d_plus_1(m, kind)
    assert got == total
    assert sum(terms) == total
    assert len(terms) == 3 * m


def test_closed_form_terms_match_direct_ceilings():
    for m, kind, d1 in ((1, "lprime", 19), (1, "units", 37), (2, "units", 1297)):
        terms, _ = closed_form_sum_d_plus_1(m, kind)
        assert list(terms) == [-(-d1 // 3**j) for j in range(3 * m)]


def test_closed_form_refuses_even_m_lprime():
    with pytest.raises(ValueError):
        closed_form_sum_d_plus_1(2, "lprime")


@pytest.mark.parametrize("m, kind", ((1, "bogus"), (0, "units"), (0, "lprime"), (True, "units"), (True, "lprime")))
def test_closed_form_refuses_a_bad_m_or_kind(m, kind):
    with pytest.raises(ValueError):
        closed_form_sum_d_plus_1(m, kind)


def test_closed_form_terms_and_totals_as_two_separate_expansions():
    # the per-family expansions the single c-scaled expression replaced
    def expansion(m, kind):
        if kind == "lprime":
            return tuple(
                3 ** (3 * m - j) - 3 ** (2 * m - j) + 1 if j <= 2 * m else 3 ** (3 * m - j)
                for j in range(3 * m)
            )
        return tuple(
            2 * (3 ** (3 * m - j) - 3 ** (2 * m - j)) + 1 if j <= 2 * m else 2 * 3 ** (3 * m - j)
            for j in range(3 * m)
        )

    for kind, degrees in (("units", range(1, 13)), ("lprime", range(1, 13, 2))):
        for m in degrees:
            terms, total = closed_form_sum_d_plus_1(m, kind)
            assert terms == expansion(m, kind)
            assert total == sum(terms)


def test_sphere_packing():
    # the [13, 10] ternary Hamming code is perfect: equality holds
    assert sphere_packing_t1(13, 10)
    assert not sphere_packing_t1(13, 11)
    # dual parameters of the four base specs never pack a radius-1 ball
    for N, k in ((27, 3), (54, 3), (972, 6), (1944, 6)):
        assert not sphere_packing_t1(N, N - k)
    with pytest.raises(ValueError):
        sphere_packing_t1(0, 0)


@pytest.mark.parametrize("kind", ("lprime", "units"))
@pytest.mark.parametrize("m", (1, 2))
def test_dual_certificates(kind, m):
    cert = dual_weight_search(CodeSpec(m=m, set_kind=kind))
    assert cert.distance == 2
    assert cert.weight1_exhausted
    # the 2u^2 value at the triple of u acts on its middle Gray slot
    q = 3**m
    assert cert.witness == ((0, 1), (3 * q + 1, 2))


def test_dual_witness_block_layout():
    cert = dual_weight_search(CodeSpec(m=1, layout="block"))
    n = 9  # |L'| at m = 1
    assert cert.witness == ((0, 1), (n + 3, 2))


def test_dual_guards():
    assert dual_weight_search(CodeSpec(m=3)).witness == ((0, 1), (82, 2))
    with pytest.raises(ValueError):
        dual_weight_search(CodeSpec(m=4))


def test_dual_witness_annihilates_codewords():
    from cubicode.trace_code import build_code

    for kind in ("lprime", "units"):
        spec = CodeSpec(m=1, set_kind=kind)
        cert = dual_weight_search(spec)
        words = build_code(spec).codewords()
        acc = sum(words[:, p].astype(int) * t for p, t in cert.witness) % 3
        assert not acc.any()


VERDICTS = {
    ("lprime", 1): (27, 3, 18, True),
    ("units", 1): (54, 3, 36, True),
    ("lprime", 2): (972, 6, 486, False),
    ("units", 2): (1944, 6, 1296, True),
    ("lprime", 3): (28431, 9, 18954, True),
    ("units", 3): (56862, 9, 37908, True),
    ("units", 4): (1574640, 12, 1049760, True),
}


@pytest.mark.parametrize("kind,m", sorted(VERDICTS))
def test_verdicts(kind, m):
    N, K, d, optimal = VERDICTS[(kind, m)]
    v = verdict(CodeSpec(m=m, set_kind=kind))
    assert (v.N, v.K, v.d, v.optimal) == (N, K, d, optimal)
    # the certificate is attached wherever G can be built (m <= 3)
    skipped = "dual certificate skipped above the exhaustive range"
    if m <= 3:
        assert v.dual_distance == 2 and v.witness == ((0, 1), (3 * 3**m + 1, 2))
        assert skipped not in v.notes
    else:
        assert v.dual_distance is None and v.witness is None
        assert skipped in v.notes
    assert v.optimal == optimal
    assert v.griesmer_sum_d == griesmer_sum(K, d)


def test_verdict_m2_lprime_sums():
    v = verdict(CodeSpec(m=2, set_kind="lprime"))
    assert (v.griesmer_sum_d, v.griesmer_sum_d1) == (728, 734)
