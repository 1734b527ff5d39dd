"""Acceptance gate: one test per published criterion, at the stated
tolerances and time budgets.  The conftest terminal-summary hook prints
one PASS/FAIL line per criterion at the end of the run."""

import random
import time

import numpy as np

from cubicode.bounds import dual_weight_search, verdict
from cubicode.chain_ring import code_length
from cubicode.cli import _minimality_claim
from cubicode.sss import (
    ab_condition,
    access_structure,
    massey_shares,
    minimal_codewords,
    reconstruct,
)
from cubicode.trace_code import (
    CodeSpec,
    build_code,
    check_group_action,
    check_injectivity,
    check_quasicyclic,
)
from cubicode.weight_dist import (
    charsum_distribution,
    enumerate_distribution,
    formula_distribution,
    gauss_periods,
)
from ring_reference import char_sum_weights, scalar_weights, vector_char_sum

BOTH_KINDS = ("lprime", "units")


def timed(budget_seconds, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"took {elapsed:.2f} s, budget {budget_seconds} s"
    return result


def test_criterion_01_m1_lprime_distribution():
    dist = timed(1.0, lambda: enumerate_distribution(CodeSpec(m=1, set_kind="lprime")))
    assert dist.entries == {0: 1, 18: 24, 27: 2}


def test_criterion_02_m1_units_distribution():
    dist = timed(1.0, lambda: enumerate_distribution(CodeSpec(m=1, set_kind="units")))
    assert dist.entries == {0: 1, 36: 24, 54: 2}


def test_criterion_03_m2_lprime_distribution():
    dist = timed(10.0, lambda: enumerate_distribution(CodeSpec(m=2, set_kind="lprime")))
    assert dist.entries == {0: 1, 486: 4, 648: 720, 972: 4}


def test_criterion_04_m2_units_distribution():
    dist = timed(30.0, lambda: enumerate_distribution(CodeSpec(m=2, set_kind="units")))
    assert dist.entries == {0: 1, 1296: 720, 1458: 8}


def test_criterion_05_formula_equals_enumeration():
    for kind in BOTH_KINDS:
        for m in (1, 2):
            spec = CodeSpec(m=m, set_kind=kind)
            assert (
                formula_distribution(spec).entries
                == enumerate_distribution(spec).entries
            )


def test_criterion_05_m3_enumeration():
    for kind in BOTH_KINDS:
        spec = CodeSpec(m=3, set_kind=kind)
        enumerated = timed(600.0, lambda s=spec: enumerate_distribution(s, threads=4))
        assert enumerated.entries == formula_distribution(spec).entries


def test_criterion_06_charsum_weights_every_scalar():
    for kind in BOTH_KINDS:
        for m in (1, 2):
            spec = CodeSpec(m=m, set_kind=kind)
            # w = (2N - theta(a) - theta(2a)) / 3; residuals >= 1e-6 fail inside
            assert char_sum_weights(spec).tolist() == scalar_weights(spec).tolist()


def test_criterion_07_gauss_periods():
    for m in range(1, 9):
        gp = gauss_periods(m)
        # pairs (a, b) meaning a + b omega, compared exactly
        (a, b), (c, d) = gp.squares, gp.nonsquares
        assert (a + c, b + d) == (-1, 0)
        assert (a - c, b - d) == gp.gauss_sum
        if m % 2 == 0:
            assert gp.gauss_sum == ((1 if m % 4 == 2 else -1) * 3 ** (m // 2), 0)


def test_criterion_08_char_sum_hamming_identity():
    rng = np.random.default_rng(20240814)
    for n in (27, 54, 972):
        for _ in range(1000):
            y = rng.integers(0, 3, size=n)
            total = vector_char_sum(y) + vector_char_sum((2 * y) % 3)
            expected = 2 * n - 3 * int((y != 0).sum())
            assert abs(total - expected) < 1e-6


def test_criterion_09_griesmer_verdicts():
    expected_optimal = {
        ("lprime", 1): True,
        ("lprime", 3): True,
        ("units", 1): True,
        ("units", 2): True,
        ("units", 3): True,
        ("lprime", 2): False,
    }
    for (kind, m), optimal in expected_optimal.items():
        v = verdict(CodeSpec(m=m, set_kind=kind))
        assert v.optimal == optimal, (kind, m)


def test_criterion_10_dual_distance_certificates():
    for kind in BOTH_KINDS:
        for m in (1, 2):
            spec = CodeSpec(m=m, set_kind=kind)
            cert = timed(1.0, lambda s=spec: dual_weight_search(s))
            assert cert.distance == 2
            assert cert.weight1_exhausted
            # value 1 on the triple of the element 1, value 2u^2 on that of u
            q = 3**m
            assert cert.witness == ((0, 1), (3 * q + 1, 2))


def test_criterion_11_structural_invariance():
    for kind in BOTH_KINDS:
        for m in (1, 2, 3):
            assert check_injectivity(CodeSpec(m=m, set_kind=kind))
            assert check_group_action(CodeSpec(m=m, set_kind=kind))
            assert check_quasicyclic(CodeSpec(m=m, set_kind=kind, layout="block"))


def test_criterion_12_first_moment_identity():
    produced = []
    for kind in BOTH_KINDS:
        for m in (1, 2):
            spec = CodeSpec(m=m, set_kind=kind)
            produced.append((spec, enumerate_distribution(spec)))
            produced.append((spec, formula_distribution(spec)))
        produced.append((CodeSpec(m=1, set_kind=kind), charsum_distribution(CodeSpec(m=1, set_kind=kind))))
        produced.append((CodeSpec(m=3, set_kind=kind), formula_distribution(CodeSpec(m=3, set_kind=kind))))
    moments = {}
    for spec, dist in produced:
        N = code_length(spec.m, spec.set_kind)
        moment = sum(w * f for w, f in dist.entries.items())
        assert moment == 2 * N * 3 ** (3 * spec.m - 1), spec
        moments[(spec.set_kind, spec.m)] = moment
    assert moments[("lprime", 1)] == 486
    assert moments[("lprime", 2)] == 472392


def test_criterion_13_minimality_ground_truth():
    for kind in BOTH_KINDS:
        code = build_code(CodeSpec(m=1, set_kind=kind))
        report, support = minimal_codewords(code)
        non_minimal = set(report.non_minimal_classes)
        for i, row in support.items():
            assert row.shape == (code.length,)
            if row.all():
                assert i in non_minimal, "full-support class must be covered"
            else:
                assert i not in non_minimal, "all other classes must be minimal"
        assert not report.ab_ratio_holds
        # the screen discrepancy is recorded as flagged, never as a failure
        assert _minimality_claim(kind, 1)["status"] == "flagged"
    assert ab_condition(formula_distribution(CodeSpec(m=3, set_kind="lprime")).entries)


def test_criterion_14_sss_round_trip():
    rng = random.Random(424242)
    for kind in BOTH_KINDS:
        code = build_code(CodeSpec(m=1, set_kind=kind))
        acc = access_structure(code)
        assert acc.dictators, "dictator set must be nonempty"
        assert acc.minimal_access_sets
        for group in acc.minimal_access_sets:
            for _ in range(50):
                secret = rng.randrange(3)
                shares = massey_shares(code, secret, seed=rng.randrange(1 << 30))
                assert reconstruct({p: shares[p] for p in group}, code) == secret
