import random
import re

import numpy as np
import pytest

from cubicode.bounds import closed_form_sum_d_plus_1, griesmer, griesmer_sum
from cubicode.chain_ring import ChainRing, allowed_x1, defining_set, defining_set_generators, get_ring
from cubicode.closed_form import formula_distribution
from cubicode.gf3m import GF3m, get_field, smallest_irreducible, trace_form
from cubicode.spec import KIND_LPRIME, KIND_UNITS, SCOPE_MAX_M, code_length, defining_set_size, require_scope
from cubicode.sss import minimality_report
from cubicode.trace_code import CodeSpec, build_code, get_eval_context
from cubicode.weight_dist import enumerate_distribution, gauss_periods, scalar_orbits
from ring_reference import standard_elements


def test_u_is_a_cube_root_of_unity():
    for m in (1, 2):
        R = get_ring(m)
        u2 = R.mul(R.u, R.u)
        assert u2 == R.u_squared
        assert R.mul(u2, R.u) == R.one
        # u - 1 is nilpotent of index 3: the ring is local
        t = R.sub(R.u, R.one)
        t2 = R.mul(t, t)
        assert t2 != R.zero and R.mul(t2, t) == R.zero


def test_units_are_exactly_nonzero_coefficient_sums():
    R = get_ring(1)
    units = [x for x in R.elements() if R.is_unit(x)]
    assert len(units) == 2 * 9  # (q - 1) q^2 at q = 3
    F = R.field
    for x in R.elements():
        a, b, c = x
        assert R.is_unit(x) == (F.add(F.add(a, b), c) != 0)


def test_nilpotent_coordinates_roundtrip():
    for m in (1, 2):
        R = get_ring(m)
        for x in R.elements():
            assert R.from_nilpotent(R.to_nilpotent(x)) == x
        # multiplication by u - 1 shifts nilpotent coordinates upward
        t = R.sub(R.u, R.one)
        for x in R.elements():
            x1, x2, x3 = R.to_nilpotent(x)
            y = R.to_nilpotent(R.mul(t, x))
            assert y[0] == 0 and y[1] == x1


def test_ring_axioms_sampled():
    rng = random.Random(23)
    for m in (1, 2, 3):
        R = get_ring(m)
        q = R.field.q

        def pick():
            return (rng.randrange(q), rng.randrange(q), rng.randrange(q))

        for _ in range(150):
            x, y, z = pick(), pick(), pick()
            assert R.mul(x, y) == R.mul(y, x)
            assert R.mul(x, R.mul(y, z)) == R.mul(R.mul(x, y), z)
            assert R.mul(x, R.add(y, z)) == R.add(R.mul(x, y), R.mul(x, z))
            assert R.add(x, R.neg(x)) == R.zero
            assert R.mul(x, R.one) == x


def test_trace_agrees_with_frobenius_sum_and_commutes_with_u():
    for m in (1, 2):
        R = get_ring(m)
        for x in R.elements():
            direct = R.trace(x)
            acc, y = R.zero, x
            for _ in range(m):
                acc = R.add(acc, y)
                y = R.frobenius(y)
            assert direct == acc
            assert R.trace(R.mul(R.u, x)) == R.mul(R.u, R.trace(x))


@pytest.mark.parametrize("bad", [0, -1, True, False, 2.5, 2.0, "2", None])
@pytest.mark.parametrize("function", [defining_set_size, code_length, defining_set, get_eval_context])
def test_sizes_need_a_positive_integer_m(function, bad):
    # the cached entry points warm m = 1 and 2 first: True and 2.0 equal them as cache keys
    function(1, KIND_UNITS)
    function(2, KIND_UNITS)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        function(bad, KIND_UNITS)


# every entry point that takes a degree-like positive integer, by one rule (spec.positive_integer)
INTEGER_ENTRY_POINTS = {
    "CodeSpec": CodeSpec,
    "defining_set_size": lambda m: defining_set_size(m, KIND_UNITS),
    "code_length": lambda m: code_length(m, KIND_UNITS),
    "closed_form_sum_d_plus_1": lambda m: closed_form_sum_d_plus_1(m, KIND_UNITS),
    "enumerate_distribution threads": lambda threads: enumerate_distribution(CodeSpec(1), threads=threads),
    "griesmer N": lambda N: griesmer(N, 3, 1),
    "griesmer_sum K": lambda K: griesmer_sum(K, 3),
    "griesmer_sum d": lambda d: griesmer_sum(3, d),
    "require_scope": lambda m: require_scope("closed form", m),
    "gauss_periods": gauss_periods,
    "get_field": get_field,
    "trace_form": trace_form,
    "smallest_irreducible": smallest_irreducible,
    "GF3m": GF3m,
}


@pytest.mark.parametrize("bad", [True, 2.0, "2", 0, -1], ids=repr)
@pytest.mark.parametrize("name", sorted(INTEGER_ENTRY_POINTS))
def test_one_integer_rule_for_degrees(name, bad):
    entry = INTEGER_ENTRY_POINTS[name]
    # a numpy int answers as the Python int, down to the repr (CodeSpec stores m as int)
    assert repr(entry(np.int64(2))) == repr(entry(2))
    with pytest.raises(ValueError, match="must be a positive integer"):
        entry(bad)


# one entry point per row of spec.SCOPE_MAX_M, each refusing the first degree above its cap
SCOPE_ENTRY_POINTS = {
    "extension degree": get_field,
    "defining set": lambda m: defining_set(m, KIND_UNITS),
    "Gauss periods": gauss_periods,
    "closed form": lambda m: formula_distribution(CodeSpec(m)),
    "codeword table": lambda m: build_code(CodeSpec(m)).codewords(),
    "minimality census": lambda m: minimality_report(build_code(CodeSpec(m))),
}


@pytest.mark.parametrize("scope", sorted(SCOPE_MAX_M))
def test_one_refusal_per_scope(scope):
    assert set(SCOPE_ENTRY_POINTS) == set(SCOPE_MAX_M)
    cap = SCOPE_MAX_M[scope]
    message = f"{scope}: supported for m <= {cap}, got m={cap + 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SCOPE_ENTRY_POINTS[scope](cap + 1)


@pytest.mark.parametrize("cached", [get_field, get_ring])
def test_a_numpy_degree_in_the_cache_does_not_answer_a_float(cached):
    cached(np.int64(2))
    for bad in (2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match="extension degree"):
            cached(bad)


def test_one_object_per_degree_whatever_the_integer_type():
    # np.int64(2) and 2 reach one cached object, and that object holds m as a Python int
    two = np.int64(2)
    assert get_field(two) is get_field(2)
    assert trace_form(two) is trace_form(2)
    assert get_ring(two) is get_ring(2)
    assert defining_set(two, KIND_UNITS) is defining_set(2, KIND_UNITS)
    assert get_eval_context(two, KIND_UNITS) is get_eval_context(2, KIND_UNITS)
    assert get_eval_context(two, KIND_UNITS).field is get_field(2)
    assert type(defining_set(two, KIND_LPRIME).m) is int
    for bad in (2.0, True, "2"):
        for entry in (get_field, get_ring):
            with pytest.raises(ValueError):
                entry(bad)
        for entry in (defining_set, get_eval_context):
            with pytest.raises(ValueError):
                entry(bad, KIND_UNITS)


@pytest.mark.parametrize("kind", ("bogus", "LPRIME", ""))
def test_every_kind_entry_point_refuses_an_unknown_kind(kind):
    # allowed_x1 is the one map from a kind to X1; the others reach it
    with pytest.raises(ValueError, match=f"unknown defining set kind {kind!r}"):
        allowed_x1(get_field(1), kind)
    for entry in (defining_set, defining_set_generators, scalar_orbits, get_eval_context):
        with pytest.raises(ValueError, match=f"unknown defining set kind {kind!r}"):
            entry(1, kind)


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("kind", (KIND_LPRIME, KIND_UNITS))
def test_defining_set_shape(m, kind):
    dset = defining_set(m, kind)
    q = 3**m
    expected = (q - 1) // 2 * q * q if kind == KIND_LPRIME else (q - 1) * q * q
    assert len(dset) == expected == defining_set_size(m, kind)
    assert code_length(m, kind) == 3 * expected
    R = get_ring(m)
    elements = standard_elements(dset)
    assert all(R.is_unit(x) for x in elements)
    assert len(set(elements)) == len(dset)
    # canonical ordering anchors: 1 first, u at offset q
    assert elements[0] == R.one
    assert elements[q] == R.u


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("kind", (KIND_LPRIME, KIND_UNITS))
def test_defining_set_array_matches_tuple_construction(m, kind):
    R = get_ring(m)
    F = R.field
    x1_values = F.squares() if kind == KIND_LPRIME else tuple(range(1, F.q))
    nil = [(x1, x2, x3) for x1 in x1_values for x2 in range(F.q) for x3 in range(F.q)]
    dset = defining_set(m, kind)
    assert dset.nilpotent.shape == (len(nil), 3) and len(dset) == len(nil)
    assert dset.nilpotent.tolist() == [list(t) for t in nil]
    assert not dset.nilpotent.flags.writeable
    if m <= 2:
        assert standard_elements(dset) == tuple(R.from_nilpotent(t) for t in nil)


def test_lprime_is_index_two_subgroup():
    m = 2
    R = get_ring(m)
    lprime = set(standard_elements(defining_set(m, KIND_LPRIME)))
    units = set(standard_elements(defining_set(m, KIND_UNITS)))
    assert lprime < units
    assert 2 * len(lprime) == len(units)
    rng = random.Random(7)
    members = sorted(lprime)
    for _ in range(100):
        x, y = rng.choice(members), rng.choice(members)
        assert R.mul(x, y) in lprime
    outside = sorted(units - lprime)
    for _ in range(100):
        x, y = rng.choice(members), rng.choice(outside)
        assert R.mul(x, y) not in lprime


def test_ring_constructor_accepts_degree():
    assert ChainRing(2).field.q == 9
