import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicode import gf3m
from cubicode.gf3m import GF3m, get_field, smallest_irreducible, trace_form
from cubicode.spec import SCOPE_MAX_M

MAX_DEGREE = SCOPE_MAX_M["extension degree"]

# coefficient tuples (constant term first) of the first monic irreducibles:
# x, x^2 + 1, x^3 + 2x + 1, x^4 + x + 2, x^5 + 2x + 1, x^6 + x + 2,
# x^7 + x^2 + 2, x^8 + x^2 + 2, each with the field's generator: the
# smallest element code that generates the multiplicative group
KNOWN_FIELDS = {
    1: ((0, 1), 2),
    2: ((1, 0, 1), 4),
    3: ((1, 2, 0, 1), 3),
    4: ((2, 1, 0, 0, 1), 3),
    5: ((1, 2, 0, 0, 0, 1), 3),
    6: ((2, 1, 0, 0, 0, 0, 1), 3),
    7: ((2, 0, 1, 0, 0, 0, 0, 1), 5),
    8: ((2, 0, 1, 0, 0, 0, 0, 0, 1), 38),
}


@pytest.mark.parametrize("m, coeffs, generator", [(m, *field) for m, field in sorted(KNOWN_FIELDS.items())])
def test_smallest_irreducible(m, coeffs, generator):
    assert smallest_irreducible(m) == coeffs
    assert get_field(m).modulus == coeffs
    assert get_field(m).generator == generator


def test_element_range_and_low_elements():
    for m in (1, 2, 3):
        F = get_field(m)
        assert list(F.elements())[:3] == [0, 1, 2]
        assert len(list(F.elements())) == 3**m


def test_field_axioms_sampled():
    rng = random.Random(11)
    for m in (2, 3, 4):
        F = get_field(m)
        for _ in range(200):
            x, y, z = (rng.randrange(F.q) for _ in range(3))
            assert F.add(x, y) == F.add(y, x)
            assert F.mul(x, y) == F.mul(y, x)
            assert F.mul(x, F.mul(y, z)) == F.mul(F.mul(x, y), z)
            assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
            assert F.add(x, F.neg(x)) == 0
            assert F.sub(x, y) == F.add(x, F.neg(y))


def test_inverses_exhaustive_m3():
    F = get_field(3)
    for x in range(1, F.q):
        assert F.mul(x, F.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_pow_and_generator_order():
    for m in (1, 2, 3):
        F = get_field(m)
        g = F.generator
        seen = {F.pow(g, e) for e in range(F.q - 1)}
        assert len(seen) == F.q - 1
        assert F.pow(g, F.q - 1) == 1
        assert F.pow(0, 0) == 1 and F.pow(0, 5) == 0


def test_frobenius_is_additive_and_fixes_base():
    rng = random.Random(3)
    for m in (2, 3):
        F = get_field(m)
        for c in (0, 1, 2):
            assert F.frobenius(c) == c
        for _ in range(100):
            x, y = rng.randrange(F.q), rng.randrange(F.q)
            assert F.frobenius(F.add(x, y)) == F.add(F.frobenius(x), F.frobenius(y))
            assert F.frobenius(F.mul(x, y)) == F.mul(F.frobenius(x), F.frobenius(y))


def test_trace_properties():
    for m in (1, 2, 3):
        F = get_field(m)
        values = [F.trace(x) for x in F.elements()]
        assert set(values) <= {0, 1, 2}
        # the trace is onto and balanced: each value q/3 times
        for v in (0, 1, 2):
            assert values.count(v) == F.q // 3
        for x in F.elements():
            assert F.trace(F.frobenius(x)) == F.trace(x)
            assert F.trace(F.add(x, 1)) == (F.trace(x) + F.trace(1)) % 3


def test_quadratic_character():
    for m in (1, 2, 3):
        F = get_field(m)
        sq = F.squares()
        ns = F.nonsquares()
        assert len(sq) == len(ns) == (F.q - 1) // 2
        assert set(sq) | set(ns) == set(range(1, F.q))
        assert set(F.mul(x, x) for x in range(1, F.q)) == set(sq)
        for x in sq:
            assert F.quadratic_character(x) == 1
        for x in ns:
            assert F.quadratic_character(x) == -1
        with pytest.raises(ValueError):
            F.quadratic_character(0)


def test_quadratic_character_multiplicative():
    rng = random.Random(5)
    F = get_field(3)
    for _ in range(200):
        x, y = rng.randrange(1, F.q), rng.randrange(1, F.q)
        assert F.quadratic_character(F.mul(x, y)) == (
            F.quadratic_character(x) * F.quadratic_character(y)
        )


def test_numpy_tables_agree_with_scalar_ops():
    for m in range(1, 5):
        F = get_field(m)
        for x in F.elements():
            for y in F.elements():
                assert int(F.mul_table[x, y]) == F.mul(x, y)
                assert int(F.add_table[x, y]) == F.add(x, y)
                assert int(F.trace_mul_table[x, y]) == F.trace(F.mul(x, y))
            assert int(F.trace_table[x]) == F.trace(x)


@pytest.mark.parametrize("name", ("mul_table", "add_table", "trace_table", "trace_mul_table"))
def test_field_tables_are_read_only(name):
    table = getattr(get_field(2), name)
    with pytest.raises(ValueError, match="read-only"):
        table[1] = table[1]  # a writable table would keep its values
    assert getattr(get_field(2), name) is table


@pytest.mark.parametrize("m", range(1, 9))
def test_trace_table_equals_elementwise_trace(m):
    F = get_field(m)
    assert F.trace_table.dtype == np.int8
    assert F.trace_table.tolist() == [F.trace(x) for x in F.elements()]


def test_coeffs_roundtrip():
    F = get_field(3)
    for x in F.elements():
        assert F.from_coeffs(F.coeffs(x)) == x


@pytest.mark.parametrize("bad", [2.0, np.float64(1), 1.5, True, False, np.True_, "1", None])
def test_element_codes_must_be_integers(bad):
    F = get_field(2)
    for op in (F.coeffs, F.neg, F.inv, F.quadratic_character, lambda x: F.mul(x, 2),
               lambda x: F.mul(2, x), lambda x: F.add(x, 1), lambda x: F.pow(x, 2)):
        with pytest.raises(ValueError, match="is not an element code"):
            op(bad)
    with pytest.raises(ValueError, match="exponent"):
        F.pow(3, bad)
    with pytest.raises(ValueError, match="exponent"):
        F.pow(0, bad)
    with pytest.raises(ValueError, match="integer coefficients"):
        F.from_coeffs([bad, 1])
    with pytest.raises(ValueError, match="integer coefficients"):
        F.from_coeffs([1, bad])


def test_numpy_integer_codes_give_python_ints():
    F = get_field(2)
    coeffs = F.coeffs(np.int64(5))
    assert coeffs == (2, 1) and all(type(c) is int for c in coeffs)
    for digits in (np.array([2, 1]), [np.int8(2), np.uint16(1)]):
        code = F.from_coeffs(digits)
        assert code == 5 and type(code) is int
    assert F.mul(np.int8(5), np.uint64(5)) == F.mul(5, 5)
    assert type(F.add(np.int64(4), 8)) is int and F.add(np.int64(4), 8) == F.add(4, 8)
    assert F.neg(np.int32(7)) == F.neg(7)
    power = F.pow(np.int64(5), np.int8(2))
    assert power == F.pow(5, 2) and type(power) is int
    with pytest.raises(ValueError):
        F.coeffs(np.int64(9))


def test_degree_guard():
    with pytest.raises(ValueError):
        GF3m(0)
    with pytest.raises(ValueError):
        GF3m(9)


@pytest.mark.parametrize("bad", [0, -1, 9, True, 2.0])
@pytest.mark.parametrize("function", [smallest_irreducible, trace_form, GF3m])
def test_degree_must_be_an_integer_in_range(function, bad):
    # cached answers for 1 and 2 must not stand in for True and 2.0, which equal them
    trace_form(1)
    trace_form(2)
    with pytest.raises(ValueError, match="extension degree"):
        function(bad)


# x^2, x^2 - 1 = (x - 1)(x + 1), x^3 + x + 1 (root 1) and (x^2 + 1)^2, which has no root
@pytest.mark.parametrize("m,modulus", [(2, (0, 0, 1)), (2, (2, 0, 1)), (3, (1, 1, 0, 1)), (4, (1, 0, 2, 0, 1))])
def test_a_reducible_modulus_is_refused(monkeypatch, m, modulus):
    # no element of F_3[x]/(f) has order 3^m - 1 unless f is irreducible, and
    # the bounded walk stops on the zero divisors, which never return to 1
    monkeypatch.setattr(gf3m, "smallest_irreducible", lambda degree: modulus)
    with pytest.raises(ArithmeticError, match="gives no field"):
        GF3m(m)


def test_irreducible_counts_per_degree():
    # (1/d) sum_{e | d} mu(d/e) 3^e monic irreducibles of degree d
    assert [len(gf3m._irreducibles(d)) for d in range(1, 5)] == [3, 3, 8, 18]


@pytest.mark.parametrize("m", range(1, MAX_DEGREE + 1))
def test_trace_form_holds_the_power_sums(m):
    F = get_field(m)
    B = trace_form(m)
    assert B.shape == (m, m) and B.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        B[0, 0] = B[0, 0]
    # x, the root of the modulus, is the element code 3, or 0 when the modulus is x itself
    x = 3 if m > 1 else 0
    power_sums = [F.trace(F.pow(x, k)) for k in range(2 * m - 1)]
    assert [int(B[i, j]) for i in range(m) for j in range(m)] == [
        power_sums[i + j] for i in range(m) for j in range(m)
    ]
    assert trace_form(m) is B


@pytest.mark.parametrize("m", range(1, 6))
def test_trace_form_gives_the_trace_of_every_product(m):
    F = get_field(m)
    digits = np.arange(F.q)[:, None] // 3 ** np.arange(m) % 3
    assert np.array_equal(digits @ trace_form(m) @ digits.T % 3, F.trace_mul_table)


def poly_mul_mod(F, x, y):
    """x * y by schoolbook multiplication of digit polynomials, reduced by the modulus."""
    a, b = F.coeffs(x), F.coeffs(y)
    prod = [0] * (2 * F.m - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % 3
    for top in range(len(prod) - 1, F.m - 1, -1):
        c = prod[top]
        for j, mj in enumerate(F.modulus):
            prod[top - F.m + j] = (prod[top - F.m + j] - c * mj) % 3
    return F.from_coeffs(prod[: F.m])


def poly_pow_mod(F, x, e):
    out = 1
    while e:
        if e & 1:
            out = poly_mul_mod(F, out, x)
        x = poly_mul_mod(F, x, x)
        e >>= 1
    return out


@pytest.mark.parametrize("m", range(1, MAX_DEGREE + 1))
def test_log_tables_equal_the_raw_multiplication_walk(m):
    F = get_field(m)
    # the generator is the first element of order q - 1
    n = F.q - 1
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
    assert F.generator == next(
        g for g in range(2, F.q) if all(poly_pow_mod(F, g, n // p) != 1 for p in primes)
    )
    # exp and log walk the powers of the generator by raw multiplication
    exp, log, val = [], [-1] * F.q, 1
    for i in range(F.q - 1):
        exp.append(val)
        log[val] = i
        val = poly_mul_mod(F, val, F.generator)
    assert val == 1
    assert F._exp == exp and F._log == log


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_field_ops_equal_raw_polynomial_arithmetic(data):
    F = get_field(data.draw(st.integers(1, MAX_DEGREE)))
    x, y = (data.draw(st.integers(0, F.q - 1)) for _ in range(2))
    assert F.mul(x, y) == poly_mul_mod(F, x, y)
    assert F.coeffs(F.add(x, y)) == tuple((a + b) % 3 for a, b in zip(F.coeffs(x), F.coeffs(y)))
    if x:
        assert poly_mul_mod(F, x, F.inv(x)) == 1
