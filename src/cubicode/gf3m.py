"""Exact arithmetic in F_3 and its degree-m extensions F_{3^m}.

Field elements are encoded as integers in [0, 3^m): the base-3 digits of
the code are the coefficients of the element in the polynomial basis,
constant term in the least significant digit.  Every degree uses a fixed
modulus, the first monic irreducible polynomial of that degree in the
same digit encoding, so element codes, orderings and exports are
reproducible across runs.

Multiplication, inversion and the quadratic character run over
discrete-log tables for a fixed primitive element, the smallest element
code of order 3^m - 1.  One bounded walk of a candidate's powers decides
that and is the exp table; it also proves that the modulus gives a field,
since only then does an element of that order exist.  Supported degrees
are those of the "extension degree" scope of spec.SCOPE_MAX_M (1..8,
fields up to 6561 elements); everything is exact integer arithmetic.

The trace needs no field: trace_form(m) is the matrix of the bilinear
form tr(y z) in the polynomial basis, B[i, j] = tr(x^(i+j)), whose
entries are power sums of the roots of the modulus, from its
coefficients by Newton's identities.  trace_table and the Gauss periods
(weight_dist.gauss_periods) read the trace from it.
"""

from __future__ import annotations

import functools

import numpy as np

from .spec import _integer, require_scope


# ---------------------------------------------------------------------------
# polynomial helpers (dense coefficient lists over F_3, constant term first)


def _digits(value: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(value % 3)
        value //= 3
    return out


def _poly_rem(f, g):
    """Remainder of f modulo the monic polynomial g."""
    r = list(f)
    dg = len(g) - 1
    for top in range(len(r) - 1, dg - 1, -1):
        c = r[top]
        if c:
            for j in range(dg + 1):
                r[top - dg + j] = (r[top - dg + j] - c * g[j]) % 3
    out = r[:dg]
    out += [0] * (dg - len(out))
    return out


@functools.lru_cache(maxsize=None)
def _irreducibles(d: int) -> tuple[tuple[int, ...], ...]:
    """The monic irreducibles of degree d in the digit encoding order."""
    monic = (tuple(_digits(tail, d)) + (1,) for tail in range(3**d))
    return tuple(f for f in monic if _is_irreducible(f))


def _is_irreducible(f) -> bool:
    """Monic f over F_3: trial division by the irreducibles up to half its degree.

    The remainders by x, x - 1 and x + 1 are f(0), f(1) and f(-1).
    """
    if len(f) == 2:
        return True
    even, odd = sum(f[::2]), sum(f[1::2])
    if not (f[0] and (even + odd) % 3 and (even - odd) % 3):
        return False
    return all(any(_poly_rem(f, g)) for d in range(2, (len(f) - 1) // 2 + 1) for g in _irreducibles(d))


def per_degree(scope: str = "extension degree"):
    """Cache f(m, *args) once per degree, so np.int64(2) gets the object of 2.

    A typed cache answers repeated calls; on its miss require_scope(scope, m)
    raises ValueError on bools, floats, strings and any m outside the scope's
    row of spec.SCOPE_MAX_M before the per-degree cache.
    """

    def decorate(build):
        cached = functools.lru_cache(maxsize=None)(build)
        front = functools.lru_cache(maxsize=None, typed=True)(lambda m, *args: cached(require_scope(scope, m), *args))
        return functools.wraps(build)(front)

    return decorate


@per_degree()
def smallest_irreducible(m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m in the digit encoding order, found once per degree.

    ValueError unless m is an integer (not a bool) in 1..spec.SCOPE_MAX_M["extension degree"].
    """
    for tail in range(3**m):
        f = tuple(_digits(tail, m)) + (1,)
        if _is_irreducible(f):
            return f
    raise RuntimeError(f"no irreducible polynomial of degree {m}")  # unreachable


@per_degree()
def trace_form(m: int) -> np.ndarray:
    """The (m, m) int64 matrix B of the trace form in the polynomial basis, read-only.

    With x a root of the modulus f, its conjugates x^(3^i) are all the
    roots, so p_k = tr(x^k) is the k-th power sum of the roots of f.
    Newton's identities give the p_k from the coefficients of
    f = x^m + c_1 x^(m-1) + ... + c_m alone:

        p_0 = m,  p_k = -(c_1 p_(k-1) + ... + c_(k-1) p_1 + k c_k)   (k <= m),
        p_k = -(c_1 p_(k-1) + ... + c_m p_(k-m))                      (k > m),

    all mod 3.  B[i, j] = p_(i+j) for k = i + j <= 2m - 2, so for digit
    vectors d(y), d(z) of y and z, tr(y z) = d(y)^T B d(z) mod 3 and
    tr(y) = B[0] . d(y).  B is a Hankel matrix: its row 0 holds
    p_0 .. p_(m-1) and its last row p_(m-1) .. p_(2m-2).  Built once per
    degree; ValueError as smallest_irreducible.
    """
    c = smallest_irreducible(m)[::-1]  # c[j] is the coefficient of x^(m-j), c[0] = 1
    p = [m % 3]
    for k in range(1, 2 * m - 1):
        s = sum(c[j] * p[k - j] for j in range(1, min(k, m + 1)))
        if k <= m:
            s += k * c[k]
        p.append(-s % 3)
    return _read_only(np.array([p[i : i + m] for i in range(m)], dtype=np.int64))


# ---------------------------------------------------------------------------


class GF3m:
    """The finite field F_{3^m} on integer-coded elements.

    Attributes:
        m: extension degree.
        q: field size 3^m.
        modulus: modulus coefficients, constant term first, monic degree m.
        generator: the fixed primitive element behind the log tables.
    """

    def __init__(self, m: int) -> None:
        self.m = m = require_scope("extension degree", m)
        self.q = 3**m
        self.modulus = smallest_irreducible(m)
        self.generator, self._exp, self._log = self._build_log_tables()
        self._tables: dict[str, np.ndarray] = {}

    def __repr__(self) -> str:
        return f"GF3m(m={self.m})"

    # -- encoding ------------------------------------------------------------

    def _check(self, x: int) -> int:
        """x as a Python int; ValueError unless it is an integer in [0, q)."""
        code = x if type(x) is int else _integer(x)
        if code is None or not 0 <= code < self.q:
            raise ValueError(f"{x!r} is not an element code of F_(3^{self.m})")
        return code

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Polynomial-basis coefficients of x, constant term first."""
        return tuple(_digits(self._check(x), self.m))

    def from_coeffs(self, coeffs) -> int:
        digits = [_integer(c) for c in coeffs]
        if len(digits) != self.m or any(c not in (0, 1, 2) for c in digits):
            raise ValueError(f"need {self.m} integer coefficients in {{0, 1, 2}}")
        return sum(c * 3**i for i, c in enumerate(digits))

    def elements(self) -> range:
        """All elements in canonical order (0, 1, 2, x, x+1, ...)."""
        return range(self.q)

    # -- log tables ------------------------------------------------------------

    def _build_log_tables(self):
        """The smallest primitive element g and the exp and log tables of its powers.

        x -> g x is F_3-linear: its matrix has the digits of g x^i as column
        i, each column the one before times the companion matrix of the
        modulus, and applied to every code it tabulates the map.  The walk
        of the powers of g from 1, at most q - 1 steps, is the primitivity
        test: g is primitive iff it first returns to 1 after exactly q - 1
        steps, and then the walk is exp and log its inverse.  A candidate met
        on the walk of an earlier one has an order dividing that one's and is
        skipped.  F_3[x]/(f) has an element of order q - 1 iff f is
        irreducible, so the walk also proves that the modulus gives a field;
        ArithmeticError when no candidate is primitive.
        """
        m, n = self.m, self.q - 1
        place = 3 ** np.arange(m)
        digits = np.arange(self.q)[:, None] // place % 3
        # column i of the companion matrix holds the digits of x x^i: a shift,
        # and x^m = -(f_0 + f_1 x + ... + f_(m-1) x^(m-1)) for the modulus f
        companion = np.array(
            [[int(r == i + 1) for i in range(m - 1)] + [-f % 3] for r, f in enumerate(self.modulus[:m])]
        )
        seen = set()
        for g in range(2, self.q):
            if g in seen:
                continue
            columns = [digits[g]]
            for _ in range(1, m):
                columns.append(companion @ columns[-1] % 3)
            times = (digits @ np.array(columns) % 3 @ place).tolist()
            exp, power = [1], times[1]
            while power != 1 and len(exp) < n:
                exp.append(power)
                power = times[power]
            if power == 1 and len(exp) == n:
                log = [-1] * self.q
                for i, value in enumerate(exp):
                    log[value] = i
                return g, exp, log
            seen.update(exp)
        raise ArithmeticError(f"no element of order {n} modulo {self.modulus}: the modulus gives no field")

    # -- arithmetic -----------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        x, y = self._check(x), self._check(y)
        z, shift = 0, 1
        for _ in range(self.m):
            z += ((x % 3 + y % 3) % 3) * shift
            x //= 3
            y //= 3
            shift *= 3
        return z

    def neg(self, x: int) -> int:
        x = self._check(x)
        z, shift = 0, 1
        for _ in range(self.m):
            z += (-(x % 3) % 3) * shift
            x //= 3
            shift *= 3
        return z

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        x, y = self._check(x), self._check(y)
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        x = self._check(x)
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[(-self._log[x]) % (self.q - 1)]

    def pow(self, x: int, e: int) -> int:
        x = self._check(x)
        k = e if type(e) is int else _integer(e)
        if k is None:
            raise ValueError(f"exponent {e!r} is not an integer")
        if x == 0:
            if k < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0 if k else 1
        return self._exp[(self._log[x] * k) % (self.q - 1)]

    def frobenius(self, x: int) -> int:
        return self.pow(x, 3)

    def trace(self, x: int) -> int:
        """Absolute trace to F_3: x + x^3 + ... + x^(3^(m-1)).  Returns 0, 1 or 2."""
        acc, t = 0, x
        for _ in range(self.m):
            acc = self.add(acc, t)
            t = self.frobenius(t)
        return acc

    def quadratic_character(self, x: int) -> int:
        """+1 on nonzero squares, -1 on nonsquares.  Not defined at 0."""
        x = self._check(x)
        if x == 0:
            raise ValueError("the quadratic character is not defined at 0")
        return 1 if self._log[x] % 2 == 0 else -1

    def squares(self) -> tuple[int, ...]:
        """The (q-1)/2 nonzero squares, ascending."""
        return tuple(sorted(self._exp[i] for i in range(0, self.q - 1, 2)))

    def nonsquares(self) -> tuple[int, ...]:
        return tuple(sorted(self._exp[i] for i in range(1, self.q - 1, 2)))

    # -- bulk tables (lazy, for the vectorized evaluation paths) --------------

    @property
    def mul_table(self) -> np.ndarray:
        """(q, q) int16 product table, read-only.

        One gather from the log tables: exp[(log a + log b) mod (q - 1)],
        with row 0 and column 0 left at 0.
        """
        if "mul" not in self._tables:
            t = np.zeros((self.q, self.q), dtype=np.int16)
            log = np.array(self._log[1:])
            t[1:, 1:] = np.array(self._exp, dtype=np.int16)[(log[:, None] + log) % (self.q - 1)]
            self._tables["mul"] = _read_only(t)
        return self._tables["mul"]

    @property
    def add_table(self) -> np.ndarray:
        """(q, q) int16 sum table, read-only.

        Addition is digitwise mod 3, so the table is built one base-3
        place at a time: the digits of a plus the digits of b, mod 3,
        times the place value.
        """
        if "add" not in self._tables:
            t = np.zeros((self.q, self.q), dtype=np.int16)
            for i in range(self.m):
                digit = np.arange(self.q, dtype=np.int16) // 3**i % 3
                t += (digit[:, None] + digit) % 3 * 3**i
            self._tables["add"] = _read_only(t)
        return self._tables["add"]

    @property
    def trace_table(self) -> np.ndarray:
        """(q,) int8 absolute traces, read-only.

        The trace is F_3-linear, so tr(x) is the digit vector of x dotted
        with the traces p_i = tr(x^i) of the basis elements 3^i, mod 3:
        row 0 of trace_form(m), from Newton's identities on the modulus.
        """
        if "trace" not in self._tables:
            digits = np.arange(self.q)[:, None] // 3 ** np.arange(self.m) % 3
            self._tables["trace"] = _read_only((digits @ trace_form(self.m)[0] % 3).astype(np.int8))
        return self._tables["trace"]

    @property
    def trace_mul_table(self) -> np.ndarray:
        """(q, q) int8 table of trace(x*y), read-only, the workhorse of bulk evaluation."""
        if "trace_mul" not in self._tables:
            self._tables["trace_mul"] = _read_only(self.trace_table[self.mul_table])
        return self._tables["trace_mul"]


def _read_only(table: np.ndarray) -> np.ndarray:
    """The fields are shared through get_field, so their cached tables must not change."""
    table.flags.writeable = False
    return table


@per_degree()
def get_field(m: int) -> GF3m:
    return GF3m(m)
