"""Reference helpers the tests compare the library against.

The library names scalars only by their nilpotent index
(a1 q + a2) q + a3 for a = a1 + a2 (u-1) + a3 (u-1)^2.  The standard
triples (a, b, c) = a + u b + u^2 c, the per-scalar Lee weights, by
brute force and from character sums, and the character sum of a single
vector live here, where the tests use them as independent routes.
"""

import functools

import numpy as np

from cubicode.chain_ring import DefiningSet, code_length, get_ring
from cubicode.trace_code import CodeSpec, get_eval_context
from cubicode.weight_dist import codeword_char_sum

OMEGA = np.exp(2j * np.pi * np.arange(3) / 3)


def scalar_from_index(m: int, index: int) -> tuple[int, int, int]:
    """Standard coordinates of the scalar with the given nilpotent index."""
    ring = get_ring(m)
    q = ring.field.q
    if not 0 <= index < q**3:
        raise ValueError(f"scalar index {index} out of range")
    return ring.from_nilpotent((index // (q * q), (index // q) % q, index % q))


def index_of_scalar(m: int, a) -> int:
    """Nilpotent index of the scalar with standard coordinates a."""
    ring = get_ring(m)
    q = ring.field.q
    x1, x2, x3 = ring.to_nilpotent(a)
    return (x1 * q + x2) * q + x3


def standard_elements(dset: DefiningSet) -> tuple[tuple[int, int, int], ...]:
    """The defining set as standard triples, in its canonical order."""
    ring = get_ring(dset.m)
    return tuple(ring.from_nilpotent(t) for t in map(tuple, dset.nilpotent.tolist()))


def scalar_weights(spec: CodeSpec) -> np.ndarray:
    """Lee weight of ev(a) for every scalar, in nilpotent index order (cached, read-only)."""
    return _scalar_weights(spec.m, spec.set_kind)


@functools.lru_cache(maxsize=None)
def _scalar_weights(m: int, kind: str) -> np.ndarray:
    """Brute force over all scalars by linearity, without EvalContext.lee_weights.

    ev(a) = W1[a1] + W2[a2] + W3[a3] (mod 3) for the words Wk[c] of the 3q
    scalars (c, 0, 0), (0, c, 0), (0, 0, c); a trit of ev(a) is nonzero
    exactly where W1[a1] + W2[a2] differs from -W3[a3].  One a1 at a time
    holds q^2 |L| trits, about 40 MB at m = 3.
    """
    ctx = get_eval_context(m, kind)
    q = ctx.q
    c = np.arange(q)
    w1, w2, w3 = (ctx.trace_triples(c * step).reshape(q, -1) for step in (q * q, q, 1))
    minus_w3 = -w3 % 3
    weights = np.empty((q, q, q), dtype=np.int64)
    for a1 in range(q):
        h = (w1[a1] + w2) % 3
        weights[a1] = (h[:, None, :] != minus_w3).sum(axis=-1)
    weights = weights.reshape(-1)
    weights.flags.writeable = False
    return weights


def char_sum_weights(spec: CodeSpec) -> np.ndarray:
    """Lee weight of ev(a) for every scalar as w = (2N - theta(a) - theta(2a)) / 3.

    sum_{s=1,2} Theta(s y) = 2N - 3 wH(y) for a ternary vector y of length
    N.  theta(2a) is the conjugate of theta(a) = a + b omega, so
    theta(a) + theta(2a) = 2a - b and w = (2N - 2a + b) / 3 in integers.
    A numerator not divisible by 3 fails an assertion.
    """
    a, b = codeword_char_sum(spec, np.arange(3 ** (3 * spec.m))).T
    numerator = 2 * code_length(spec.m, spec.set_kind) - 2 * a + b
    assert not (numerator % 3).any()
    return numerator // 3


def vector_char_sum(y) -> complex:
    """Theta(y) = sum_j omega^{y_j} for a ternary vector y."""
    arr = np.asarray(y, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() > 2):
        raise ValueError("entries must lie in {0, 1, 2}")
    return complex(OMEGA[arr].sum())
