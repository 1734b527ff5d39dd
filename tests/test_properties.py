"""Property tests of the F_3 linear algebra the structural checks and shares rest on.

Random small generator matrices are compared with brute force over all
3^k codewords (the row-space test, the rank and the minimality census), the bit-sliced elimination with a row-by-row reference
elimination and with brute force over all 3^n solutions, and share
reconstruction on random party sets with brute force over the codewords.
The evaluator on random grids x1 x F x F is compared with scalar ring
arithmetic, the nilpotent coordinates and Gray layouts with their
inverses, and the Griesmer sum with its direct definition.
Hypothesis runs derandomized with no deadline, so the examples and the
outcome are the same on every run.
"""

import collections
import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cubicode import bounds, linalg3, sss, trace_code
from cubicode.chain_ring import get_ring
from cubicode.spec import LAYOUTS
from ring_reference import index_of_scalar, scalar_from_index

PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def ternary_matrices(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    return draw(arrays(np.int8, (k, n), elements=st.integers(0, 2)))


def all_codewords(G: np.ndarray) -> set[tuple[int, ...]]:
    msgs = np.array(list(itertools.product(range(3), repeat=G.shape[0])), dtype=np.int64)
    return {tuple(row) for row in ((msgs @ G.astype(np.int64)) % 3).tolist()}


@PROPERTY
@given(st.data())
def test_row_space_test_equals_brute_force_membership(data):
    G = data.draw(ternary_matrices())
    count = data.draw(st.integers(1, 3))
    perms = [np.array(data.draw(st.permutations(range(G.shape[1]))), dtype=np.int64) for _ in range(count)]
    code = all_codewords(G)
    brute = all(tuple(row) in code for perm in perms for row in G[:, perm].tolist())
    assert trace_code._stays_in_code(G, perms) == brute


@PROPERTY
@given(ternary_matrices())
def test_rank_is_log3_of_the_codeword_count(G):
    assert 3 ** linalg3.rank(G) == len(all_codewords(G))


@st.composite
def sparse_matrices(draw, max_rows=8, max_cols=40):
    """k x n trit matrices whose columns are all-zero, sparse or dense."""
    k = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    mat = draw(arrays(np.int8, (k, n), elements=st.integers(0, 2)))
    kinds = draw(arrays(np.int8, n, elements=st.sampled_from([0, 1, 2])))
    sparse_mask = draw(arrays(np.bool_, (k, n), elements=st.booleans()))
    sparse_mask &= draw(arrays(np.bool_, (k, n), elements=st.booleans()))
    mat[:, kinds == 0] = 0
    mat[:, kinds == 1] *= sparse_mask[:, kinds == 1]
    return mat


def reference_row_reduce(mat):
    """Row-by-row Gauss-Jordan elimination mod 3, pivoting on the first nonzero row."""
    a = np.array(mat, dtype=np.int64) % 3
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nonzero = [i for i in range(r, rows) if a[i, c]]
        if not nonzero:
            continue
        sel = nonzero[0]
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, 3)) % 3
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % 3
        pivots.append(c)
        r += 1
    return a.astype(np.int8), pivots


def reference_solve(mat, rhs):
    """Solve by reducing the augmented matrix [mat | rhs]."""
    cols = mat.shape[1]
    red, pivots = reference_row_reduce(np.concatenate([mat, rhs.reshape(-1, 1)], axis=1))
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int8)
    for r, c in enumerate(pivots):
        x[c] = red[r, -1]
    return x


@PROPERTY
@given(st.data())
def test_pivot_search_equals_row_by_row_elimination(data):
    mat = data.draw(sparse_matrices())
    rhs = data.draw(arrays(np.int8, mat.shape[0], elements=st.integers(0, 2)))
    reduced, pivots = linalg3.row_reduce(mat)
    want, want_pivots = reference_row_reduce(mat)
    assert reduced.dtype == np.int8
    assert np.array_equal(reduced, want)
    assert pivots == want_pivots
    assert linalg3.rank(mat) == len(want_pivots)
    for b in (rhs, mat[:, -1]):
        got, expected = linalg3.solve(mat, b), reference_solve(mat, b)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.dtype == np.int8 and np.array_equal(got, expected)


@PROPERTY
@given(st.data())
def test_solve_agrees_with_brute_force_over_all_solutions(data):
    mat = data.draw(sparse_matrices(max_cols=6))
    k, n = mat.shape
    if data.draw(st.booleans()):
        x0 = data.draw(arrays(np.int64, n, elements=st.integers(0, 2)))
        rhs = (mat.astype(np.int64) @ x0) % 3
    else:
        rhs = data.draw(arrays(np.int64, k, elements=st.integers(0, 2)))
    candidates = np.array(list(itertools.product(range(3), repeat=n)), dtype=np.int64)
    solvable = ((candidates @ mat.T.astype(np.int64)) % 3 == rhs).all(axis=1).any()
    x = linalg3.solve(mat, rhs)
    assert (x is None) == (not solvable)
    if x is not None:
        assert (((mat.astype(np.int64) @ x) - rhs) % 3 == 0).all()


@PROPERTY
@given(st.data())
def test_masked_elimination_leaves_the_words_vanishing_on_the_mask(data):
    G = data.draw(ternary_matrices())
    mask = data.draw(arrays(np.bool_, G.shape[1], elements=st.booleans()))
    done, pivots, rest = linalg3.eliminate(linalg3.pack(G), linalg3.bits(mask))
    assert all(mask[c] for c in pivots)
    assert np.array_equal(linalg3.unpack(done, G.shape[1])[:, pivots], np.eye(len(pivots)))
    left = linalg3.unpack(rest, G.shape[1])
    spanned = all_codewords(left) if len(rest) else {(0,) * G.shape[1]}
    assert spanned == {w for w in all_codewords(G) if not any(np.array(w)[mask])}


@st.composite
def point_matrices(draw):
    """Full-rank k x n trit matrices with repeated, proportional and zero columns."""
    k = draw(st.integers(1, 4))
    base = draw(arrays(np.int8, (k, draw(st.integers(k, 6))), elements=st.integers(0, 2)))
    assume(linalg3.rank(base) == k)
    extra = draw(st.lists(st.tuples(st.integers(0, base.shape[1]), st.integers(1, 2)), max_size=6))
    # an extra column is a multiple of a base column, or zero (index past the end)
    cols = [base[:, i] * s % 3 if i < base.shape[1] else np.zeros(k, np.int8) for i, s in extra]
    G = np.column_stack([base, *cols]).astype(np.int8)
    return G[:, draw(st.permutations(range(G.shape[1])))]


def brute_force_census(G):
    """Class representatives, their supports and the covered ones, over all 3^k words."""
    k = G.shape[0]
    msgs = np.array(list(itertools.product(range(3), repeat=k)), dtype=np.int64)[:, ::-1]
    words = (msgs @ G.astype(np.int64)) % 3  # row i is the word of message index i
    reps = [i for i in range(1, 3**k) if i <= int((2 * msgs[i]) % 3 @ 3 ** np.arange(k))]
    supports = {i: frozenset(np.flatnonzero(words[i]).tolist()) for i in reps}
    non_minimal = tuple(
        i for i in reps if any(j != i and supports[j] <= supports[i] for j in reps)
    )
    return reps, words, supports, non_minimal


def assert_census_equals_brute_force(G):
    reps, words, supports, non_minimal = brute_force_census(G)
    weights = [len(supports[i]) for i in reps]
    spec = trace_code.CodeSpec(m=1, set_kind="lprime")
    report, support = sss.minimal_codewords(trace_code.TernaryCode(spec, G))
    assert list(support) == reps
    assert all(np.array_equal(support[i], words[i] != 0) for i in reps)
    assert report.non_minimal_classes == non_minimal
    assert report.minimal_count == len(reps) - len(non_minimal)
    nonzero = [w for w in weights if w]
    assert report.ab_ratio_holds == (bool(nonzero) and 3 * min(nonzero) > 2 * max(nonzero))
    return supports, non_minimal


@PROPERTY
@given(point_matrices())
def test_point_census_equals_brute_force_covering(G):
    assert_census_equals_brute_force(G)


@st.composite
def rank_deficient_matrices(draw):
    """Full-rank rows plus rows in their span, so some classes have empty support."""
    base = draw(point_matrices())
    k = base.shape[0]
    mix = draw(arrays(np.int64, (draw(st.integers(1, 5 - k)), k), elements=st.integers(0, 2)))
    G = np.vstack([base, mix @ base % 3]).astype(np.int8)
    return G[draw(st.permutations(range(G.shape[0])))]


@PROPERTY
@given(rank_deficient_matrices())
def test_point_census_equals_brute_force_on_rank_deficient_g(G):
    supports, non_minimal = assert_census_equals_brute_force(G)
    empty = [i for i, s in supports.items() if not s]
    assert empty
    # an empty support lies inside every other one
    assert set(non_minimal) >= set(supports) - set(empty)


@st.composite
def duplicate_support_matrices(draw):
    """Blocks whose two rows have one support, in an arbitrary basis.

    Block b has rows (1, 1) and (1, 2) over t_b repeated columns, each
    column scaled by 1 or 2: its two rows, and any class that picks one
    row from each of several blocks, share a support with other classes,
    so equal supports occur at several sizes.
    """
    blocks = draw(st.integers(2, 3))
    repeats = draw(st.lists(st.integers(1, 3), min_size=blocks, max_size=blocks))
    n = 2 * sum(repeats)
    G = np.zeros((2 * blocks, n), dtype=np.int64)
    col = 0
    for b, t in enumerate(repeats):
        G[2 * b : 2 * b + 2, col : col + 2 * t] = np.repeat([[1, 1], [1, 2]], t, axis=1)
        col += 2 * t
    G *= draw(arrays(np.int64, n, elements=st.integers(1, 2)))
    # unit lower times unit upper triangular: an invertible change of basis
    k = 2 * blocks
    lower, upper = (draw(arrays(np.int64, (k, k), elements=st.integers(0, 2))) for _ in range(2))
    basis = (np.tril(lower, -1) + np.eye(k, dtype=np.int64)) @ (np.triu(upper, 1) + np.eye(k, dtype=np.int64))
    G = (basis @ G % 3).astype(np.int8)
    return G[:, draw(st.permutations(range(n)))]


@PROPERTY
@given(duplicate_support_matrices())
def test_point_census_equals_brute_force_on_duplicate_supports(G):
    supports, non_minimal = assert_census_equals_brute_force(G)
    count = collections.Counter(supports.values())
    shared = [i for i, s in supports.items() if count[s] > 1]
    assert len({len(supports[i]) for i in shared}) >= 2
    assert set(shared) <= set(non_minimal)


@functools.cache
def m1_code(kind):
    return trace_code.build_code(trace_code.CodeSpec(m=1, set_kind=kind))


@PROPERTY
@given(st.data())
def test_reconstruct_on_random_party_sets_m1(data):
    code = m1_code(data.draw(st.sampled_from(["lprime", "units"])))
    order = data.draw(st.permutations(range(1, code.length)))
    # a short head or a long tail of the order, so both outcomes occur
    cut = data.draw(st.integers(1, code.length - 1))
    party = sorted(order[:cut] if data.draw(st.booleans()) else order[cut - 1 :])
    secret = data.draw(st.integers(0, 2))
    shares = sss.massey_shares(code, secret, seed=data.draw(st.integers(0, 2**32)))
    # qualified iff some codeword nonzero at 0 is zero off {0} and the party set
    outside = np.setdiff1d(np.arange(1, code.length), party)
    words = code.codewords()
    qualified = bool(((words[:, 0] != 0) & ~words[:, outside].any(axis=1)).any())
    picked = {p: shares[p] for p in party}
    if qualified:
        assert sss.reconstruct(picked, code) == secret
    else:
        with pytest.raises(ValueError):
            sss.reconstruct(picked, code)


@PROPERTY
@given(st.data())
def test_eval_context_equals_ring_arithmetic_on_random_coordinates(data):
    m = data.draw(st.integers(1, 2))
    ring = get_ring(m)
    q = ring.field.q
    element = st.integers(0, q - 1)
    # 1 .. 4 repeated and unordered x1 values, 0 allowed, over the grid x1 x F x F
    x1 = data.draw(st.lists(element, min_size=1, max_size=3))
    x1 += data.draw(st.lists(st.sampled_from(x1), max_size=1))
    ctx = trace_code.EvalContext(m, x1)
    coords = [(a, b, c) for a in x1 for b in range(q) for c in range(q)]
    # random scalars, repeats of one hi = a1 q + a2 with varying a3 and
    # possibly every a3 = 0 .. q-1
    hi = data.draw(st.integers(0, q * q - 1))
    scalars = data.draw(st.lists(st.integers(0, q**3 - 1), max_size=12))
    scalars += [hi * q + a3 for a3 in data.draw(st.lists(element, max_size=q + 3))]
    if data.draw(st.booleans()):
        scalars += range(hi * q, hi * q + q)
    scalars = np.array(data.draw(st.permutations(scalars)), dtype=np.int64)
    words = ctx.trace_triples(scalars)
    xs = [ring.from_nilpotent(c) for c in coords]
    for row, index in zip(words.tolist(), scalars.tolist()):
        a = scalar_from_index(m, index)
        assert [tuple(t) for t in row] == [ring.trace(ring.mul(a, x)) for x in xs]
    images = trace_code.gray_image(words, "interleaved")
    assert ctx.lee_weights(scalars).tolist() == (images != 0).sum(axis=1).tolist()


@PROPERTY
@given(st.data())
def test_nilpotent_coordinates_round_trip(data):
    m = data.draw(st.integers(1, 5))
    ring = get_ring(m)
    element = st.integers(0, ring.field.q - 1)
    x = data.draw(st.tuples(element, element, element))
    assert ring.from_nilpotent(ring.to_nilpotent(x)) == x
    assert ring.to_nilpotent(ring.from_nilpotent(x)) == x
    if m <= 3:
        assert scalar_from_index(m, index_of_scalar(m, x)) == x


@PROPERTY
@given(st.data())
def test_gray_layouts_are_permutations_through_gray_positions(data):
    n = data.draw(st.integers(1, 20))
    words = data.draw(arrays(np.int8, (data.draw(st.integers(1, 3)), n, 3), elements=st.integers(0, 2)))
    images = {layout: trace_code.gray_image(words, layout) for layout in LAYOUTS}
    maps = {
        layout: np.array([trace_code.gray_positions(i, layout, n) for i in range(n)])
        for layout in LAYOUTS
    }
    for layout, image in images.items():
        # every position is hit once, and each triple sits at its positions
        assert sorted(maps[layout].reshape(-1).tolist()) == list(range(3 * n))
        assert np.array_equal(image[:, maps[layout]], words)
    # interleaved position 3 i + s holds what block position maps["block"][i, s] holds
    block_at = maps["block"].reshape(-1)
    assert np.array_equal(images["interleaved"], images["block"][:, block_at])
    assert np.array_equal(images["block"], images["interleaved"][:, np.argsort(block_at)])


@PROPERTY
@given(st.integers(1, 40), st.integers(1, 3**60))
# bounds --m 3003 --set units: K = 3m and the two-weight minimum distance
@example(3 * 3003, 2 * (3 ** (3 * 3003) - 3 ** (2 * 3003)))
def test_griesmer_sum_equals_its_direct_definition(K, d):
    assert bounds.griesmer_sum(K, d) == sum(-(-d // 3**j) for j in range(K))
