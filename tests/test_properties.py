"""Property tests of the F_3 row-space algebra the structural checks rest on.

Random small generator matrices are compared with brute force over all
3^k codewords.  Hypothesis runs derandomized with no deadline, so the
examples and the outcome are the same on every run.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cubicode import linalg3, trace_code

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
    perm = np.array(data.draw(st.permutations(range(G.shape[1]))), dtype=np.int64)
    code = all_codewords(G)
    brute = all(tuple(row) in code for row in G[:, perm].tolist())
    assert trace_code._stays_in_code(G, [perm]) == brute


@PROPERTY
@given(ternary_matrices())
def test_rank_is_log3_of_the_codeword_count(G):
    assert 3 ** linalg3.rank(G) == len(all_codewords(G))
