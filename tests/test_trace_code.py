import random

import numpy as np
import pytest

from cubicode import linalg3, trace_code
from cubicode.bounds import dual_weight_search
from cubicode.chain_ring import ChainRing, allowed_x1, defining_set, defining_set_generators, get_ring
from cubicode.trace_code import (
    CodeSpec,
    EvalContext,
    TernaryCode,
    build_code,
    check_group_action,
    check_injectivity,
    check_quasicyclic,
    coordinate_permutation,
    evaluate,
    export_generators,
    get_eval_context,
    gray_image,
    ring_basis,
)
from cubicode.weight_dist import codeword_char_sum, enumerate_distribution
from ring_reference import index_of_scalar, scalar_from_index, standard_elements

ALL_SPECS_M2 = [
    CodeSpec(m=m, set_kind=kind) for m in (1, 2) for kind in ("lprime", "units")
]


def test_spec_validation():
    with pytest.raises(ValueError):
        CodeSpec(m=0)
    with pytest.raises(ValueError):
        CodeSpec(m=True)
    with pytest.raises(ValueError):
        CodeSpec(m=1, set_kind="everything")
    with pytest.raises(ValueError):
        CodeSpec(m=1, layout="diagonal")


def test_gray_image_layouts():
    word = [(1, 2, 0), (0, 1, 2)]
    assert gray_image(word, "interleaved").tolist() == [1, 2, 0, 0, 1, 2]
    assert gray_image(word, "block").tolist() == [1, 0, 2, 1, 0, 2]
    # a stack of words maps to a stack of images
    assert gray_image([word, word[::-1]], "block").tolist() == [
        [1, 0, 2, 1, 0, 2],
        [0, 1, 1, 2, 2, 0],
    ]
    with pytest.raises(ValueError):
        gray_image([1, 2, 0], "interleaved")
    # an empty stack of words maps to an empty stack of images
    for layout in ("interleaved", "block"):
        assert gray_image(np.zeros((0, 2, 3), dtype=np.int8), layout).shape == (0, 6)


def test_gray_positions_refuse_an_unknown_layout():
    assert trace_code.gray_positions(1, "interleaved", 5) == (3, 4, 5)
    assert trace_code.gray_positions(1, "block", 5) == (1, 6, 11)
    with pytest.raises(ValueError, match="unknown layout 'nonsense'"):
        trace_code.gray_positions(1, "nonsense", 5)


@pytest.mark.parametrize("spec", ALL_SPECS_M2, ids=str)
def test_code_shape_and_rank(spec):
    code = build_code(spec)
    dset = defining_set(spec.m, spec.set_kind)
    assert code.dimension == 3 * spec.m
    assert code.length == 3 * len(dset)
    assert linalg3.rank(code.generators) == 3 * spec.m


@pytest.mark.parametrize("layout", ("interleaved", "block"))
def test_generators_match_reference_evaluation(layout):
    for spec in ALL_SPECS_M2:
        dset = defining_set(spec.m, spec.set_kind)
        # the standard basis e_i, u e_i, u^2 e_i, built without ring_basis
        basis = [g for i in range(spec.m) for g in ((3**i, 0, 0), (0, 3**i, 0), (0, 0, 3**i))]
        reference = np.vstack([gray_image(evaluate(g, dset), layout) for g in basis])
        G = build_code(CodeSpec(spec.m, spec.set_kind, layout)).generators
        assert G.dtype == reference.dtype and np.array_equal(G, reference)


def test_generators_and_dual_avoid_scalar_ring_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("scalar ring arithmetic reached")

    monkeypatch.setattr(trace_code, "evaluate", refuse)
    monkeypatch.setattr(ChainRing, "mul", refuse)
    for spec in ALL_SPECS_M2:
        assert build_code(spec).dimension == 3 * spec.m
        assert dual_weight_search(spec).distance == 2


def test_eval_context_matches_reference_evaluation():
    rng = random.Random(31)
    for spec in ALL_SPECS_M2:
        ring = get_ring(spec.m)
        dset = defining_set(spec.m, spec.set_kind)
        ctx = get_eval_context(spec.m, spec.set_kind)
        q = ring.field.q
        indices = [rng.randrange(q**3) for _ in range(12)]
        bulk = ctx.trace_triples(np.array(indices))
        for row, idx in zip(bulk, indices):
            a = scalar_from_index(spec.m, idx)
            reference = evaluate(a, dset)
            assert [tuple(t) for t in row.tolist()] == list(reference)
            lee = sum(3 - triple.count(0) for triple in reference)
            assert int(ctx.lee_weights(np.array([idx]))[0]) == lee


@pytest.mark.parametrize("spec", ALL_SPECS_M2, ids=str)
def test_lee_weights_equal_gray_weight_of_every_word(spec):
    ctx = get_eval_context(spec.m, spec.set_kind)
    every = np.arange(ctx.q**3)
    images = gray_image(ctx.trace_triples(every), "interleaved")
    assert ctx.lee_weights(every).tolist() == (images != 0).sum(axis=1).tolist()


@pytest.mark.parametrize("kind", ("lprime", "units"))
def test_lee_weights_match_reference_evaluation_m3(kind):
    dset = defining_set(3, kind)
    ctx = get_eval_context(3, kind)
    indices = random.Random(3).sample(range(ctx.q**3), 2)
    for idx, row in zip(indices, ctx.trace_triples(indices)):
        reference = evaluate(scalar_from_index(3, idx), dset)
        assert [tuple(t) for t in row.tolist()] == list(reference)
        lee = sum(3 - triple.count(0) for triple in reference)
        assert int(ctx.lee_weights(np.array([idx]))[0]) == lee


@pytest.mark.parametrize("bad", ([-1], [27], [2.7], np.array([0, 27], dtype=np.uint64), [True]), ids=repr)
def test_scalar_indices_must_be_integers_in_range(bad):
    ctx = get_eval_context(1, "lprime")
    for evaluate_scalars in (ctx.trace_triples, ctx.lee_weights):
        with pytest.raises(ValueError, match=r"\[0, 27\)"):
            evaluate_scalars(bad)
    with pytest.raises(ValueError, match=r"\[0, 27\)"):
        codeword_char_sum(CodeSpec(m=1), bad)
    assert ctx.trace_triples([]).shape == (0, ctx.n, 3)
    assert ctx.lee_weights([]).shape == (0,)


def test_key_tables_equal_the_mod_3_formula():
    assert trace_code._TRITS.shape == (105, 3) and trace_code._LEE.shape == (105,)
    for key in range(105):
        t1, t2, t3 = key // 35, key // 7 % 5, key % 7
        trits = [(t1 - t2 + t3) % 3, (t2 + t3) % 3, t3 % 3]
        assert trace_code._TRITS[key].tolist() == trits
        assert trace_code._LEE[key] == sum(t != 0 for t in trits)


def random_x1(m: int, seed: int) -> list[int]:
    """A few x1 values in [0, q), unordered, with 0 and a repeat among them."""
    rng = np.random.default_rng(seed)
    x1 = rng.integers(0, 3**m, int(rng.integers(1, 5))).tolist()
    return x1 + [0, x1[0]]


def grid(ctx: EvalContext) -> np.ndarray:
    """The context's coordinates x1 x F x F as (n, 3) nilpotent triples, built here."""
    q = ctx.q
    return np.stack(np.meshgrid(ctx.x1, np.arange(q), np.arange(q), indexing="ij"), axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("spec", [CodeSpec(m, kind) for m in (1, 2, 3) for kind in ("lprime", "units")], ids=str)
def test_lee_weights_count_the_nonzero_trits_of_trace_triples(spec):
    scalars = np.random.default_rng(spec.m).integers(0, 3 ** (3 * spec.m), 20)
    for ctx in (get_eval_context(spec.m, spec.set_kind), EvalContext(spec.m, random_x1(spec.m, 5))):
        for chunk in (scalars, scalars[:0]):
            words, weights = ctx.trace_triples(chunk), ctx.lee_weights(chunk)
            assert words.dtype == np.int8 and words.shape == (len(chunk), ctx.n, 3)
            assert weights.dtype == np.int64 and weights.shape == (len(chunk),)
            assert weights.tolist() == np.count_nonzero(words, axis=(1, 2)).tolist()


@pytest.mark.parametrize("spec", [CodeSpec(m, kind) for m in (1, 2, 3) for kind in ("lprime", "units")], ids=str)
def test_defining_set_contexts_evaluate_over_the_canonical_grid(spec):
    ctx = get_eval_context(spec.m, spec.set_kind)
    assert ctx.x1.tolist() == list(allowed_x1(ctx.field, spec.set_kind)) and ctx.x1[0] == 1
    coords = grid(ctx)
    assert np.array_equal(coords, defining_set(spec.m, spec.set_kind).nilpotent)
    # coordinate 0 is the ring element 1 and coordinate q is u
    ring = get_ring(spec.m)
    assert ring.from_nilpotent(tuple(coords[0].tolist())) == ring.one
    assert ring.from_nilpotent(tuple(coords[ctx.q].tolist())) == ring.u


def eval_context_arrays(ctx: EvalContext) -> dict[str, np.ndarray]:
    return {name: value for name, value in vars(ctx).items() if isinstance(value, np.ndarray)}


def test_eval_context_arrays_are_read_only():
    G = build_code(CodeSpec(1, "units")).generators
    for ctx in (get_eval_context(1, "units"), EvalContext(2, random_x1(2, 1))):
        arrays = eval_context_arrays(ctx)
        for array in arrays.values():
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1
        assert set(arrays) == {"x1"}
    # the cached context behind every units m = 1 code is unchanged
    assert np.array_equal(build_code(CodeSpec(1, "units")).generators, G)
    assert enumerate_distribution(CodeSpec(1, "units")).entries == {0: 1, 36: 24, 54: 2}


def test_eval_context_owns_its_coordinates():
    x1 = np.array(random_x1(2, 3))
    ctx = EvalContext(2, x1)
    scalars = np.arange(3**6)
    words, weights = ctx.trace_triples(scalars), ctx.lee_weights(scalars)
    assert not np.shares_memory(ctx.x1, x1)
    x1[:] = x1[::-1] // 2
    assert np.array_equal(ctx.trace_triples(scalars), words)
    assert np.array_equal(ctx.lee_weights(scalars), weights)


@pytest.mark.parametrize(
    "bad",
    (
        # take would wrap -1 to 2: it would pass as a square
        [-1],
        [3],
        [1.7],
        [True],
        np.array([1], dtype=object),
        np.array([2**63], dtype=np.uint64),
    ),
    ids=("negative", "q", "float", "bool", "object", "uint64"),
)
def test_coordinates_must_be_integers_in_range(bad):
    with pytest.raises(ValueError, match=r"x1 values must be integers in \[0, q\) = \[0, 3\)"):
        EvalContext(1, bad)


def test_lee_weights_accept_repeated_unordered_scalars():
    for spec in ALL_SPECS_M2 + [CodeSpec(m=3, set_kind="lprime")]:
        ctx = get_eval_context(spec.m, spec.set_kind)
        q = ctx.q
        rng = random.Random(11)
        # same hi = a1 q + a2 in separate runs, repeats, descending indices
        picked = [rng.randrange(q**3) for _ in range(40)]
        chunk = np.array(picked + picked[::-1] + [q * 5 + 1, q * 5, 0, q * 5 + 1, 0])
        chunk %= q**3
        expected = [int(ctx.lee_weights(np.array([i]))[0]) for i in chunk.tolist()]
        assert ctx.lee_weights(chunk).tolist() == expected
        images = gray_image(ctx.trace_triples(chunk), "interleaved")
        assert expected == (images != 0).sum(axis=1).tolist()
    assert get_eval_context(1, "lprime").lee_weights(np.array([], dtype=np.int64)).shape == (0,)


def test_scalar_index_roundtrip():
    for m in (1, 2):
        total = 3 ** (3 * m)
        for idx in random.Random(9).sample(range(total), min(40, total)):
            assert index_of_scalar(m, scalar_from_index(m, idx)) == idx
    assert scalar_from_index(1, index_of_scalar(1, (1, 0, 0))) == (1, 0, 0)
    with pytest.raises(ValueError):
        scalar_from_index(1, 27)


def test_ring_basis_spans_per_power_groups():
    basis = ring_basis(2)
    assert len(basis) == 6
    standard = [scalar_from_index(2, g) for g in basis]
    assert standard[:3] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert standard[3:] == [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    for m in (1, 3):
        assert [scalar_from_index(m, g) for g in ring_basis(m)] == [
            t for i in range(m) for t in ((3**i, 0, 0), (0, 3**i, 0), (0, 0, 3**i))
        ]


@pytest.mark.parametrize("layout", ("interleaved", "block"))
def test_codes_of_one_spec_share_a_read_only_generator_matrix(layout):
    spec = CodeSpec(2, "units", layout)
    first, second = build_code(spec), build_code(spec)
    assert first is not second and first.generators is second.generators
    with pytest.raises(ValueError, match="read-only"):
        first.generators[0, 0] = first.generators[0, 0]
    for code in (first, second):
        assert "parties" not in vars(code)
        assert code.recombination is None and code._reduction is None and code._codewords is None
    first.reduction()
    first.parties
    assert second._reduction is None and "parties" not in vars(second)
    assert build_code(CodeSpec(2, "lprime", layout)).generators is not first.generators


def test_codeword_message_encoding():
    code = build_code(CodeSpec(m=1))
    words = code.codewords()
    assert words.shape == (27, 27)
    G = code.generators
    # message index 5 = digits (2, 1, 0): row is 2 g0 + g1
    expected = (2 * G[0].astype(int) + G[1].astype(int)) % 3
    assert words[5].tolist() == expected.tolist()
    assert (words[1:] != 0).any(axis=1).all()  # only the zero word is zero
    # the whole int8 table equals the message-matrix product, m <= 2
    for spec in ALL_SPECS_M2:
        code = build_code(spec)
        k = code.dimension
        msgs = (np.arange(3**k)[:, None] // 3 ** np.arange(k)[None, :]) % 3
        reference = (msgs.astype(np.int64) @ code.generators.astype(np.int64)) % 3
        table = code.codewords()
        assert table.dtype == np.int8 and np.array_equal(table, reference)


def test_export_generators_format():
    code = build_code(CodeSpec(m=1, set_kind="units", layout="block"))
    text = export_generators(code)
    lines = text.splitlines()
    assert lines[0] == "# ternary code N=54 k=3 layout=block m=1 set=units"
    assert len(lines) == 4
    assert all(len(row) == 54 and set(row) <= set("012") for row in lines[1:])
    assert text == export_generators(build_code(CodeSpec(m=1, set_kind="units", layout="block")))
    assert text.endswith("\n")


@pytest.mark.parametrize("spec", ALL_SPECS_M2, ids=str)
def test_injectivity(spec):
    assert check_injectivity(spec)


def test_injectivity_negative_controls(monkeypatch):
    def inject(ctx):  # G evaluated over a degenerate context, in place of the cached G
        monkeypatch.setattr(trace_code, "_cached_generators", lambda m, kind, layout: trace_code._generator_matrix(ctx, layout))

    # x1 = 0: every coordinate lies in <u-1>, so the zero divisor
    # (u-1)^2, nilpotent (0, 0, 1), maps to the zero word
    inject(EvalContext(1, [0]))
    assert not check_injectivity(CodeSpec(m=1))
    # x1 = 1 alone: a = (0, 0, a3) with tr(a3) = 0, a3 != 0, maps to the zero word
    inject(EvalContext(2, [1]))
    assert not check_injectivity(CodeSpec(m=2))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="defining set: supported for m <= 3"):
        check_injectivity(CodeSpec(m=4))


def test_group_action_exhaustive_m1():
    assert check_group_action(CodeSpec(m=1, set_kind="lprime"))
    assert check_group_action(CodeSpec(m=1, set_kind="units"))


def test_group_action_sampled_m2():
    assert check_group_action(CodeSpec(m=2, set_kind="lprime"))


@pytest.mark.parametrize("spec", ALL_SPECS_M2, ids=str)
def test_generators_close_to_exactly_the_defining_set(spec):
    ring = get_ring(spec.m)
    gens = [ring.from_nilpotent(v) for v in defining_set_generators(spec.m, spec.set_kind)]
    assert len(gens) == 2 * spec.m + 1
    closure, frontier = {ring.one}, [ring.one]
    while frontier:
        frontier = {ring.mul(x, g) for x in frontier for g in gens} - closure
        closure |= frontier
    assert closure == set(standard_elements(defining_set(spec.m, spec.set_kind)))


@pytest.mark.parametrize("spec", ALL_SPECS_M2, ids=str)
def test_generator_check_equals_every_element_check(spec):
    # the per-element reference: one permutation per v in L
    code = build_code(spec)
    slots = np.arange(3)
    perms = (
        (3 * coordinate_permutation(spec, v)[:, None] + slots).reshape(-1)
        for v in map(tuple, defining_set(spec.m, spec.set_kind).nilpotent.tolist())
    )
    assert check_group_action(spec) == trace_code._stays_in_code(code.generators, perms)


@pytest.mark.parametrize("spec", [CodeSpec(2, "units"), CodeSpec(3, "lprime")], ids=str)
def test_group_action_builds_one_permutation_per_generator(spec, monkeypatch):
    seen = []

    def counted(spec, v):
        seen.append(v)
        return coordinate_permutation(spec, v)

    monkeypatch.setattr(trace_code, "coordinate_permutation", counted)
    assert check_group_action(spec)
    assert seen == list(defining_set_generators(spec.m, spec.set_kind))
    assert len(seen) == 2 * spec.m + 1


def test_group_action_rejects_a_generator_that_leaves_the_code(monkeypatch):
    # swapping two set positions is no code automorphism
    def swap_first_two(spec, v):
        perm = np.arange(len(defining_set(spec.m, spec.set_kind)))
        perm[[0, 1]] = perm[[1, 0]]
        return perm

    monkeypatch.setattr(trace_code, "coordinate_permutation", swap_first_two)
    assert not check_group_action(CodeSpec(m=2, set_kind="units"))


@pytest.mark.parametrize("spec", ALL_SPECS_M2, ids=str)
def test_coordinate_permutation_matches_ring_multiplication(spec):
    ring = get_ring(spec.m)
    dset = defining_set(spec.m, spec.set_kind)
    elements = standard_elements(dset)
    position = {x: i for i, x in enumerate(elements)}
    for v in defining_set_generators(spec.m, spec.set_kind) + (tuple(dset.nilpotent[-1].tolist()),):
        sv = ring.from_nilpotent(v)
        expected = [position[ring.mul(sv, x)] for x in elements]
        assert coordinate_permutation(spec, v).tolist() == expected


def test_coordinate_permutation_refuses_elements_outside_the_stabilizer():
    F = get_ring(2).field
    nonsquare = F.nonsquares()[0]
    with pytest.raises(ValueError):
        coordinate_permutation(CodeSpec(m=2, set_kind="lprime"), (nonsquare, 0, 0))
    assert coordinate_permutation(CodeSpec(m=2, set_kind="units"), (nonsquare, 0, 0)).shape == (648,)


def test_quasicyclic_shift():
    assert check_quasicyclic(CodeSpec(m=1, set_kind="lprime", layout="block"))
    assert check_quasicyclic(CodeSpec(m=2, set_kind="units", layout="block"))
    with pytest.raises(ValueError):
        check_quasicyclic(CodeSpec(m=1, layout="interleaved"))


def test_row_space_test_rejects_permutations_that_leave_the_code():
    G = build_code(CodeSpec(m=2, set_kind="lprime")).generators
    swap = np.arange(G.shape[1])
    swap[[0, 4]] = swap[[4, 0]]
    assert not trace_code._stays_in_code(G, [swap])
    assert trace_code._stays_in_code(G, [np.arange(G.shape[1])])
    for spec in (CodeSpec(1, "lprime", "block"), CodeSpec(2, "units", "block")):
        G = build_code(spec).generators
        N = G.shape[1]
        assert not trace_code._stays_in_code(G, [(np.arange(N) - 1) % N])
        assert trace_code._stays_in_code(G, [(np.arange(N) - N // 3) % N])


def test_certificates_read_no_reduction(monkeypatch):
    def refuse(self):
        raise AssertionError("the certificates need no reduced row echelon form")

    monkeypatch.setattr(TernaryCode, "reduction", refuse)
    for kind in ("lprime", "units"):
        assert check_group_action(CodeSpec(2, kind))
        assert check_quasicyclic(CodeSpec(2, kind, "block"))


def test_eval_context_accepts_explicit_coordinates():
    ring = get_ring(1)
    ctx = EvalContext(1, [1])
    assert ctx.n == 9 and EvalContext(1, []).n == 0
    words = ctx.trace_triples(np.array([index_of_scalar(1, ring.u)]))
    assert words.shape == (1, 9, 3) and EvalContext(1, []).trace_triples([5]).shape == (1, 0, 3)
    # Tr is the identity at m=1, and coordinates 0 and q = 3 are 1 and u: ev(u) starts (u, .., u^2)
    assert tuple(words[0, 0]) == ring.u and tuple(words[0, 3]) == ring.u_squared
