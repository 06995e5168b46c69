import functools
import itertools

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import (
    counting,
    random_images,
    reference_greedy_columns,
    reference_splitting_facts,
    reference_verify,
)
from rbgroups import operators
from rbgroups.corpus import corpus_group, corpus_names, symmetric
from rbgroups.enumeration import graph_enumerate
from rbgroups.errors import InvalidInput
from rbgroups.groups import GroupMap, automorphisms
from rbgroups.operators import (
    RBOperator,
    bplus,
    conjugate,
    deep,
    elementary,
    image,
    inverse_argument_convert,
    is_splitting,
    kernel,
    rb_operator,
    tilde,
    verify,
    weight_convert,
)


@pytest.fixture(scope="module")
def s3_census():
    return graph_enumerate(corpus_group("S3"))


@pytest.fixture(scope="module")
def d4_census():
    return graph_enumerate(corpus_group("D4"))


def test_constructor_validation(s3):
    with pytest.raises(InvalidInput):
        rb_operator(s3, [0, 1, 2])
    with pytest.raises(InvalidInput):
        rb_operator(s3, [0, 1, 2, 3, 4, 9])
    with pytest.raises(InvalidInput):
        rb_operator(s3, [0] * 6, weight=2)


@pytest.mark.parametrize("name", corpus_names())
def test_elementary_always_valid(name):
    G = corpus_group(name)
    if G.order > 24:
        pytest.skip("kept small; larger orders run in the acceptance suite")
    for variant in ("b0", "b_minus1"):
        op = elementary(G, variant)
        assert verify(op)
        assert reference_verify(G, op.images) is None


def test_identity_map(s3, z6):
    bad = rb_operator(s3, list(s3.elements()))
    v = verify(bad)
    assert not v and v.witness == (1, 2)
    assert verify(rb_operator(z6, list(z6.elements())))


def test_weight_minus_one_directly(s3):
    # the identity map and the constant map are the two easy solutions
    assert verify(rb_operator(s3, list(s3.elements()), weight=-1))
    assert verify(rb_operator(s3, [0] * 6, weight=-1))
    assert reference_verify(s3, list(s3.elements()), weight=-1) is None


def test_verify_matches_reference_on_random_maps(s3, rng):
    agree = 0
    for _ in range(300):
        imgs = random_images(s3, rng)
        mine = verify(rb_operator(s3, imgs))
        ref = reference_verify(s3, imgs)
        assert bool(mine) == (ref is None)
        agree += 1
    assert agree == 300


def test_census_all_reference_valid(s3_census):
    G = s3_census.group
    for op in s3_census.operators:
        assert reference_verify(G, op.images) is None


def test_tilde_involution(s3_census):
    # the transports return operators marked valid without a check, so
    # their images are checked here by the reference, at the right weight
    for census in (s3_census, graph_enumerate(corpus_group("D4"))):
        G = census.group
        auts = automorphisms(G)
        for op in census.operators:
            tt = tilde(tilde(op))
            assert tt.images == op.images
            assert verify(tilde(op))
            assert reference_verify(G, tilde(op).images) is None
            for phi in auts:
                assert reference_verify(G, conjugate(op, phi).images) is None
            for convert in (weight_convert, inverse_argument_convert):
                c = convert(op)
                assert reference_verify(G, c.images, c.weight) is None
                assert c.weight == -1


def test_tilde_swaps_elementary(s3):
    assert tilde(elementary(s3, "b0")).images == elementary(s3, "b_minus1").images
    assert tilde(elementary(s3, "b_minus1")).images == elementary(s3, "b0").images


def test_tilde_weight_minus_one(s3):
    ident = rb_operator(s3, list(s3.elements()), weight=-1)
    assert tilde(ident).images == (0,) * 6
    assert tilde(tilde(ident)).images == ident.images


def test_conjugation_action_law(s3_census):
    G = s3_census.group
    auts = automorphisms(G)
    op = s3_census.operators[2]
    phi, psi = auts[1], auts[2]
    lhs = conjugate(conjugate(op, phi), psi)
    rhs = conjugate(op, phi.compose(psi))
    assert lhs.images == rhs.images


def test_census_closed_under_symmetry(s3_census):
    G = s3_census.group
    all_images = {op.images for op in s3_census.operators}
    for op in s3_census.operators:
        assert tilde(op).images in all_images
        for phi in automorphisms(G):
            assert conjugate(op, phi).images in all_images


def test_tilde_commutes_with_conjugation(s3_census):
    phi = automorphisms(s3_census.group)[3]
    for op in s3_census.operators:
        assert tilde(conjugate(op, phi)).images == conjugate(tilde(op), phi).images


def test_conjugate_requires_automorphism(s3):
    op = elementary(s3, "b0")
    not_bijective = GroupMap.hom(s3, s3, [0, 0, 0, 0, 0, 0])
    with pytest.raises(InvalidInput):
        conjugate(op, not_bijective)


def test_weight_convert_round_trip(s3_census):
    for op in s3_census.operators:
        c = weight_convert(op)
        assert c.weight == -1
        assert verify(c)
        back = weight_convert(c)
        assert back.weight == 1 and back.images == op.images


def test_weight_convert_of_elementary(s3):
    assert weight_convert(elementary(s3, "b0")).images == tuple(s3.elements())
    assert weight_convert(elementary(s3, "b_minus1")).images == (0,) * 6


def test_inverse_argument_convert(s3_census):
    for op in s3_census.operators:
        c = inverse_argument_convert(op)
        assert c.weight == -1 and verify(c)
        back = inverse_argument_convert(c)
        assert back.images == op.images and back.weight == 1


def test_bplus_images(s3_census, d4_census):
    # the companion map is g -> gB(g) and commutes with B
    for census in (s3_census, d4_census):
        G = census.group
        for op in census.operators:
            m = bplus(op)
            assert all(m(g) == G.mul(g, op(g)) for g in G.elements())
            assert all(m(op(g)) == op(m(g)) for g in G.elements())


def test_kernel_image(s3):
    b0 = elementary(s3, "b0")
    assert kernel(b0).is_whole_group()
    assert image(b0).elements == (0,)
    inv = elementary(s3, "b_minus1")
    assert kernel(inv).elements == (0,)
    assert image(inv).is_whole_group()


def test_splitting_census_counts():
    expected = {"S3": (8, 0), "D4": (18, 38), "Q8": (2, 6), "A4": (10, 8)}
    for name, (split, non) in expected.items():
        census = graph_enumerate(corpus_group(name))
        flags = [bool(is_splitting(op)) for op in census.operators]
        assert (sum(flags), len(flags) - sum(flags)) == (split, non)


def test_splitting_verdict_shape(s3_census, d4_census):
    # a splitting operator's kernel and image factor G exactly, and B
    # inverts its image
    assert all(is_splitting(op) for op in s3_census.operators)
    for census in (s3_census, d4_census):
        G = census.group
        for op in census.operators:
            sp = is_splitting(op)
            if not sp:
                continue
            assert reference_splitting_facts(G, op.images)
            assert sp.kernel.elements == tuple(
                g for g in G.elements() if op(g) == G.identity)
            assert sp.image.elements == tuple(sorted(set(op.images)))


def test_deep_values(s3, z4):
    assert deep(elementary(s3, "b_minus1")) == 0
    assert deep(elementary(s3, "b0")) == 1
    assert deep(rb_operator(z4, [0, 2, 0, 2])) == 2
    d4 = corpus_group("D4")
    values = sorted({deep(op) for op in graph_enumerate(d4).operators})
    assert values == [0, 1, 2, 3]


SMALL_NAMES = [n for n in corpus_names() if corpus_group(n).order <= 12]
VERIFY_NAMES = SMALL_NAMES + ["S4", "Heis3", "A5"]


@functools.cache
def _census_images(name, weight):
    ops = graph_enumerate(corpus_group(name)).operators
    if weight == -1:
        ops = [weight_convert(op) for op in ops]
    return [op.images for op in ops]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_agrees_with_reference(data):
    # random maps, census operators at either weight, census operators
    # with one entry changed, and two census operators spliced at a cut,
    # on corpus groups of order <= 12 and on S4, Heis3 and A5
    name = data.draw(st.sampled_from(VERIFY_NAMES))
    weight = data.draw(st.sampled_from((1, -1)))
    G = corpus_group(name)
    n = G.order
    shape = data.draw(st.sampled_from(["random", "census", "mutated", "spliced"]))
    census = st.sampled_from(_census_images(name, weight))
    if shape == "random":
        imgs = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    else:
        imgs = list(data.draw(census))
        if shape == "mutated":
            imgs[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
        elif shape == "spliced":
            cut = data.draw(st.integers(0, n))
            imgs[cut:] = data.draw(census)[cut:]
    v = verify(rb_operator(G, imgs, weight))
    ref = reference_verify(G, imgs, weight)
    event(f"{shape}, {'valid' if ref is None else 'invalid'}")
    assert bool(v) == (ref is None)
    assert v.witness == ref


def test_verify_exhaustive_on_s3(s3):
    # every map fixing the identity, at both weights: a decision read off
    # too few columns would pass some invalid map here
    for weight in (1, -1):
        for rest in itertools.product(s3.elements(), repeat=5):
            imgs = (0,) + rest
            v = verify(rb_operator(s3, imgs, weight))
            ref = reference_verify(s3, imgs, weight)
            assert bool(v) == (ref is None) and v.witness == ref


@pytest.mark.parametrize("name", corpus_names())
def test_verify_reads_few_columns(monkeypatch, name):
    # a valid operator is decided from the columns h, in id order, that
    # the twisted group's subgroup generated by the earlier ones misses:
    # at most ceil(log2 n) of them, and no scan of all pairs; at weight -1
    # they are the columns of the weight +1 operator g -> g^-1 C(g)
    G = corpus_group(name)
    bound = (G.order - 1).bit_length()
    calls = {"scans": 0}
    columns = []
    real = operators._column_holds

    def recording(t, B, pre, post, h):
        columns.append(h)
        return real(t, B, pre, post, h)

    monkeypatch.setattr(operators, "_column_holds", recording)
    monkeypatch.setattr(operators, "_first_defect",
                        counting(calls, "scans", operators._first_defect))
    for plus, minus in zip(_census_images(name, 1), _census_images(name, -1)):
        expected = reference_greedy_columns(G, plus)
        assert len(expected) <= bound
        for images, weight in ((plus, 1), (minus, -1)):
            columns.clear()
            assert verify(rb_operator(G, images, weight))
            assert columns == expected and calls == {"scans": 0}


def _rows_agree(G, rows):
    """`_decide_rows` on the rows at once against `_decide` and the
    reference check on each row."""
    got = operators._decide_rows(G, np.array(rows)).tolist()
    assert got == [operators._decide(rb_operator(G, r)) for r in rows]
    assert got == [reference_verify(G, r) is None for r in rows]
    return got


@pytest.mark.parametrize("name", list(corpus_names()) + ["S5"])
def test_decide_rows_accepts_every_census_row(name):
    G = symmetric(5) if name == "S5" else corpus_group(name)
    rows = graph_enumerate(G).image_tuples()
    assert all(_rows_agree(G, rows))


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
def test_decide_rows_on_every_one_cell_change(name):
    # every census row with one cell changed to every other id, B(e)
    # among them: the rows accepted are the changed rows in the census
    G = corpus_group(name)
    census = graph_enumerate(G).image_tuples()
    known = set(census)
    rows = []
    for images in census:
        for g in G.elements():
            for x in G.elements():
                if x != images[g]:
                    rows.append(images[:g] + (x,) + images[g + 1:])
    assert _rows_agree(G, rows) == [r in known for r in rows]


def test_decide_rows_refuses_moved_identity(rng):
    # B(e) != e fails at (e, e), whatever the other cells hold
    for name in ("S3", "Q8", "A4", "Heis3"):
        G = corpus_group(name)
        rows = [random_images(G, rng, fix_identity=False) for _ in range(40)]
        for r in rows:
            r[G.identity] = rng.choice([g for g in G.elements() if g != G.identity])
        assert not any(_rows_agree(G, rows))
        assert operators._decide_rows(G, np.zeros((0, G.order), dtype=int)).shape == (0,)
