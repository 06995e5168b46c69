import itertools
import random

import pytest

from helpers import counting, reference_closure_words
from rbgroups import derived, extension, groups
from rbgroups.corpus import corpus_group
from rbgroups.derived import derived_group
from rbgroups.errors import CondFails, InvalidInput
from rbgroups.extension import (
    closure_group,
    extend_generators,
    word_identities_check,
    word_image,
    word_pair,
    word_probe,
)
from rbgroups.enumeration import graph_enumerate
from rbgroups.groups import (
    GroupMap,
    direct_product,
    generating_sequence,
    is_isomorphic,
    subgroup_generated,
)
from rbgroups.operators import verify

# the three standing problems on S3: extendable (to inversion), refuted
# by a probe collision, refuted only by the branch search below a
# partial closure
PROBLEMS = (([1, 2], [1, 2]), ([1, 2, 5], [1, 2, 4]), ([1, 2], [1, 0]))


@pytest.fixture(scope="module")
def s3_census():
    return graph_enumerate(corpus_group("S3"))


def test_extends_to_inversion(s3):
    res = extend_generators(s3, [1, 2], [1, 2])
    assert res.status == "extends" and res.cond
    assert res.via == "closure"
    assert res.closure_order == 6
    assert res.operator.images == tuple(s3.inverses)
    assert verify(res.operator)


def test_collision_witness(s3):
    res = extend_generators(s3, [1, 2, 5], [1, 2, 4])
    assert res.status == "no_extension" and not res.cond
    assert res.via == "closure"
    w1, w2 = res.witness
    assert w2 == ()
    # the witness is a pair of words with equal probes, distinct images
    assert word_probe(s3, [1, 2, 5], [1, 2, 4], w1) == \
        word_probe(s3, [1, 2, 5], [1, 2, 4], w2)
    assert word_image(s3, [1, 2, 5], [1, 2, 4], w1) != \
        word_image(s3, [1, 2, 5], [1, 2, 4], w2)


def test_frozen_collision_words(s3):
    res = extend_generators(s3, [1, 2, 5], [1, 2, 4])
    assert res.witness == (((0, 1), (2, -1)), ())


def test_census_refutation(s3):
    res = extend_generators(s3, [1, 2], [1, 0])
    assert res.status == "no_extension" and res.cond
    assert res.via == "search"
    assert res.closure_order == 4
    assert res.operator is None and res.witness is None


def test_census_undecided_with_tiny_cap(s3, monkeypatch):
    monkeypatch.setattr(extension, "SEARCH_BUDGET", 0)
    res = extend_generators(s3, [1, 2], [1, 0])
    assert res.status == "undecided" and res.cond
    assert res.via is None
    assert res.closure_order == 4


def _census_answer(census, gens, images):
    """The first census operator taking the prescribed values, or None."""
    return next(
        (op.images for op in census.operators
         if all(op(a) == u for a, u in zip(gens, images))),
        None,
    )


def test_search_agrees_with_census():
    # 300 seeded prescriptions per group, half restrictions of census
    # operators and half random values, on the greedy generating
    # sequence or on a random generating set of up to three elements
    rng = random.Random(20261018)
    decided = {}
    for name in ("S3", "D4", "A4", "S4", "Heis3", "A5"):
        G = corpus_group(name)
        census = graph_enumerate(G)
        for k in range(300):
            if k % 3 == 0:
                gens = list(generating_sequence(G))
            else:
                gens = rng.sample(range(G.order), rng.randint(1, 3))
                while not subgroup_generated(G, gens).is_whole_group():
                    gens = rng.sample(range(G.order), rng.randint(1, 3))
            if k % 2 == 0:
                op = rng.choice(census.operators)
                images = [op(a) for a in gens]
            else:
                images = [rng.randrange(G.order) for _ in gens]
            res = extend_generators(G, gens, images)
            first = _census_answer(census, gens, images)
            assert res.status == ("extends" if first else "no_extension")
            if first:
                assert res.operator.images == first
            if first and res.via == "closure":
                _assert_twisted_is_closure(G, gens, images, res.operator)
            key = (res.via, res.status)
            decided[key] = decided.get(key, 0) + 1
    # partial closures both with and without an extension were searched
    assert decided[("search", "extends")] > 0
    assert decided[("search", "no_extension")] > 0


def _assert_pair_products(G, cg):
    # the closure's pairs are sorted and its table is their coordinatewise
    # product in G x G
    assert list(cg.pairs) == sorted(cg.pairs)
    index = {p: i for i, p in enumerate(cg.pairs)}
    t = G.table
    assert cg.group.table == tuple(
        tuple(index[(t[x1][x2], t[y1][y2])] for x2, y2 in cg.pairs)
        for x1, y1 in cg.pairs)


def _assert_twisted_is_closure(G, gens, images, op):
    # g -> (g B(g), B(g)) is an isomorphism from the twisted group onto
    # the full-size pair closure
    cg = closure_group(G, gens, images)
    _assert_pair_products(G, cg)
    index = {p: i for i, p in enumerate(cg.pairs)}
    enc = [index[(G.mul(g, op(g)), op(g))] for g in G.elements()]
    assert GroupMap.hom(derived_group(op).group, cg.group, enc).bijective


def test_extends_builds_no_group(monkeypatch):
    # deciding "extends", by the top closure or by the search below it,
    # builds no twisted group and no group table
    calls = {"derived_group": 0, "table": 0}
    monkeypatch.setattr(derived, "derived_group",
                        counting(calls, "derived_group", derived.derived_group))
    monkeypatch.setattr(groups, "from_cayley_table",
                        counting(calls, "table", groups.from_cayley_table))
    monkeypatch.setattr(groups.FiniteGroup, "_proved",
                        counting(calls, "table", groups.FiniteGroup._proved))
    s3, d4 = corpus_group("S3"), corpus_group("D4")
    via = [extend_generators(G, gens, images).via
           for G, gens, images in ((s3, [1, 2], [1, 2]), (s3, [1, 3], [1, 0]),
                                   (d4, [1, 2], [2, 2]))]
    assert via == ["closure", "closure", "search"]
    assert calls == {"derived_group": 0, "table": 0}


def test_search_beyond_old_census_order():
    # order 72: a partial closure of size 36 with several extensions,
    # settled by the search as the least census operator
    G = direct_product(corpus_group("S4"), corpus_group("Z3")).group
    gens = list(generating_sequence(G))
    images = [0, 0, 0, 15]
    res = extend_generators(G, gens, images)
    assert res.status == "extends" and res.via == "search"
    assert res.closure_order == 36
    census = graph_enumerate(G)
    assert len(census) == 612
    matches = [op.images for op in census.operators
               if all(op(a) == u for a, u in zip(gens, images))]
    assert len(matches) > 1
    assert res.operator.images == matches[0]


def test_partial_closure_still_extends(s3):
    res = extend_generators(s3, [1, 3], [1, 0])
    assert res.status == "extends"
    assert res.closure_order == 6
    assert res.operator.images == (0, 1, 1, 0, 0, 1)


def test_constant_images_extend():
    s4 = corpus_group("S4")
    gens = [g for g in s4.elements() if g != 0][:3]
    res = extend_generators(s4, gens, [0] * 3)
    assert res.status == "extends"
    assert res.operator.images == (0,) * 24


def test_requires_generating_set(s3):
    with pytest.raises(InvalidInput):
        extend_generators(s3, [3], [0])


def test_input_validation(s3):
    with pytest.raises(InvalidInput):
        extend_generators(s3, [1, 9], [1, 0])
    with pytest.raises(InvalidInput):
        extend_generators(s3, [1, 2], [1])


def test_word_evaluators(s3):
    gens, imgs = [1, 2], [1, 2]
    w = ((0, 1), (1, -1), (0, 1))
    direct = s3.prod([
        s3.mul(gens[0], imgs[0]),
        s3.inverses[s3.mul(gens[1], imgs[1])],
        s3.mul(gens[0], imgs[0]),
    ])
    probe_img = word_probe(s3, gens, imgs, w)
    bar = word_image(s3, gens, imgs, w)
    pair = word_pair(s3, gens, imgs, w)
    assert pair == (s3.mul(probe_img, bar), bar)
    assert pair[0] == direct


def test_word_pair_multiplicative(s3, rng):
    gens, imgs = [1, 2], [1, 2]
    t = s3.table
    for _ in range(200):
        w1 = tuple(
            (rng.randrange(2), rng.choice((1, -1)))
            for _ in range(rng.randrange(0, 5))
        )
        w2 = tuple(
            (rng.randrange(2), rng.choice((1, -1)))
            for _ in range(rng.randrange(0, 5))
        )
        p1 = word_pair(s3, gens, imgs, w1)
        p2 = word_pair(s3, gens, imgs, w2)
        p12 = word_pair(s3, gens, imgs, w1 + w2)
        assert p12 == (t[p1[0]][p2[0]], t[p1[1]][p2[1]])


def test_word_validation(s3):
    with pytest.raises(InvalidInput):
        word_image(s3, [1, 2], [1, 2], ((5, 1),))
    with pytest.raises(InvalidInput):
        word_probe(s3, [1, 2], [1, 2], ((0, 0),))


def test_word_syllable_splitting(s3):
    # a syllable with a big exponent equals the spelled-out word
    gens, imgs = [1, 2], [1, 0]
    packed = ((0, 3), (1, -2))
    spelled = ((0, 1),) * 3 + ((1, -1),) * 2
    assert word_image(s3, gens, imgs, packed) == \
        word_image(s3, gens, imgs, spelled)
    assert word_probe(s3, gens, imgs, packed) == \
        word_probe(s3, gens, imgs, spelled)


def test_word_identities_hold(s3):
    for gens, imgs in PROBLEMS:
        assert word_identities_check(s3, gens, imgs)


def test_word_identities_explicit_sample(s3):
    words = [(), ((0, 5),), ((1, -5), (0, 1)), ((0, 1), (1, 1), (0, -1))]
    assert word_identities_check(s3, [1, 2], [1, 2], words=words)


def test_closure_group_partial_problem(s3):
    cg = closure_group(s3, [1, 2], [1, 0])
    _assert_pair_products(s3, cg)
    assert cg.group.order == 4
    assert is_isomorphic(cg.group, corpus_group("Z2xZ2")) is not None
    assert cg.pairs == ((0, 0), (0, 1), (2, 0), (2, 1))
    # probe reads x * y^-1 and image reads y off each pair
    for h, (x, y) in enumerate(cg.pairs):
        assert cg.probe(h) == s3.mul(x, s3.inv(y))
        assert cg.image(h) == y
    assert cg.image.homomorphism and cg.image.hom_defect() is None


def test_closure_group_inversion_is_opposite(s3):
    cg = closure_group(s3, [1, 2], [1, 2])
    _assert_pair_products(s3, cg)
    assert cg.group.order == 6
    assert is_isomorphic(cg.group, s3) is not None
    # probe transports the closure product to the reversed product on G
    for a in cg.group.elements():
        for b in cg.group.elements():
            assert cg.probe(cg.group.mul(a, b)) == \
                s3.mul(cg.probe(b), cg.probe(a))


def test_closure_group_trivial_images(s3):
    cg = closure_group(s3, [1, 3], [0, 0])
    _assert_pair_products(s3, cg)
    assert cg.image.images == (0,) * 6
    iso = GroupMap.hom(cg.group, s3, cg.probe.images)
    assert iso.bijective


@pytest.mark.parametrize("name, gens, images", [
    ("S3", [1, 2], [1, 2]), ("S3", [1, 2], [1, 0]), ("S3", [1, 3], [0, 0]),
    ("D4", [1, 2], [2, 2]), ("D4", [1, 2], [0, 3]), ("A4", [1, 4], [1, 0]),
])
def test_closure_pairs_agree_with_words(name, gens, images):
    # every closure pair is reached by a word whose probe and image are
    # the pair's probe and image
    G = corpus_group(name)
    cg = closure_group(G, gens, images)
    _assert_pair_products(G, cg)
    words = reference_closure_words(G, gens, images, word_pair)
    assert set(words) == set(cg.pairs)
    for h, pair in enumerate(cg.pairs):
        assert word_probe(G, gens, images, words[pair]) == cg.probe(h)
        assert word_image(G, gens, images, words[pair]) == cg.image(h)
    # the image map is the second projection, a homomorphism
    assert cg.image.hom_defect() is None


def test_closure_group_checks_no_homomorphism(monkeypatch):
    # the image map is a homomorphism by construction; closure_group
    # builds it without the pairwise check
    calls = {"checked_hom": 0}
    monkeypatch.setattr(groups, "_checked_hom",
                        counting(calls, "checked_hom", groups._checked_hom))
    for name, gens, images in (("S3", [1, 2], [1, 0]), ("S4", [1, 2, 3], [0, 0, 0])):
        cg = closure_group(corpus_group(name), gens, images)
        assert cg.image.homomorphism
        _assert_pair_products(corpus_group(name), cg)
    assert calls == {"checked_hom": 0}


def test_closure_group_cond_failure(s3):
    with pytest.raises(CondFails):
        closure_group(s3, [1, 2, 5], [1, 2, 4])


def test_closure_group_matches_twisted_group(s3, s3_census):
    # a full-size closure is the graph of the decoded operator, so it
    # multiplies like the derived group
    res = extend_generators(s3, [1, 2], [1, 2])
    cg = closure_group(s3, [1, 2], [1, 2])
    _assert_pair_products(s3, cg)
    twisted = derived_group(res.operator).group
    assert is_isomorphic(cg.group, twisted) is not None


def _bounded_word_pair_verdict(G, gens, images, total_len=6):
    """Brute search: does some word pair up to the total length break
    the equal-probes-equal-images implication?"""
    s = len(gens)
    letters = [(i, k) for i in range(s) for k in (1, -1)]
    best = {}  # (probe, image) -> shortest word length
    for length in range(total_len + 1):
        for w in itertools.product(letters, repeat=length):
            key = (word_probe(G, gens, images, w),
                   word_image(G, gens, images, w))
            if key not in best:
                best[key] = length
    by_probe = {}
    for (p, b), n in best.items():
        by_probe.setdefault(p, []).append((n, b))
    for entries in by_probe.values():
        entries.sort()
        for (n1, b1), (n2, b2) in itertools.combinations(entries, 2):
            if b1 != b2 and n1 + n2 <= total_len:
                return False
    return True


def test_cond_agrees_with_bounded_search(s3):
    for gens, imgs in PROBLEMS:
        res = extend_generators(s3, gens, imgs)
        assert res.cond == _bounded_word_pair_verdict(s3, gens, imgs)


def test_census_restriction_round_trip(s3, s3_census):
    # values on a set generating the twisted group pin down the whole
    # operator; restrict each census operator to such a set (one that
    # also generates the plain group, which the problem format demands)
    # and check the extension machinery returns exactly that operator
    for op in s3_census.operators:
        twisted = derived_group(op).group
        gens = None
        for pair in itertools.combinations(range(6), 2):
            if (subgroup_generated(twisted, pair).is_whole_group()
                    and subgroup_generated(s3, pair).is_whole_group()):
                gens = list(pair)
                break
        assert gens is not None
        res = extend_generators(s3, gens, [op(a) for a in gens])
        assert res.status == "extends"
        assert res.operator.images == op.images
