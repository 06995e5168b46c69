import itertools
import random

import pytest

from helpers import (
    counting,
    reference_closure_words,
    reference_decide,
    reference_pair_walk,
)
from rbgroups import derived, extension, groups
from rbgroups.corpus import corpus_group, corpus_names
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
    from_permutations,
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


def _seeded_prescriptions(G, rng, count):
    """count prescriptions on the generating sequence of G: restrictions
    of census operators and uniform random values, alternately."""
    gens = list(generating_sequence(G))
    census = graph_enumerate(G).operators
    out = []
    for k in range(count):
        if k % 2 == 0:
            op = rng.choice(census)
            out.append((gens, [op(a) for a in gens]))
        else:
            out.append((gens, [rng.randrange(G.order) for _ in gens]))
    return out


def _assert_closure_is_walk(G, H, diag, gens, images):
    # the coset closure holds each pair of the whole walk once, and meets
    # the diagonal exactly when the walk does
    parents, collision = reference_pair_walk(G, gens, images, whole=True)
    assert H.codes == {x * G.order + y for x, y in parents}
    assert diag == (collision is not None)


@pytest.mark.parametrize("name", corpus_names())
def test_coset_closure_equals_walk(name):
    # on seeded prescriptions, the closure and each branch grown from it
    # by one more prescribed pair: below a partial closure, every branch
    # of its least undecoded element; below any closure, four random ones
    G = corpus_group(name)
    t, inv = G.table, G.inverses
    rng = random.Random(f"coset-closure:{name}")
    for gens, images in _seeded_prescriptions(G, rng, 16):
        H, diag = extension._pair_closure(G, gens, images)
        _assert_closure_is_walk(G, H, diag, gens, images)
        branches = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(4)]
        if not diag and len(H.codes) < G.order:
            decoded = {t[x][inv[y]] for x, y in (divmod(c, G.order) for c in H.codes)}
            g = next(x for x in G.elements() if x not in decoded)
            branches += [(g, u) for u in G.elements()]
        for g, u in branches:
            # grown from H, the branch is the closure of the longer
            # prescription from the root and holds H's pairs; cut at
            # its first diagonal coset it gives the same verdict, and
            # without one the same pairs
            child, met = extension._grow(G, H, (t[g][u], u))
            _assert_closure_is_walk(G, child, diag or met, gens + [g], images + [u])
            assert H.codes <= child.codes
            cut, cut_met = extension._grow(G, H, (t[g][u], u), cut=True)
            assert cut_met == met
            if not met:
                assert cut.codes == child.codes


A6_GENS = [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)]


def test_coset_closure_whole_a6_square():
    # a refuted problem whose closure is all of A6 x A6
    G = from_permutations(A6_GENS)
    gens = list(generating_sequence(G))
    rng = random.Random(5)
    while True:
        images = [rng.randrange(G.order) for _ in gens]
        H, diag = extension._pair_closure(G, gens, images)
        if len(H.codes) == G.order ** 2:
            break
    assert diag
    _assert_closure_is_walk(G, H, diag, gens, images)
    res = extend_generators(G, gens, images)
    want = reference_decide(G, gens, images, extension.SEARCH_BUDGET)
    assert (res.status, res.cond, res.via, res.closure_order, res.witness) == \
        (want["status"], want["cond"], want["via"], want["closure_order"], want["witness"])


def _decision(G, gens, images):
    """What rbg extend reads off a problem, in reference_decide's form."""
    res, cg = extension._extend_with_closure(G, gens, images)
    plain = extend_generators(G, gens, images)
    assert (plain.status, plain.cond, plain.via, plain.closure_order, plain.witness) == \
        (res.status, res.cond, res.via, res.closure_order, res.witness)
    assert (plain.operator is None) == (res.operator is None)
    if res.operator is not None:
        assert plain.operator.images == res.operator.images
    out = {"status": res.status, "cond": res.cond, "via": res.via,
           "closure_order": res.closure_order,
           "operator": None if res.operator is None else res.operator.images,
           "witness": res.witness, "message": None, "closure": None}
    try:
        c = closure_group(G, gens, images)
    except CondFails as exc:
        assert cg is None
        out["message"] = str(exc)
    else:
        assert cg.pairs == c.pairs and cg.group.table == c.group.table
        out["closure"] = (list(c.pairs), [list(row) for row in c.group.table],
                          list(c.probe.images), list(c.image.images))
    return out


def test_decide_matches_reference(monkeypatch):
    # 576 seeded prescriptions, on the greedy generating sequence or on a
    # random generating set: restrictions of census operators, the same
    # with one value redrawn, and uniform random values; one in eight is
    # decided again with no budget
    rng = random.Random(20261020)
    whole_budget = extension.SEARCH_BUDGET
    kinds = {}
    for name in ("S3", "D4", "Q8", "A4", "D6", "S4", "Heis3", "A5"):
        G = corpus_group(name)
        census = graph_enumerate(G).operators
        for k in range(72):
            if k % 3 == 0:
                gens = list(generating_sequence(G))
            else:
                gens = rng.sample(range(G.order), rng.randint(1, 3))
                while not subgroup_generated(G, gens).is_whole_group():
                    gens = rng.sample(range(G.order), rng.randint(1, 3))
            if k % 4 == 3:
                images = [rng.randrange(G.order) for _ in gens]
            else:
                op = rng.choice(census)
                images = [op(a) for a in gens]
                if k % 4 == 2:
                    images[rng.randrange(len(gens))] = rng.randrange(G.order)
            budget = 0 if k % 8 == 5 else whole_budget
            monkeypatch.setattr(extension, "SEARCH_BUDGET", budget)
            got = _decision(G, gens, images)
            assert got == reference_decide(G, gens, images, budget), (name, gens, images)
            key = (got["status"], got["via"])
            kinds[key] = kinds.get(key, 0) + 1
    assert sum(kinds.values()) == 576
    for key in (("extends", "closure"), ("extends", "search"), ("no_extension", "closure"),
                ("no_extension", "search"), ("undecided", None)):
        assert kinds.get(key, 0) > 0, key


def test_branches_build_only_pairs_outside_parent(monkeypatch):
    # a fixed S4 search below a closure of 12: each of its 19 branches
    # starts from the top closure's pairs and adds 168 pairs in all (396
    # counted with the copied ones), where walking every branch from the
    # root to its first diagonal pair finds 641
    G = corpus_group("S4")
    gens, images = [1, 2, 3], [0, 0, 5]
    branches = []
    real = extension._grow

    def recording(G_, H, s, cut=False):
        out, diag = real(G_, H, s, cut)
        if cut:
            assert H.codes <= out.codes
            branches.append((len(H.codes), len(out.codes), diag))
        return out, diag

    monkeypatch.setattr(extension, "_grow", recording)
    res = extend_generators(G, gens, images)
    assert res.status == "extends" and res.via == "search" and res.closure_order == 12
    assert len(branches) == 19 and {parent for parent, _, _ in branches} == {12}
    assert sum(child - parent for parent, child, _ in branches) == 168
    assert sum(child for _, child, _ in branches) == 396
    assert [diag for _, _, diag in branches] == [True] * 18 + [False]
