import pytest

from helpers import counting, reference_twisted_table, reference_verify
from rbgroups import derived, operators
from rbgroups.constructions import splitting_from_factorization
from rbgroups.corpus import corpus_group
from rbgroups.derived import (
    circle_word,
    derived_group,
    eval_word,
    structure_report,
)
from rbgroups.enumeration import graph_enumerate
from rbgroups.errors import InvalidInput, StructureViolation
from rbgroups.groups import (
    GroupMap,
    Subgroup,
    automorphisms,
    exact_factorizations,
    is_isomorphic,
)
from rbgroups.operators import conjugate, elementary, rb_operator, tilde, verify


@pytest.fixture(scope="module")
def s3_census():
    return graph_enumerate(corpus_group("S3"))


def test_circle_tables_are_groups(s3_census):
    # derived_group validates associativity and unit internally
    for op in s3_census.operators:
        dg = derived_group(op)
        assert dg.group.order == 6


def _factorization_operators(name):
    G = corpus_group(name)
    return [splitting_from_factorization(G, H, L)
            for H, L in exact_factorizations(G)]


def test_twisted_group_facts(s3_census):
    # the table is the twisted product, with the identity of G; B is
    # multiplicative from G_B to G and stays a valid operator on G_B: on
    # the S3 and D4 censuses, every seventh operator of the A4, S4 and A5
    # censuses, and the splitting operator of every factorization of S4
    ops = [*s3_census.operators, *graph_enumerate(corpus_group("D4")).operators]
    for name in ("A4", "S4", "A5"):
        ops += graph_enumerate(corpus_group(name)).operators[::7]
    ops += _factorization_operators("S4")
    for op in ops:
        G, B = op.group, op.images
        t = G.table
        dg = derived_group(op)
        ct = dg.circle_table
        assert [list(row) for row in ct] == reference_twisted_table(G, B)
        assert dg.group.identity == G.identity
        assert dg.group.labels == G.labels and dg.group.name == f"{G.name}_B"
        assert all(B[ct[g][h]] == t[B[g]][B[h]]
                   for g in G.elements() for h in G.elements())
        assert reference_verify(dg.group, B) is None


def test_derived_group_of_verified_operator_runs_no_check(s3_census, monkeypatch):
    calls = {"defect": 0}
    monkeypatch.setattr(operators, "_first_defect",
                        counting(calls, "defect", operators._first_defect))
    for op in s3_census.operators:
        derived_group(op)
    assert calls == {"defect": 0}


def test_elementary_twists(s3):
    # b0 leaves the product alone, inversion reverses it
    dg0 = derived_group(elementary(s3, "b0"))
    assert dg0.circle_table == s3.table
    dgi = derived_group(elementary(s3, "b_minus1"))
    for g in s3.elements():
        for h in s3.elements():
            assert dgi.circle_table[g][h] == s3.mul(h, g)


def test_derived_of_splitting_op(s3):
    # the splitting operator for H = <(012)>, L = <(01)> untwists to H x L
    op = rb_operator(s3, [0, 1, 1, 0, 0, 1])
    dg = derived_group(op)
    z6 = corpus_group("Z6")
    assert is_isomorphic(dg.group, z6)


def test_derived_rejects_invalid(s3):
    with pytest.raises(InvalidInput):
        derived_group(rb_operator(s3, [0, 1, 2, 3, 4, 5]))


def test_eval_word_matches_fold(s3_census, rng):
    G = s3_census.group
    for op in s3_census.operators:
        dg = derived_group(op)
        ct = dg.circle_table
        for _ in range(40):
            letters = [
                (rng.randrange(G.order), rng.choice([-2, -1, 1, 2, 3]))
                for _ in range(rng.randrange(1, 6))
            ]
            w = circle_word(letters)
            got = eval_word(op, w)
            assert 0 <= got < G.order
            folded = G.identity
            for a, k in letters:
                if k >= 0:
                    for _ in range(k):
                        folded = ct[folded][a]
                else:
                    cinv = next(x for x in G.elements() if ct[a][x] == G.identity)
                    for _ in range(-k):
                        folded = ct[folded][cinv]
            assert got == folded


def test_eval_word_frozen_value(s3):
    op = rb_operator(s3, [0, 1, 1, 0, 0, 1])
    w = circle_word([(1, 1), (3, -1)])
    assert eval_word(op, w) == 2


def test_empty_word(s3):
    op = elementary(s3, "b0")
    assert eval_word(op, circle_word([])) == 0


def test_circle_word_validation(s3):
    with pytest.raises(InvalidInput):
        circle_word([(0,)])
    with pytest.raises(InvalidInput):
        circle_word([(-1, 2)])
    with pytest.raises(InvalidInput):
        eval_word(elementary(s3, "b0"), circle_word([(7, 1)]))


def test_circle_word_normalization():
    w = circle_word([(2, 1), (2, 2), (3, 0), (1, -1)])
    assert w.letters == ((2, 3), (1, -1))
    assert circle_word([(2, 1), (2, -1)]).letters == ()


def test_structure_report_fields(s3):
    op = rb_operator(s3, [0, 1, 1, 0, 0, 1])
    rep = structure_report(op)
    assert rep.kernel_b.elements == (0, 3, 4)
    assert rep.image_b.elements == (0, 1)
    assert rep.image_bplus.elements == (0, 3, 4)
    assert rep.kernel_bplus.elements == (0, 1)
    assert rep.quotient_order == 1


def test_structure_report_census(s3_census):
    d4 = corpus_group("D4")
    for census in (s3_census, graph_enumerate(d4)):
        for op in census.operators:
            rep = structure_report(op)
            # the two quotients the report identifies have a common order
            assert rep.quotient_order * rep.kernel_b.order == rep.image_bplus.order
            assert rep.quotient_order * rep.kernel_bplus.order == rep.image_b.order
            assert rep.kernel_b.as_set() <= rep.image_bplus.as_set()
            assert rep.kernel_bplus.as_set() <= rep.image_b.as_set()


@pytest.mark.parametrize("name, count", [("S4", 70), ("A5", 62)])
def test_structure_report_on_factorizations(name, count):
    # for G = HL, B(hl) = l^-1 has kernel H and image L, and its companion
    # g B(g) = h has image H and kernel L: the two quotients are trivial
    ops = _factorization_operators(name)
    assert len(ops) == count
    for op in ops:
        G, B = op.group, op.images
        bp = [G.mul(g, B[g]) for g in G.elements()]
        ker = tuple(g for g in G.elements() if B[g] == G.identity)
        ker_bp = tuple(g for g in G.elements() if bp[g] == G.identity)
        rep = structure_report(op)
        assert rep.kernel_b.elements == ker == tuple(sorted(set(bp)))
        assert rep.image_b.elements == tuple(sorted(set(B))) == ker_bp
        assert rep.image_bplus.elements == ker
        assert rep.kernel_bplus.elements == ker_bp
        assert rep.quotient_order == 1
        assert [list(row) for row in rep.derived.circle_table] == \
            reference_twisted_table(G, B)


@pytest.mark.parametrize("name, images, target, subgroup, message", [
    ("S3", [0] * 6, "kernel", [0, 1], "kernel is not normal in the twisted group"),
    ("S3", [0] * 6, "bplus", [0, 1],
     "companion kernel is not normal in the twisted group"),
    ("D6", [0, 2, 0, 0, 2, 2, 2, 0, 0, 2, 0, 2], "kernel", [0, 11],
     "kernel is not normal in the companion image"),
    ("S3", [0, 1, 1, 0, 0, 1], "image", range(6),
     "companion kernel is not normal in the image"),
], ids=["a-kernel", "a-companion", "b-kernel", "b-companion"])
def test_structure_report_refuses_non_normal_kernels(monkeypatch, name, images,
                                                     target, subgroup, message):
    # facts (a) and (b) are theorems, so no valid operator reaches their
    # refusals: each case swaps in a subgroup that breaks one of them, as
    # B's kernel, as the companion's kernel and image (a companion map
    # with kernel and image the order-2 subgroup {0, 1} of S3), or as B's
    # image, in which the companion kernel {0, 1} of S3 is not normal;
    # every earlier fact still holds
    G = corpus_group(name)
    op = rb_operator(G, images)
    assert verify(op)
    fake = Subgroup(G, subgroup)
    if target == "bplus":
        companion = GroupMap.plain(G, G, [0 if g in fake else 1 for g in G.elements()])
        monkeypatch.setattr(derived, "bplus", lambda _op: companion)
    else:
        monkeypatch.setattr(derived, target, lambda _op: fake)
    with pytest.raises(StructureViolation) as info:
        structure_report(op)
    assert str(info.value) == message


def test_derived_group_memoized(monkeypatch):
    # one twisted group per operator: the report reads the one
    # derived_group built, fact (a) included, off the twisted group's own
    # array, so derived_group then structure_report make one gather
    calls = {"twisted": 0}
    monkeypatch.setattr(derived, "_twisted_table",
                        counting(calls, "twisted", derived._twisted_table))
    for op in _factorization_operators("S4")[::9]:
        calls["twisted"] = 0
        dg = derived_group(op)
        assert derived_group(op) is dg and op._derived is dg
        assert structure_report(op).derived is dg
        assert calls == {"twisted": 1}


def test_derived_group_memo_starts_empty():
    # built operators carry no twisted group until derived_group runs, and
    # an invalid operator is refused every time, with nothing memoized
    census = graph_enumerate(corpus_group("S3"))
    G = census.group
    phi = automorphisms(G)[1]
    for op in census.operators:
        assert op._derived is None
        assert tilde(op)._derived is None and conjugate(op, phi)._derived is None
    bad = rb_operator(G, [0, 1, 2, 3, 4, 5])
    for _ in range(2):
        with pytest.raises(InvalidInput):
            derived_group(bad)
        assert bad._derived is None


def test_inversion_derived_is_opposite(q8):
    op = elementary(q8, "b_minus1")
    dg = derived_group(op)
    for g in q8.elements():
        for h in q8.elements():
            assert dg.circle_table[g][h] == q8.mul(h, g)
