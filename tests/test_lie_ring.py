import itertools
import random

import pytest

from helpers import counting, reference_check_lie_ring, reference_lie_verdict
from rbgroups import lie_ring
from rbgroups.constructions import central_conjugation
from rbgroups.corpus import corpus_group, corpus_names
from rbgroups.enumeration import graph_enumerate
from rbgroups.errors import PreconditionFailed, StructureViolation
from rbgroups.groups import all_homomorphisms
from rbgroups.lie_ring import (
    InducedRB,
    bracket_nonzero_count,
    check_lie_ring,
    graded_lie_ring,
    induced_rb,
    preserves_lower_central,
    verify_lie_rb,
)
from rbgroups.operators import elementary, rb_operator


def test_layer_shapes(d4, q8, heis3):
    for G, degrees, orders in (
        (d4, (1, 2), (4, 2)),
        (q8, (1, 2), (4, 2)),
        (heis3, (1, 2), (9, 3)),
    ):
        ring = graded_lie_ring(G)
        assert tuple(l.degree for l in ring.layers) == degrees
        assert tuple(l.quotient.order for l in ring.layers) == orders
        assert ring.order == G.order


def test_abelian_ring_is_flat(z6):
    ring = graded_lie_ring(z6)
    assert len(ring.layers) == 1
    assert bracket_nonzero_count(ring) == 0
    check_lie_ring(ring)


def test_ring_axioms(d4, q8, heis3):
    for G in (d4, q8, heis3):
        check_lie_ring(graded_lie_ring(G))


def _axiom_verdict(check, ring):
    try:
        check(ring)
    except StructureViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cells", [None, 1, 200])
@pytest.mark.parametrize("name, trials", [("D4", 24), ("Q8", 24), ("Heis3", 6)])
def test_ring_axioms_match_loop_on_corrupted_rings(monkeypatch, name, trials, cells):
    # one or two cells of the layer bracket tables changed at random (a
    # diagonal cell in a third of the trials, to break alternation): the
    # id-table check fails first where the loop over element tuples does,
    # with its message, or passes with it.  Small slab sizes split the
    # check into one or three v a slab, so failures fall in later slabs
    if cells is not None:
        monkeypatch.setattr(lie_ring, "_AXIOM_CELLS", cells)
    rng = random.Random(f"corrupt:{name}")
    G = corpus_group(name)
    assert _axiom_verdict(check_lie_ring, graded_lie_ring(G)) is None
    verdicts = set()
    for trial in range(trials):
        ring = graded_lie_ring(G)
        pairs = [(i, j) for i in range(len(ring.layers)) for j in range(len(ring.layers))
                 if ring._layer_bracket(i, j) is not None]
        for _ in range(1 + trial % 2):
            i, j = rng.choice(pairs)
            table, target = ring._brackets[(i, j)]
            table = [list(row) for row in table]
            a = rng.randrange(len(table))
            b = a if trial % 3 == 0 and i == j else rng.randrange(len(table[0]))
            table[a][b] = rng.randrange(ring.layers[target].quotient.order)
            ring._brackets[(i, j)] = (table, target)
        got = _axiom_verdict(check_lie_ring, ring)
        assert got == _axiom_verdict(reference_check_lie_ring, ring)
        elems, zero = ring.elements(), ring.zero()
        assert bracket_nonzero_count(ring) == sum(
            ring.bracket(v, w) != zero for v in elems for w in elems)
        verdicts.add(got.split(" at")[0] if got else None)
    assert len(verdicts) >= 3, verdicts


@pytest.mark.parametrize("cells", [None, 1])
def test_ring_axioms_report_first_jacobi_failure(monkeypatch, cells):
    # a graded ring that is biadditive and alternating but breaks Jacobi:
    # Z2^3 (ids are bit vectors) in degrees 1 and 2, Z2 in degree 3, the
    # cross product as the bracket of degree 1 with itself and the dot
    # product as its bracket with degree 2, so the cyclic sum of
    # [u, [v, w]] is three times the determinant of u, v, w
    V, Z2 = corpus_group("Z2xZ2xZ2"), corpus_group("Z2")
    ring = lie_ring.GradedLieRing(V, (), [lie_ring.Layer(1, V, {}), lie_ring.Layer(2, V, {}),
                                          lie_ring.Layer(3, Z2, {})])

    def bit(x, i):
        return (x >> i) & 1

    def cross(a, b):
        return sum((bit(a, (k + 1) % 3) & bit(b, (k + 2) % 3)
                    ^ bit(a, (k + 2) % 3) & bit(b, (k + 1) % 3)) << k for k in range(3))

    def dot(a, b):
        return bin(a & b).count("1") % 2

    ring._brackets.update({
        (0, 0): ([[cross(a, b) for b in range(8)] for a in range(8)], 1),
        (0, 1): ([[dot(a, b) for b in range(8)] for a in range(8)], 2),
        (1, 0): ([[dot(a, b) for b in range(8)] for a in range(8)], 2),
        (1, 1): None, (0, 2): None, (2, 0): None, (1, 2): None, (2, 1): None, (2, 2): None,
    })
    if cells is not None:
        # one v a slab: the failure at v = (1, 0, 0) lies in the second
        monkeypatch.setattr(lie_ring, "_AXIOM_CELLS", cells)
    want = _axiom_verdict(reference_check_lie_ring, ring)
    assert want == "Jacobi fails at (4, 0, 0), (1, 0, 0), (2, 0, 0)"
    assert _axiom_verdict(check_lie_ring, ring) == want


def test_bracket_nonzero_counts(d4, q8, heis3):
    assert bracket_nonzero_count(graded_lie_ring(d4)) == 24
    assert bracket_nonzero_count(graded_lie_ring(q8)) == 24
    assert bracket_nonzero_count(graded_lie_ring(heis3)) == 432


def test_bracket_lands_in_higher_degree(heis3):
    ring = graded_lie_ring(heis3)
    deg1 = ring.layers[0]
    for x in deg1.quotient.elements():
        v = (x, 0)
        for y in deg1.quotient.elements():
            w = (y, 0)
            b = ring.bracket(v, w)
            assert b[0] == 0  # degree 1 + 1 lands in degree 2


def test_central_conjugation_negates(d4, q8, heis3):
    for G in (d4, q8, heis3):
        ring = graded_lie_ring(G)
        for g in G.elements():
            op = central_conjugation(G, g)
            assert op is not None
            ind = induced_rb(ring, op)
            for layer, m in zip(ring.layers, ind.layer_maps):
                assert m == tuple(layer.quotient.inverses)
            assert verify_lie_rb(ind)


def test_census_operators_induce(d4):
    ring = graded_lie_ring(d4)
    for op in graph_enumerate(d4).operators:
        if preserves_lower_central(op):
            assert verify_lie_rb(induced_rb(ring, op))


def test_elementary_induced_maps(q8):
    ring = graded_lie_ring(q8)
    ind0 = induced_rb(ring, elementary(q8, "b0"))
    assert all(set(m) == {0} for m in ind0.layer_maps)
    assert verify_lie_rb(ind0)
    indi = induced_rb(ring, elementary(q8, "b_minus1"))
    assert [m for m in indi.layer_maps] == \
        [tuple(l.quotient.inverses) for l in ring.layers]


def test_induced_refusals(s3, d4):
    ring = graded_lie_ring(d4)
    with pytest.raises(PreconditionFailed):
        induced_rb(ring, elementary(s3, "b0"))
    with pytest.raises(PreconditionFailed):
        induced_rb(ring, rb_operator(d4, list(d4.elements())))
    from rbgroups.operators import weight_convert

    minus = weight_convert(elementary(d4, "b0"))
    with pytest.raises(PreconditionFailed):
        induced_rb(ring, minus)


def test_all_small_census_ops_preserve(s3, d4, q8):
    # observed across the small nonabelian groups: every valid operator
    # keeps each lower central term inside itself
    a4 = corpus_group("A4")
    for G in (s3, d4, q8, a4):
        assert all(
            preserves_lower_central(op) for op in graph_enumerate(G).operators
        )


def test_verdict_witness_on_forced_map(q8):
    # hand-build layer maps breaking additivity and check the verdict
    from rbgroups.lie_ring import InducedRB

    ring = graded_lie_ring(q8)
    good = induced_rb(ring, elementary(q8, "b_minus1"))
    broken = InducedRB(ring, good.operator,
                       (tuple([1] * 4), good.layer_maps[1]))
    v = verify_lie_rb(broken)
    assert not v and v.witness is not None


@pytest.mark.parametrize("name", corpus_names())
def test_bracket_lands_in_its_term_independently(name):
    # the ring reads each layer bracket at least coset elements; on all
    # pairs of elements, [x, y] lies in the degree-(i+j) term and its
    # coset there is the ring's bracket of the two cosets
    G = corpus_group(name)
    ring = graded_lie_ring(G)
    series = ring.series
    for i, li in enumerate(ring.layers):
        for j, lj in enumerate(ring.layers):
            d = li.degree + lj.degree
            term = series[min(d, len(series)) - 1]
            target = [k for k, l in enumerate(ring.layers) if l.degree == d]
            for x in li.projection:
                v = list(ring.zero())
                v[i] = li.projection[x]
                for y in lj.projection:
                    c = G.comm(x, y)
                    assert c in term
                    if not target:
                        continue
                    w = list(ring.zero())
                    w[j] = lj.projection[y]
                    k = target[0]
                    assert ring.bracket(v, w)[k] == ring.layers[k].projection[c]


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
def test_induced_maps_constant_on_cosets(name):
    # each layer map is read at one element per coset; every element of
    # the term maps to the coset the induced map gives its own coset
    G = corpus_group(name)
    ring = graded_lie_ring(G)
    for op in graph_enumerate(G).operators:
        if not preserves_lower_central(op):
            continue
        ind = induced_rb(ring, op)
        for layer, m in zip(ring.layers, ind.layer_maps):
            for x, cx in layer.projection.items():
                assert layer.projection[op(x)] == m[cx]


@pytest.mark.parametrize("name", ["D4", "Q8", "Heis3"])
def test_lie_verdicts_match_whole_ring_reference(name):
    # the verdict and witness, read off the layer bracket tables, are those
    # of the identity on zero-padded ring elements: for every central
    # conjugation (the operators of c7), for every tuple of additive layer
    # maps, and for random layer maps, most of them not additive
    G = corpus_group(name)
    ring = graded_lie_ring(G)
    inds = [induced_rb(ring, central_conjugation(G, g)) for g in G.elements()]
    op = inds[0].operator
    endos = [[h.images for h in all_homomorphisms(l.quotient, l.quotient)]
             for l in ring.layers]
    inds += [InducedRB(ring, op, maps) for maps in itertools.product(*endos)]
    rng = random.Random(5)
    inds += [InducedRB(ring, op, tuple(
        tuple(rng.randrange(l.quotient.order) for _ in l.quotient.elements())
        for l in ring.layers)) for _ in range(100)]
    verdicts = [verify_lie_rb(ind) for ind in inds]
    assert [(v.valid, v.witness) for v in verdicts] == \
        [reference_lie_verdict(ind) for ind in inds]
    assert {v.witness[-1] for v in verdicts if not v} == {"additivity", "identity"}


def test_induced_reads_the_ring_series(monkeypatch, heis3):
    # the series is computed once, by the ring; pushing each central
    # conjugation down reads it off the ring
    calls = {"series": 0}
    monkeypatch.setattr(lie_ring, "lower_central_series",
                        counting(calls, "series", lie_ring.lower_central_series))
    ring = graded_lie_ring(heis3)
    for g in heis3.elements():
        assert verify_lie_rb(induced_rb(ring, central_conjugation(heis3, g)))
    assert calls == {"series": 1}
