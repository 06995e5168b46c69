import json

import pytest

from helpers import counting, random_images, reference_power_product
from rbgroups import constructions, groups, operators
from rbgroups.constructions import (
    affine_map_check,
    cascade_rb,
    central_conjugation,
    direct_product_rb,
    enumerate_rb_matrices,
    hom_to_abelian,
    is_k_abelian,
    nonsplitting_witness,
    power_map,
    power_product_rb,
    rb_matrix_check,
    semidirect_rb,
    split_algebra_rb_check,
    splitting_from_factorization,
    triangular_splitting,
    wreath_rb,
)
from rbgroups.corpus import corpus_group, corpus_names
from rbgroups.derived import derived_group
from rbgroups.enumeration import graph_enumerate
from rbgroups.errors import (
    CommutationFails,
    DecompositionNotUnique,
    ImageNotAbelian,
    InvalidInput,
    InvalidMatrix,
    NotExactFactorization,
    NotHomomorphism,
    OrderCapExceeded,
    PreconditionFailed,
    TrivialH,
)
from rbgroups.groups import (
    DirectProduct,
    GroupMap,
    Subgroup,
    all_homomorphisms,
    automorphisms,
    center,
    direct_power,
    direct_product,
    exact_factorizations,
    from_cayley_table,
    is_isomorphic,
    opposite_group,
    semidirect_product,
    subgroup_generated,
    wreath_product,
)
from rbgroups.operators import (
    conjugate,
    elementary,
    is_splitting,
    rb_operator,
    tilde,
    verify,
)


# ---------------------------------------------------------------------------
# splitting constructions


def test_splitting_from_factorization(s3):
    H = Subgroup(s3, [0, 3, 4])
    L = Subgroup(s3, [0, 1])
    op = splitting_from_factorization(s3, H, L)
    assert op.images == (0, 1, 1, 0, 0, 1)


def test_splitting_keeps_its_factorization(s3, d4):
    # the operator built from G = HL splits with kernel H and image L
    for G in (s3, d4):
        for H, L in exact_factorizations(G):
            sp = is_splitting(splitting_from_factorization(G, H, L))
            assert sp
            assert (sp.kernel.elements, sp.image.elements) == (H.elements, L.elements)


def test_splitting_rejects_bad_factorization(s3):
    with pytest.raises(NotExactFactorization):
        splitting_from_factorization(s3, Subgroup(s3, [0, 3, 4]), Subgroup(s3, [0, 3, 4]))
    with pytest.raises(NotExactFactorization):
        splitting_from_factorization(s3, Subgroup(s3, [0]), Subgroup(s3, [0, 1]))


def test_splitting_round_trips_census(d4):
    # every splitting operator is reproduced by its own kernel/image pair
    from rbgroups.enumeration import graph_enumerate

    for op in graph_enumerate(d4).operators:
        sp = is_splitting(op)
        if sp:
            again = splitting_from_factorization(d4, sp.kernel, sp.image)
            assert again.images == op.images


def test_triangular_splitting_heis3(heis3):
    H = subgroup_generated(heis3, [3])
    L = Subgroup(heis3, [0, 1, 2])
    M = subgroup_generated(heis3, [9])
    packL = L.as_group().group
    expected_prefix = {
        0: (0, 0, 0, 0, 0, 0, 0, 0, 0),
        1: (0, 1, 2, 0, 1, 2, 0, 1, 2),
        2: (0, 2, 1, 0, 2, 1, 0, 2, 1),
    }
    for k in range(3):
        C = rb_operator(packL, [packL.power(g, k) for g in packL.elements()])
        op = triangular_splitting(heis3, H, L, M, C)
        assert op.images[:9] == expected_prefix[k]
        assert verify(op)
        assert _twists_into_triangular_type(op, H, C, M)


def _twists_into_triangular_type(op, H, C, M):
    """Whether the twisted group of op is isomorphic to H x L_C x M^op."""
    expected = direct_product(
        direct_product(H.as_group().group, derived_group(C).group).group,
        opposite_group(M.as_group().group),
    ).group
    return is_isomorphic(derived_group(op).group, expected) is not None


def test_triangular_error_paths(d4):
    packZ = Subgroup(d4, [0, 2]).as_group().group
    C = elementary(packZ, "b0")
    with pytest.raises(DecompositionNotUnique):
        triangular_splitting(
            d4, Subgroup(d4, [0, 3]), Subgroup(d4, [0, 2]), Subgroup(d4, [0, 7]), C
        )
    with pytest.raises(CommutationFails):
        triangular_splitting(
            d4, Subgroup(d4, [0, 4]), Subgroup(d4, [0, 2]), Subgroup(d4, [0, 3]), C
        )


def test_triangular_on_d4(d4):
    packZ = Subgroup(d4, [0, 2]).as_group().group
    C = elementary(packZ, "b0")
    H, L, M = Subgroup(d4, [0, 3]), Subgroup(d4, [0, 2]), Subgroup(d4, [0, 4])
    op = triangular_splitting(d4, H, L, M, C)
    assert op.images == (0, 4, 0, 0, 4, 4, 4, 0)
    assert _twists_into_triangular_type(op, H, C, M)


def test_semidirect_rb_a4():
    a4 = corpus_group("A4")
    H = Subgroup(a4, [0, 4, 5, 11])
    L = subgroup_generated(a4, [1])
    packL = L.as_group().group
    inv_c = rb_operator(packL, [packL.inverses[g] for g in packL.elements()])
    # with C = inversion the semidirect recipe is the plain splitting one
    assert semidirect_rb(a4, H, L, inv_c).images == \
        splitting_from_factorization(a4, H, L).images
    id_c = rb_operator(packL, list(packL.elements()))
    op = semidirect_rb(a4, H, L, id_c)
    assert op.images == (0, 1, 3, 3, 0, 0, 1, 1, 3, 1, 3, 0)
    for C in (inv_c, id_c):
        _assert_twists_into_semidirect(a4, H, L, C)


def _assert_twists_into_semidirect(G, H, L, C):
    # (h, l) -> h . l is an isomorphism from H x| L_C, with L_C acting by
    # conjugation in the twisted product, onto the twisted group
    dg = derived_group(semidirect_rb(G, H, L, C))
    ct = dg.circle_table
    packH, packL = H.as_group(), L.as_group()
    dgc = derived_group(C)
    action = []
    for l_local in dgc.group.elements():
        l = packL.to_parent[l_local]
        li = dg.group.inverses[l]
        action.append([packH.from_parent[ct[ct[l][packH.to_parent[x]]][li]]
                       for x in packH.group.elements()])
    sdp = semidirect_product(packH.group, dgc.group, action)
    m = GroupMap.hom(sdp.group, dg.group, [
        ct[packH.to_parent[h]][packL.to_parent[l]]
        for h, l in (sdp.decode(x) for x in sdp.group.elements())
    ])
    assert m.bijective


def test_semidirect_requires_normal_h(s3):
    H = Subgroup(s3, [0, 1])
    L = Subgroup(s3, [0, 3, 4])
    packL = L.as_group().group
    with pytest.raises(InvalidInput):
        semidirect_rb(s3, H, L, elementary(packL, "b0"))


# ---------------------------------------------------------------------------
# pointwise recipes


def test_hom_to_abelian_sign_map(s3):
    op = hom_to_abelian(s3, [0, 1, 1, 0, 0, 1])
    assert verify(op)
    # a homomorphism into an abelian image is an antihomomorphism too
    assert hom_to_abelian(s3, [0, 1, 1, 0, 0, 1], mode="antihom").images == op.images


def test_hom_to_abelian_rejections(s3):
    with pytest.raises(NotHomomorphism):
        hom_to_abelian(s3, [0, 1, 1, 0, 0, 0])
    with pytest.raises(ImageNotAbelian):
        hom_to_abelian(s3, list(s3.elements()))
    with pytest.raises(InvalidInput):
        hom_to_abelian(s3, [0, 1, 1, 0, 0, 1], mode="both")


@pytest.mark.parametrize("name", corpus_names())
def test_hom_to_abelian_names_first_failing_pair(name, rng):
    # the refusal names the first pair, in row-major order, at which the
    # map is not a (anti)homomorphism, and then the first pair of image
    # elements that do not commute, as a walk over all pairs finds them:
    # on random maps, on the trivial map changed at one element, and on
    # endomorphisms, which pass as homomorphisms or fail as antihomomorphisms
    G = corpus_group(name)
    t, e = G.table, G.identity
    maps = [random_images(G, rng, fix_identity=False) for _ in range(8)]
    for _ in range(8):
        f = [e] * G.order
        f[rng.randrange(G.order)] = rng.randrange(G.order)
        maps.append(f)
    homs = all_homomorphisms(G, G)
    maps += [list(rng.choice(homs).images) for _ in range(8)]
    for f in maps:
        for mode in ("hom", "antihom"):
            want = next(((a, b) for a in G.elements() for b in G.elements()
                         if f[t[a][b]] != (t[f[a]][f[b]] if mode == "hom" else t[f[b]][f[a]])),
                        None)
            try:
                hom_to_abelian(G, f, mode=mode)
            except NotHomomorphism as exc:
                assert want is not None
                assert str(exc) == str(NotHomomorphism(
                    f"map is not a {mode} at pair ({want[0]}, {want[1]})"))
            except ImageNotAbelian as exc:
                img = sorted(set(f))
                x, y = next((x, y) for x in img for y in img if x < y and t[x][y] != t[y][x])
                assert want is None
                assert str(exc) == str(ImageNotAbelian(
                    f"image elements {x} and {y} do not commute"))
            else:
                assert want is None


def test_power_map_matches_k_abelian(s3, z6, q8):
    for G in (s3, z6, q8):
        for n in range(G.order + 1):
            assert bool(power_map(G, n)) == is_k_abelian(G, n + 1)


def test_power_map_witness(s3):
    res = power_map(s3, 1)
    assert not res and res.operator is None
    assert res.witness == (1, 2)
    assert power_map(s3, 0).operator.images == (0,) * 6


def test_power_map_on_abelian(z6):
    for n in range(7):
        res = power_map(z6, n)
        assert res
        assert res.operator.images == tuple(z6.power(g, n) for g in z6.elements())


def test_central_conjugation(s3, d4, q8, heis3):
    # class-2 groups accept every g; S3 only the identity
    for g in s3.elements():
        got = central_conjugation(s3, g)
        if g == 0:
            assert got is not None and got.images == tuple(s3.inverses)
        else:
            assert got is None
    for G in (d4, q8, heis3):
        for g in G.elements():
            op = central_conjugation(G, g)
            assert op is not None
            assert verify(op)
            # it twists G into the reversed product
            assert derived_group(op).circle_table == opposite_group(G).table


def test_affine_map_check(s3, z6):
    for a in z6.elements():
        for b in z6.elements():
            got = affine_map_check(z6, a, b)
            assert (got is not None) == (b == z6.inverses[a])
    for a in s3.elements():
        for b in s3.elements():
            assert affine_map_check(s3, a, b) is None


# ---------------------------------------------------------------------------
# products, cascades, matrices


def test_direct_product_rb(s3, z4):
    prod = direct_product(s3, z4)
    split = rb_operator(s3, [0, 1, 1, 0, 0, 1])
    zop = rb_operator(z4, [0, 2, 0, 2])
    op = direct_product_rb(prod, [split, zop])
    assert verify(op)
    for g in prod.group.elements():
        x, y = prod.decode(g)
        assert prod.decode(op(g)) == (split(x), zop(y))
    # the Z4 factor is not splitting, so neither is the product
    assert not is_splitting(op)


def test_cascade_plain(s3):
    op = cascade_rb(s3, 3)
    prod_check = op.group
    assert prod_check.order == 216
    assert verify(op)


def test_cascade_verifies_once(s3, monkeypatch):
    # only the requested variant is built and checked: one verify
    # decision, and no scan for a witness, since the operator is valid
    calls = {"decide": 0, "defect": 0}
    monkeypatch.setattr(operators, "_decide",
                        counting(calls, "decide", operators._decide))
    monkeypatch.setattr(operators, "_first_defect",
                        counting(calls, "defect", operators._first_defect))
    for variant in ("plain", "tilde"):
        calls.update(decide=0, defect=0)
        cascade_rb(s3, 2, variant)
        assert calls == {"decide": 1, "defect": 0}


def test_cascade_components(s3):
    prod = direct_power(s3, 3)
    op = cascade_rb(s3, 3)
    for g in prod.group.elements():
        g1, g2, g3 = prod.decode(g)
        assert prod.decode(op(g)) == (0, g1, s3.mul(g2, g1))
    top = cascade_rb(s3, 3, "tilde")
    assert tilde(op).images == top.images
    for g in prod.group.elements():
        g1, g2, g3 = prod.decode(g)
        i = s3.inverses
        assert prod.decode(top(g)) == (
            i[g1],
            s3.mul(i[g2], i[g1]),
            s3.prod([i[g3], i[g2], i[g1]]),
        )


def _cascade_matrix(n, variant):
    if variant == "plain":
        return [[int(s < i) for i in range(n)] for s in range(n)]
    return [[-int(s <= i) for i in range(n)] for s in range(n)]


@pytest.mark.parametrize("name", ["S3", "Z2", "Z3", "D4", "Q8"])
def test_cascade_is_a_power_product(monkeypatch, name):
    # plain is the power product of r_si = [s < i], tilde that of
    # r_si = -[s <= i]; both matrices pass the matrix checks, which the
    # cascade itself does not run
    G = corpus_group(name)
    calls = {"matrix": 0}
    monkeypatch.setattr(constructions, "rb_matrix_check",
                        counting(calls, "matrix", rb_matrix_check))
    for n in (1, 2, 3):
        prod = direct_power(G, n)
        for variant in ("plain", "tilde"):
            r = _cascade_matrix(n, variant)
            assert rb_matrix_check(r) and split_algebra_rb_check(r)
            calls["matrix"] = 0
            op = cascade_rb(G, n, variant)
            assert calls == {"matrix": 0}
            for x in prod.group.elements():
                parts = prod.decode(x)
                assert prod.decode(op(x)) == reference_power_product(G, parts, r)


def test_cascade_argument_errors(s3):
    with pytest.raises(InvalidInput, match="variant"):
        cascade_rb(s3, 2, "mirror")
    with pytest.raises(InvalidInput, match="n >= 1"):
        cascade_rb(s3, 0)
    with pytest.raises(OrderCapExceeded):
        cascade_rb(s3, 1000)


def test_power_product_matches_reference(s3):
    # every n = 3 matrix on S3^3, against the product read off directly
    prod = direct_power(s3, 3)
    for m in enumerate_rb_matrices(3):
        op = power_product_rb(s3, 3, m)
        assert op.group is prod.group
        for x in prod.group.elements():
            parts = prod.decode(x)
            assert prod.decode(op(x)) == reference_power_product(s3, parts, m.entries)


@pytest.mark.parametrize("name", ["S3", "Z2xZ2"])
def test_twisted_power_product_matches_reference(name):
    # every n = 3 matrix with three chains of automorphisms, against the
    # twists multiplied out factor by factor
    G = corpus_group(name)
    prod, auts = direct_power(G, 3), automorphisms(G)
    chains = [(auts[1], auts[-1]), (auts[-1], auts[2]), (auts[3], auts[3])]
    for m in enumerate_rb_matrices(3):
        for psis in chains:
            op = power_product_rb(G, 3, m, psis=psis)
            for x in prod.group.elements():
                assert prod.decode(op(x)) == \
                    reference_power_product(G, prod.decode(x), m.entries, psis)


def test_power_products_share_one_power(monkeypatch):
    # all 48 n = 3 power products and the cascade on a fresh S3 act on the
    # one S3^3 memoized on it, whose table is built once; the images equal
    # those of a product built directly
    s3 = corpus_group("S3")
    fresh = from_cayley_table(s3.table, name="S3")
    calls = {"table": 0}
    monkeypatch.setattr(groups, "_product_table",
                        counting(calls, "table", groups._product_table))
    ops = [power_product_rb(fresh, 3, m) for m in enumerate_rb_matrices(3)]
    ops.append(cascade_rb(fresh, 3))
    assert calls == {"table": 1}
    assert len(ops) == 49 and all(op.group is direct_power(fresh, 3).group for op in ops)
    direct = DirectProduct((fresh,) * 3)
    assert direct.group.table == ops[0].group.table
    for op, m in zip(ops, enumerate_rb_matrices(3)):
        assert op.images == constructions._power_product(direct, m.entries, None).images
    assert ops[-1].images == cascade_rb(s3, 3).images


def test_matrix_census_counts():
    with open("tests/goldens/matrix_counts.json") as fh:
        golden = json.load(fh)
    for n in range(1, 5):
        assert len(enumerate_rb_matrices(n)) == golden[str(n)]


def test_matrix_checks_agree(rng):
    import itertools

    for n in (1, 2, 3):
        for values in itertools.product((-1, 0, 1), repeat=n * n):
            rows = [list(values[i * n:(i + 1) * n]) for i in range(n)]
            assert rb_matrix_check(rows) == split_algebra_rb_check(rows)
    for _ in range(500):
        rows = [[rng.choice((-1, 0, 1)) for _ in range(4)] for _ in range(4)]
        assert rb_matrix_check(rows) == split_algebra_rb_check(rows)


def test_matrix_census_n2_frozen():
    got = [m.entries for m in enumerate_rb_matrices(2)]
    assert got == [
        ((-1, -1), (0, -1)),
        ((-1, -1), (0, 0)),
        ((-1, 0), (0, -1)),
        ((-1, 0), (0, 0)),
        ((0, 0), (0, -1)),
        ((0, 0), (0, 0)),
        ((0, 1), (0, -1)),
        ((0, 1), (0, 0)),
    ]


def test_power_product_matches_cascades(s3):
    assert power_product_rb(s3, 2, [[0, 1], [0, 0]]).images == \
        cascade_rb(s3, 2).images
    assert power_product_rb(s3, 2, [[-1, -1], [0, -1]]).images == \
        cascade_rb(s3, 2, "tilde").images


def test_power_product_all_n2_matrices(s3):
    for m in enumerate_rb_matrices(2):
        assert verify(power_product_rb(s3, 2, m))


def test_power_product_rejects_bad_matrix(s3):
    with pytest.raises(InvalidMatrix):
        power_product_rb(s3, 2, [[0, 0], [1, 0]])
    with pytest.raises(InvalidMatrix):
        power_product_rb(s3, 2, [[1, 0], [0, 0]])
    with pytest.raises(InvalidMatrix):
        power_product_rb(s3, 3, [[0, 1], [0, 0]])


def test_power_product_twisted(s3):
    psi = next(
        a for a in automorphisms(s3) if a.images != tuple(s3.elements())
    )
    plain = power_product_rb(s3, 2, [[-1, -1], [0, -1]])
    twisted = power_product_rb(s3, 2, [[-1, -1], [0, -1]], psis=[psi])
    assert verify(twisted)
    assert twisted.images != plain.images


def test_power_product_twist_is_a_conjugate(s3):
    # the psi-twisted operator is the plain one conjugated by the diagonal
    # automorphism (x_1, ..., x_n) -> (chain_1(x_1), ..., chain_n(x_n)),
    # chain_1 the identity and chain_{i+1} = chain_i . psi_i^-1
    auts = automorphisms(s3)
    n = 3
    prod = direct_power(s3, n)
    P = prod.group
    for m in enumerate_rb_matrices(n)[::7]:
        for psis in ([auts[1], auts[2]], [auts[3], auts[1]], [auts[5], auts[5]]):
            chain = [list(range(s3.order))]
            for psi in psis:
                inv_psi = psi.inverse().images
                chain.append([chain[-1][inv_psi[x]] for x in s3.elements()])
            phi = GroupMap.automorphism(P, [
                prod.encode([chain[i][x] for i, x in enumerate(prod.decode(g))])
                for g in P.elements()
            ])
            plain = power_product_rb(s3, n, m)
            twisted = power_product_rb(s3, n, m, psis=psis)
            assert twisted.images == conjugate(plain, phi).images


@pytest.mark.parametrize("names", [("S3", "Z4"), ("Z2", "S3", "Z2"), ("Z1", "D4")])
def test_direct_product_rb_matches_coding(names):
    # the gathered images, against the element coding one element at a time
    factors = [corpus_group(name) for name in names]
    prod = DirectProduct(factors)
    censuses = [graph_enumerate(F).operators for F in factors]
    for k in range(max(map(len, censuses))):
        ops = [c[(k * (i + 1)) % len(c)] for i, c in enumerate(censuses)]
        op = direct_product_rb(prod, ops)
        assert list(op.images) == [
            prod.encode([B(x) for B, x in zip(ops, prod.decode(g))])
            for g in prod.group.elements()]


@pytest.mark.parametrize("h, l", [("Z2", "Z3"), ("S3", "Z2"), ("Z3", "Z1"), ("Q8", "Z2")])
def test_nonsplitting_witness_matches_coding(h, l):
    H, L = corpus_group(h), corpus_group(l)
    op = nonsplitting_witness(H, L)
    prod = DirectProduct((H, H, L))
    assert op.group.table == prod.group.table
    assert list(op.images) == [prod.encode((H.identity, prod.decode(x)[0], L.identity))
                               for x in prod.group.elements()]


def test_nonsplitting_witness(z4):
    z2 = corpus_group("Z2")
    z3 = corpus_group("Z3")
    op = nonsplitting_witness(z2, z3)
    assert op.group.order == 12
    assert verify(op) and not is_splitting(op)
    with pytest.raises(TrivialH):
        nonsplitting_witness(corpus_group("Z1"), z4)


# ---------------------------------------------------------------------------
# wreath products


def test_wreath_inverse_base():
    z2 = corpus_group("Z2")
    W = wreath_product(z2, z2)
    op = wreath_rb(W, "inverse_base")
    assert op.images == (0, 1, 2, 3, 0, 1, 2, 3)
    assert is_splitting(op)


def test_wreath_top_endo():
    z2 = corpus_group("Z2")
    W = wreath_product(z2, z2)
    op = wreath_rb(W, "top_endo", phi=GroupMap.hom(z2, z2, [0, 0]))
    assert op.images == (0,) * 8
    op2 = wreath_rb(W, "top_endo", phi=GroupMap.hom(z2, z2, [0, 1]))
    assert verify(op2)


@pytest.mark.parametrize("h, l", [("Z2", "Z2"), ("Z2", "S3"), ("S3", "Z2"), ("Z2", "Z3"),
                                  ("Z4", "Z1"), ("Z1", "S3"), ("Z2xZ2", "Z1")])
def test_wreath_images_match_coding(h, l):
    # each variant's gathered images, against the element coding one
    # element at a time
    H, L = corpus_group(h), corpus_group(l)
    W = wreath_product(H, L)

    def coded(image):
        return [image(*W.decode(x)) for x in W.group.elements()]

    op = wreath_rb(W, "inverse_base")
    assert list(op.images) == coded(
        lambda _, f: W.encode(L.identity, tuple(H.inverses[v] for v in f)))
    if L.is_abelian:
        for phi in all_homomorphisms(L, L):
            op = wreath_rb(W, "top_endo", phi=phi)
            assert list(op.images) == coded(
                lambda top, _: W.encode(phi(top), (H.identity,) * L.order))
    if H.order == 1 or L.order == 1:
        base = direct_power(H, L.order)
        for b_top in graph_enumerate(L).operators:
            for b_base in graph_enumerate(base.group).operators:
                op = wreath_rb(W, "componentwise", b_top=b_top, b_base=b_base)
                assert list(op.images) == coded(lambda top, f: W.encode(
                    b_top(top), base.decode(b_base(base.encode(f)))))


def test_wreath_top_endo_needs_abelian_top(s3):
    z2 = corpus_group("Z2")
    W = wreath_product(z2, s3)
    with pytest.raises(PreconditionFailed):
        wreath_rb(W, "top_endo", phi=GroupMap.hom(s3, s3, list(s3.elements())))


def test_wreath_componentwise():
    from rbgroups.groups import direct_power

    z1 = corpus_group("Z1")
    z4 = corpus_group("Z4")
    W = wreath_product(z4, z1)
    base = direct_power(z4, 1)
    op = wreath_rb(
        W,
        "componentwise",
        b_top=elementary(z1, "b0"),
        b_base=rb_operator(base.group, [0, 2, 0, 2]),
    )
    assert verify(op)
    z2 = corpus_group("Z2")
    with pytest.raises(PreconditionFailed):
        wreath_rb(
            wreath_product(z2, z2),
            "componentwise",
            b_top=elementary(z2, "b0"),
            b_base=elementary(direct_power(z2, 2).group, "b0"),
        )


def test_wreath_unknown_variant():
    z2 = corpus_group("Z2")
    with pytest.raises(InvalidInput):
        wreath_rb(wreath_product(z2, z2), "diagonal")
