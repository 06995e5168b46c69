import importlib
import inspect
import json
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import (
    counting,
    mixed_radix_encode,
    naive_is_subgroup,
    reference_group_axioms,
    reference_hom_defect,
    reference_homomorphisms,
    reference_normal_within,
    reference_permutation_group,
    reference_subgroups,
    relabel,
)
import rbgroups
from rbgroups import corpus, groups
from rbgroups.corpus import CORPUS_NAMES, corpus_group
from rbgroups.errors import (
    ActionNotHomomorphism,
    InvalidInput,
    NoIdentity,
    NotAssociative,
    NotHomomorphism,
    NotLatinSquare,
    OrderCapExceeded,
)
from rbgroups.constructions import cascade_rb
from rbgroups.derived import derived_group
from rbgroups.enumeration import _factor_data, graph_enumerate
from rbgroups.extension import closure_group, word_image, word_pair, word_probe
from rbgroups.groups import (
    DirectProduct,
    GroupMap,
    Subgroup,
    all_homomorphisms,
    all_subgroups,
    automorphisms,
    center,
    commutator_subgroup,
    derived_subgroup,
    direct_power,
    direct_product,
    exact_factorizations,
    fixed_point_free,
    from_cayley_table,
    from_permutations,
    generating_sequence,
    is_isomorphic,
    is_normal,
    is_simple,
    isomorphisms_all,
    lower_central_series,
    opposite_group,
    quotient,
    semidirect_product,
    subgroup_generated,
    wreath_product,
)
from rbgroups.operators import image, kernel
from rbgroups.serialization import group_to_json, parse_group

# a latin square with identity 0 that fails associativity at (1,1,2)
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_table_validation_errors():
    with pytest.raises(NotLatinSquare):
        from_cayley_table([[0, 1], [0, 1]])
    with pytest.raises(NoIdentity):
        from_cayley_table([[1, 0, 2], [0, 2, 1], [2, 1, 0]])
    with pytest.raises(NotAssociative):
        from_cayley_table(LOOP5)
    with pytest.raises(NotLatinSquare):
        from_cayley_table([[0, 1], [1, 2]])
    # x*y = y - x in Z3: 0 is a left identity only
    with pytest.raises(NoIdentity):
        from_cayley_table([[(j - i) % 3 for j in range(3)] for i in range(3)])
    # LOOP5 x Z2 numbered (l, h) -> 2l + h: the first generator, 1, passes
    # Light's test and the second, 2, fails it
    loop_z2 = [[LOOP5[a // 2][b // 2] * 2 + (a + b) % 2 for b in range(10)]
               for a in range(10)]
    with pytest.raises(NotAssociative, match=r"^\(2\*2\)\*4 != 2\*\(2\*4\)$"):
        from_cayley_table(loop_z2)


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _relabel(table, sigma):
    """The table with every element x renamed sigma[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return out


def _column_cycles(t, r1, r2):
    """Rows r1 and r2 hold the same entries on each cycle of columns
    k -> (column of t[r2][k] in row r1), so swapping the two rows on one
    cycle keeps every row and column a permutation."""
    col_in_r1 = {v: k for k, v in enumerate(t[r1])}
    cycles, seen = [], set()
    for k in range(len(t)):
        cycle = []
        while k not in seen:
            seen.add(k)
            cycle.append(k)
            k = col_in_r1[t[r2][k]]
        if cycle:
            cycles.append(cycle)
    return cycles


@st.composite
def _loops(draw, max_order=40):
    """Latin squares with an identity, mostly not associative: the table
    of Z_n after cycle switches that spare the identity's row and column,
    relabelled at random.  For prime n no such switch exists, and the
    result is Z_n relabelled."""
    n = draw(st.integers(1, max_order))
    t = _cyclic_table(n)
    for _ in range(draw(st.integers(1, 4)) if n >= 4 else 0):
        r1 = draw(st.integers(1, n - 1))
        switches = [(r2, cycle) for r2 in range(1, n) if r2 != r1
                    for cycle in _column_cycles(t, r1, r2) if 0 not in cycle]
        if switches:
            r2, cycle = draw(st.sampled_from(switches))
            for k in cycle:
                t[r1][k], t[r2][k] = t[r2][k], t[r1][k]
    return _relabel(t, draw(st.permutations(range(n))))


@st.composite
def _corpus_tables(draw):
    """A corpus group's table, relabelled, then left alone, changed in one
    or two cells, or with its rows or its columns permuted."""
    G = corpus_group(draw(st.sampled_from(CORPUS_NAMES)))
    n = G.order
    t = _relabel(G.table, draw(st.permutations(range(n))))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    change = draw(st.sampled_from(["none", "one cell", "two cells", "swap in a row",
                                   "rows permuted", "columns permuted"]))
    if change == "swap in a row":
        (i, j), k = draw(cell), draw(st.integers(0, n - 1))
        t[i][j], t[i][k] = t[i][k], t[i][j]
    elif change.endswith("permuted"):
        # still a Latin square, with a left (right) identity but seldom a
        # two-sided one
        pi = draw(st.permutations(range(n)))
        if change == "rows permuted":
            t = [t[pi[a]] for a in range(n)]
        else:
            t = [[row[pi[b]] for b in range(n)] for row in t]
    else:
        for _ in range(("none", "one cell", "two cells").index(change)):
            i, j = draw(cell)
            t[i][j] = draw(st.integers(0, n - 1))
    return t


@st.composite
def _malformed(draw):
    """A cyclic table with rows cut short or made long, or with entries
    out of range, in one to three places."""
    n = draw(st.integers(1, 40))
    t = _cyclic_table(n)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, n - 1))
        damage = draw(st.sampled_from(["short", "long", "negative", "too large"]))
        if damage == "short":
            t[i] = t[i][:draw(st.integers(0, n - 1))]
        elif damage == "long":
            t[i] = t[i] + [draw(st.integers(0, n - 1))]
        elif t[i]:
            low, high = (-5, -1) if damage == "negative" else (n, n + 5)
            t[i][draw(st.integers(0, len(t[i]) - 1))] = draw(st.integers(low, high))
    return t


@st.composite
def _loop_products(draw):
    """A loop L with its identity moved to 0, times a small corpus group
    H, numbered (l, h) -> l |H| + h: the first generators lie in 0 x H,
    where Light's condition holds, and a later one may fail it."""
    t = draw(_loops(max_order=10))
    n, e = len(t), [row[0] for row in t].index(0)
    swap = list(range(n))
    swap[0], swap[e] = e, 0
    t = _relabel(t, swap)
    H = corpus_group(draw(st.sampled_from(["Z2", "Z3", "S3", "Z2xZ2"])))
    m = H.order
    return [[t[a // m][b // m] * m + H.table[a % m][b % m] for b in range(n * m)]
            for a in range(n * m)]


def _decide(table):
    try:
        G = from_cayley_table(table)
    except (NotLatinSquare, NoIdentity, NotAssociative) as exc:
        return type(exc), str(exc)
    assert [list(row) for row in G.table] == [list(row) for row in table]
    return G.identity, G.inverses


@settings(max_examples=300, deadline=None)
@given(table=st.one_of(_loops(), _loop_products(), _corpus_tables(), _malformed(),
                      st.just([])))
def test_validator_agrees_with_reference(table):
    # the same verdict, exception class and message as the plain-loop
    # reference, for the table as lists and as an integer array
    want = reference_group_axioms(table)
    event(want[0].__name__ if isinstance(want[0], type) else "group")
    assert _decide(table) == want
    if table and len({len(row) for row in table}) == 1:
        assert _decide(np.array(table)) == want


def test_validator_work(monkeypatch):
    """Light's test settles the table of every group the library builds,
    validated as an outside table, without the full associativity scan,
    checking at most ceil(log2 n) generators."""
    scans, checked = [], []
    scan, greedy = groups._check_associative, groups._greedy_generators

    def counted_scan(t):
        scans.append(len(t))
        scan(t)

    def counted_greedy(table, identity):
        gens = []
        checked.append((len(table), gens))
        for s in greedy(table, identity):
            gens.append(s)
            yield s

    monkeypatch.setattr(groups, "_check_associative", counted_scan)
    monkeypatch.setattr(groups, "_greedy_generators", counted_greedy)
    z2, z4, s3 = corpus_group("Z2"), corpus_group("Z4"), corpus_group("S3")
    built = [corpus._build(name.lower()) for name in CORPUS_NAMES]
    built += [
        direct_power(s3, 3).group,
        wreath_product(z2, s3).group,
        semidirect_product(z4, z2, [[0, 1, 2, 3], [0, 3, 2, 1]]).group,
    ]
    for G in built:
        from_cayley_table(G.table)
    assert scans == []
    assert {n for n, _ in checked} >= {G.order for G in built}
    for n, gens in checked:
        assert len(gens) <= math.ceil(math.log2(n))
    # a rejected table runs the scan once, to name the failing triple
    with pytest.raises(NotAssociative, match=r"^\(1\*1\)\*2 != 1\*\(1\*2\)$"):
        from_cayley_table(LOOP5)
    assert scans == [5]


def _assert_proved(G):
    # a table built unchecked passes every group axiom of the plain-loop
    # reference, which finds the identity and inverses the group carries
    assert reference_group_axioms(G.table) == (G.identity, G.inverses)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_proved_quotients_and_permutation_groups(name):
    # the corpus groups closed from permutations, and every quotient
    G = corpus_group(name)
    _assert_proved(G)
    for N in all_subgroups(G):
        if is_normal(N):
            _assert_proved(quotient(G, N)[0])


@pytest.mark.parametrize("build, gens_count", [
    (lambda: corpus.symmetric(3), 2), (lambda: corpus.symmetric(4), 3),
    (lambda: corpus.symmetric(5), 4), (lambda: corpus.symmetric(6), 5),
    (lambda: corpus.alternating(4), 2), (lambda: corpus.alternating(5), 2),
    (lambda: corpus.alternating(6), 2), (lambda: corpus.dihedral(4), 2),
    (lambda: corpus.dihedral(6), 2),
])
def test_permutation_closure_matches_composition(monkeypatch, build, gens_count):
    # the closure's numbering, table, labels, identity and inverses are
    # those of plain breadth-first discovery and permutation composition
    seen = []
    real = corpus.from_permutations
    monkeypatch.setattr(corpus, "from_permutations",
                        lambda gens, name="": seen.append(gens) or real(gens, name=name))
    G = build()
    assert len(seen) == 1 and len(seen[0]) == gens_count
    elems, table = reference_permutation_group(seen[0])
    assert G.table == tuple(map(tuple, table))
    assert G.identity == 0
    assert G.inverses == tuple(row.index(0) for row in table)
    assert G.labels == tuple(groups._perm_cycles(p) for p in elems)


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_proved_subgroup_tables(name):
    # every subgroup repacked, its table the parent's product renumbered
    # in increasing order, and on S4 the census's quotients S/N
    G = corpus_group(name)
    subs = all_subgroups(G)
    for S in subs:
        packed = S.as_group()
        ids = list(S.elements)
        assert packed.to_parent == S.elements
        assert packed.from_parent == {g: i for i, g in enumerate(ids)}
        assert packed.group.table == tuple(
            tuple(ids.index(G.table[a][b]) for b in ids) for a in ids)
        assert packed.group.labels == tuple(G.label(g) for g in ids)
        _assert_proved(packed.group)
    if name == "S4":
        for entries in _factor_data(G, subs).values():
            for _, Q, _, _ in entries:
                _assert_proved(Q)


def test_proved_product_tables():
    # every product constructor; Z2 wr S3 (order 384) is checked in
    # test_proved_from_arrays
    z2, z3, z4, s3 = (corpus_group(name) for name in ("Z2", "Z3", "Z4", "S3"))
    for G in (direct_power(s3, 3).group, wreath_product(s3, z2).group,
              wreath_product(z2, z3).group,
              semidirect_product(z4, z2, [[0, 1, 2, 3], [0, 3, 2, 1]]).group):
        _assert_proved(G)


def test_proved_closure_and_twisted_tables():
    # the pair closures of the extension tests, and the twisted group of
    # every operator in three censuses
    for name, gens, images in (
            ("S3", [1, 2], [1, 2]), ("S3", [1, 2], [1, 0]), ("S3", [1, 3], [0, 0]),
            ("D4", [1, 2], [2, 2]), ("D4", [1, 2], [0, 3]), ("A4", [1, 4], [1, 0]),
            ("S4", [1, 2, 3], [0, 0, 0])):
        _assert_proved(closure_group(corpus_group(name), gens, images).group)
    for name in ("S3", "D4", "A4"):
        for op in graph_enumerate(corpus_group(name)).operators:
            _assert_proved(derived_group(op).group)


A6_GENS = [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)]


@pytest.mark.parametrize("build", [
    lambda: np.zeros((1, 1), dtype=np.int32),
    lambda: corpus_group("S3").np_table(),
    lambda: direct_power(corpus_group("S3"), 3).group.np_table(),
    lambda: wreath_product(corpus_group("Z2"), corpus_group("S3")).group.np_table(),
    lambda: from_permutations(A6_GENS).np_table(),
    lambda: np.array(relabel(corpus_group("S3"), [3, 4, 5, 0, 1, 2])),
    lambda: np.array(relabel(corpus_group("A5"), [(g + 30) % 60 for g in range(60)])),
], ids=["n1", "n6", "n216", "n384", "A6", "S3-e3", "A5-e30"])
def test_proved_from_arrays(build):
    # the identity and inverses read off an array, by Python scans up to
    # order 24 and by numpy above it, against the plain-loop reference,
    # also where the identity is not 0
    t = build()
    G = groups.FiniteGroup._proved(t)
    assert G.table == tuple(map(tuple, t.tolist()))
    _assert_proved(G)


@pytest.mark.parametrize("build", [
    lambda: wreath_product(corpus_group("Z2"), corpus_group("S3")).group,
    lambda: from_permutations(A6_GENS),
    lambda: from_cayley_table(
        wreath_product(corpus_group("Z2"), corpus_group("S3")).group.np_table().tolist()),
    lambda: parse_group(json.loads(json.dumps(group_to_json(from_permutations(A6_GENS))))),
], ids=["n384", "A6", "n384-rows", "A6-json"])
def test_proved_tables_share_ids(build):
    # above order 256, where CPython no longer shares small ints, the
    # table still holds one int object per element id, and so do the
    # inverses: also for a table from outside, whose rows (from tolist()
    # or a JSON parse) hold one int object per cell
    G = build()
    n = G.order
    assert n > 256
    assert len({id(x) for row in G.table for x in row}) == n
    assert {id(x) for x in G.inverses} <= {id(x) for x in G.table[G.identity]}


@pytest.mark.parametrize("names", [("Z2", "S3", "Z4"), ("Z1", "S3", "Z1"), ("S3", "Z3'")])
def test_direct_product_maps_match_coding(names):
    # the maps and coordinate arrays are the element coding, one element
    # at a time; Z3' is Z3 relabeled so that its identity is 2
    z3 = from_cayley_table(relabel(corpus_group("Z3"), [2, 0, 1]))
    factors = [z3 if name == "Z3'" else corpus_group(name) for name in names]
    prod = DirectProduct(factors)
    P, ids = prod.group, [F.identity for F in factors]
    for x in P.elements():
        assert tuple(prod.coords[:, x]) == prod.decode(x)
        assert int(prod.weights @ prod.coords[:, x]) == x
        assert tuple(p(x) for p in prod.projections) == prod.decode(x)
    for i, (F, inj) in enumerate(zip(factors, prod.injections)):
        for g in F.elements():
            assert inj(g) == prod.encode(ids[:i] + [g] + ids[i + 1:])
        assert inj.bijective == prod.projections[i].bijective == (F.order == P.order)


def test_built_groups_run_no_validation(monkeypatch):
    # validation is for tables from outside: what the library builds
    # from a theorem or a closure is not validated again
    calls = {"validate": 0}
    s4 = corpus_group("S4")
    monkeypatch.setattr(groups, "_validate_table",
                        counting(calls, "validate", groups._validate_table))
    graph_enumerate(corpus_group("A5"))
    cascade_rb(corpus_group("S3"), 3)
    for op in graph_enumerate(s4).operators:
        derived_group(op)
    closure_group(s4, [1, 2, 3], [0, 0, 0])
    assert calls == {"validate": 0}


def test_s3_generation_convention(s3):
    # built from adjacent transpositions; composition applies the right
    # factor first
    assert [s3.label(g) for g in s3.elements()] == [
        "()", "(0 1)", "(1 2)", "(0 1 2)", "(0 2 1)", "(0 2)"]
    assert s3.mul(1, 2) == 3
    assert s3.mul(2, 1) == 4
    assert s3.inv(3) == 4
    assert not s3.is_abelian


def test_element_orders_and_centers(s3, d4, q8, heis3):
    assert q8.order_profile() == (1, 2, 4, 4, 4, 4, 4, 4)
    assert sorted(d4.element_order(g) for g in d4.elements()) == [
        1, 2, 2, 2, 2, 2, 4, 4]
    assert center(s3).order == 1
    assert center(d4).order == 2
    assert center(q8).order == 2
    assert center(heis3).order == 3


def test_derived_and_lower_central(s3, d4, heis3):
    assert derived_subgroup(s3).elements == (0, 3, 4)
    assert [t.order for t in lower_central_series(d4)] == [8, 2, 1]
    assert [t.order for t in lower_central_series(heis3)] == [27, 3, 1]
    assert [t.order for t in lower_central_series(s3)] == [6, 3]
    assert commutator_subgroup(s3).elements == derived_subgroup(s3).elements


def test_power_and_prod(s3):
    for g in s3.elements():
        acc = s3.identity
        for k in range(1, 7):
            acc = s3.mul(acc, g)
            assert s3.power(g, k) == acc
        assert s3.power(g, -1) == s3.inv(g)
        assert s3.power(g, 0) == 0
    assert s3.prod([1, 2, 1]) == s3.mul(s3.mul(1, 2), 1)


def test_subgroup_validation(s3):
    with pytest.raises(InvalidInput):
        Subgroup(s3, (0, 1, 3))  # not closed
    sub = subgroup_generated(s3, [1])
    assert sub.elements == (0, 1)
    assert subgroup_generated(s3, [3]).elements == (0, 3, 4)
    assert subgroup_generated(s3, [1, 3]).is_whole_group()


@pytest.mark.parametrize("name,count", [
    ("S3", 6), ("D4", 10), ("Q8", 6), ("A4", 10), ("Z6", 4), ("Z12", 6),
])
def test_subgroup_counts(name, count):
    G = corpus_group(name)
    subs = all_subgroups(G)
    assert len(subs) == count
    for sub in subs:
        assert naive_is_subgroup(G, sub.elements)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "S4"])
def test_proved_subgroups_are_subgroups(name):
    # the sweep, generated subgroups, the center, the lower central series
    # and the kernel and image of every census operator are built without
    # the subgroup checks; each is a subgroup, with sorted distinct ids
    G = corpus_group(name)
    subs = list(all_subgroups(G)) + [center(G)] + lower_central_series(G)
    subs += [subgroup_generated(G, [g, h]) for g in G.elements() for h in G.elements()
             if g <= h]
    for op in graph_enumerate(G).operators:
        subs += [kernel(op), image(op)]
    for sub in subs:
        assert sub.parent is G
        assert sub.elements == tuple(sorted(set(sub.elements)))
        assert sub.as_set() == set(sub.elements)
        assert naive_is_subgroup(G, sub.elements)


@pytest.mark.parametrize("call", [
    lambda G: subgroup_generated(G, [99]),
    lambda G: subgroup_generated(G, [1, -1]),
    lambda G: groups.normal_closure(G, 99),
    lambda G: groups.normal_closure(G, -1),
    lambda G: word_image(G, [1, 2], [99, 1], ((0, 1),)),
    lambda G: word_pair(G, [1, 2], [1, 99], ((1, -1),)),
    lambda G: word_probe(G, [1, 2], [-1, 2], ((0, 1),)),
    lambda G: word_probe(G, [1, -1], [1, 2], ((0, 1),)),
], ids=["generated-99", "generated-neg", "normal-closure-99", "normal-closure-neg",
        "word-image-99", "word-pair-99", "word-probe-neg-image", "word-probe-neg-gen"])
def test_out_of_range_elements_refused(s3, call):
    with pytest.raises(InvalidInput, match="out of range"):
        call(s3)


def test_all_subgroups_reach_nonabelian_members():
    # a perfect subgroup is only reachable if closure joins whole
    # subgroups, not single generators
    a5 = corpus_group("A5")
    a4_like = [s for s in all_subgroups(a5) if s.order == 12]
    assert len(a4_like) == 5


@pytest.mark.parametrize("name", [*CORPUS_NAMES, "S5"])
def test_all_subgroups_match_reference(name):
    # the class sweep returns the same sorted list as a plain join sweep
    G = corpus.symmetric(5) if name == "S5" else corpus_group(name)
    assert [s.elements for s in all_subgroups(G)] == reference_subgroups(G)


def test_subgroup_functions_refuse_foreign_subgroups():
    # a subgroup of A4 is not a subgroup of S3, even where its ids fit
    s3, a4 = corpus_group("S3"), corpus_group("A4")
    foreign = all_subgroups(a4)
    with pytest.raises(InvalidInput):
        commutator_subgroup(s3, foreign[-1])
    with pytest.raises(InvalidInput):
        commutator_subgroup(s3, None, foreign[1])
    assert commutator_subgroup(s3, all_subgroups(s3)[-1]).order == 3


def test_normality(s3):
    assert is_normal(subgroup_generated(s3, [3]))
    assert not is_normal(subgroup_generated(s3, [1]))


# PSL(2,7) on the projective line over F_7, the point at infinity as 7:
# x -> x + 1 and x -> -1/x
PSL27_GENS = [tuple((x + 1) % 7 if x < 7 else 7 for x in range(8)),
              tuple(7 if x == 0 else 0 if x == 7 else -pow(x, -1, 7) % 7 for x in range(8))]


_MORE_GROUPS = {"S5": lambda: corpus.symmetric(5),
                "PSL(2,7)": lambda: from_permutations(PSL27_GENS)}
_SIMPLE = {"Z2", "Z3", "Z5", "Z7", "Z11", "Z13", "A5", "PSL(2,7)"}


@pytest.mark.parametrize("name", CORPUS_NAMES + list(_MORE_GROUPS))
def test_is_simple_agrees_with_definition(name):
    # simple: nontrivial, with no normal subgroup strictly between 1 and G
    G = _MORE_GROUPS.get(name, lambda: corpus_group(name))()
    between = [N for N in all_subgroups(G)[1:-1] if is_normal(N)]
    assert is_simple(G) == (G.order > 1 and not between) == (name in _SIMPLE)


def test_is_simple_takes_one_closure_per_class(monkeypatch):
    # A5 has five conjugacy classes: one normal closure per nontrivial one
    calls = {"closures": 0}
    monkeypatch.setattr(groups, "normal_closure",
                        counting(calls, "closures", groups.normal_closure))
    assert is_simple(corpus_group("A5"))
    assert calls == {"closures": 4}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_is_normal_agrees_with_conjugation_loop(name):
    G = corpus_group(name)
    whole = Subgroup(G, G.elements())
    for S in all_subgroups(G):
        assert is_normal(S) == reference_normal_within(G, S, whole)


@pytest.mark.parametrize("name", CORPUS_NAMES + ["S5"])
def test_normal_within_gather_agrees_with_loop(name):
    # inner is normal in outer exactly when outer lies in the normalizer
    # of inner, which the census and the structure report read; against
    # the conjugation loop, on every pair of subgroups inner <= outer
    G = _MORE_GROUPS.get(name, lambda: corpus_group(name))()
    subs = all_subgroups(G)
    for inner in subs:
        normalizer = groups._normalizer(G.np_table(), G.inverses, inner.elements)
        for outer in subs:
            if inner.as_set() <= outer.as_set():
                assert (outer.as_set() <= normalizer) == \
                    reference_normal_within(G, inner, outer)


def test_quotient(s3, d4):
    Q, proj = quotient(s3, subgroup_generated(s3, [3]))
    assert Q.order == 2
    assert proj.homomorphism
    Z, _ = quotient(d4, center(d4))
    assert is_isomorphic(Z, corpus_group("Z2xZ2")) is not None


@pytest.mark.parametrize("name", ["S3", "D4", "A5"])
def test_quotient_projection_is_proved(monkeypatch, name):
    # the projection is a homomorphism by construction: it is marked one
    # without the pairwise check, and the check finds no defect
    G = corpus_group(name)
    normals = [N for N in all_subgroups(G) if is_normal(N)]
    calls = {"checked_hom": 0}
    monkeypatch.setattr(groups, "_checked_hom",
                        counting(calls, "checked_hom", groups._checked_hom))
    for N in normals:
        Q, proj = quotient(G, N)
        assert Q.order * N.order == G.order
        assert proj.homomorphism and proj.bijective == (N.order == 1)
        assert proj.hom_defect() is None
        # cosets are numbered in the order of their least elements
        least = [min(g for g in G.elements() if proj(g) == q) for q in Q.elements()]
        assert least == sorted(least)
    assert calls == {"checked_hom": 0}


@pytest.mark.parametrize("name,count", [
    ("S3", 6), ("Z4", 2), ("Z6", 2), ("Q8", 24), ("D4", 8), ("Z2xZ2", 6),
    ("Z2xZ2xZ2", 168), ("A4", 24), ("S4", 24), ("D6", 12), ("Heis3", 432),
    ("A5", 120),
])
def test_automorphism_counts(rng, name, count):
    G = corpus_group(name)
    auts = automorphisms(G)
    assert len(auts) == count
    for phi in auts:
        assert phi.homomorphism and phi.bijective
    # on a renumbered copy the automorphisms are the renumbered ones
    perm = list(G.elements())
    rng.shuffle(perm)
    renamed = []
    for phi in auts:
        images = [0] * G.order
        for g, b in enumerate(phi.images):
            images[perm[g]] = perm[b]
        renamed.append(tuple(images))
    H = from_cayley_table(relabel(G, perm))
    assert [phi.images for phi in automorphisms(H)] == sorted(renamed)


def test_isomorphism_checks(z4, s3):
    assert is_isomorphic(z4, corpus_group("Z2xZ2")) is None
    d6 = corpus_group("D6")
    model = direct_product(corpus_group("Z2"), s3).group
    phi = is_isomorphic(d6, model)
    assert phi is not None and phi.bijective
    assert is_isomorphic(corpus_group("A4"), d6) is None
    assert len(isomorphisms_all(s3, s3)) == 6


@pytest.mark.parametrize("name", ["D6", "S4", "A5"])
def test_first_isomorphism_is_least_on_generators(rng, name):
    # is_isomorphic returns the isomorphism whose images on G's
    # generating sequence are lexicographically least
    G = corpus_group(name)
    if name == "D6":
        H = direct_product(corpus_group("Z2"), corpus_group("S3")).group
    else:
        perm = list(G.elements())
        rng.shuffle(perm)
        H = from_cayley_table(relabel(G, perm))
    gens = generating_sequence(G)
    isos = isomorphisms_all(G, H)
    assert len(isos) == len(automorphisms(G))
    least = min(isos, key=lambda phi: [phi(g) for g in gens])
    assert is_isomorphic(G, H).images == least.images


def test_hom_counts(s3, z6):
    assert len(all_homomorphisms(z6, z6)) == 6
    assert len(all_homomorphisms(s3, corpus_group("Z2"))) == 2
    assert len(all_homomorphisms(corpus_group("Z2"), s3)) == 4
    assert len(all_homomorphisms(s3, corpus_group("Z3"))) == 1


def test_homomorphisms_equal_brute_force():
    # every ordered pair of corpus groups of order 6 or less: the search
    # against a filter of all |H|^|G| maps
    tiny = [corpus_group(name) for name in CORPUS_NAMES if corpus_group(name).order <= 6]
    assert len(tiny) == 8
    for G in tiny:
        for H in tiny:
            homs = all_homomorphisms(G, H)
            assert [phi.images for phi in homs] == reference_homomorphisms(G, H), (G, H)
            for phi in homs:
                bijective = len(set(phi.images)) == H.order == G.order
                assert phi.homomorphism and phi.bijective == bijective


@pytest.mark.parametrize("name, examined, kept", [
    ("Heis3", [26, 676, 4992], [26, 192, 432]),
    ("A5", [24, 480], [24, 120]),
], ids=["Heis3", "A5"])
def test_automorphism_search_work(monkeypatch, name, examined, kept):
    # level k crosses the maps that survived level k-1 with the candidate
    # images of g_k and checks each crossed row once
    G = corpus_group(name)
    seen = {}
    real = groups._level_step

    def counting_step(level, H, rows, images, bijective):
        out = real(level, H, rows, images, bijective)
        totals = seen.setdefault(level.start, [0, 0])
        totals[0] += len(images)
        totals[1] += len(out)
        return out

    monkeypatch.setattr(groups, "_level_step", counting_step)
    assert len(automorphisms(G)) == kept[-1]
    assert [seen[start] for start in sorted(seen)] == [list(p) for p in zip(examined, kept)]


def test_proved_maps_run_no_range_check(monkeypatch, s3):
    # the maps a search or a theorem proves are built without the range
    # check of every image; the public constructors keep it
    heis3, z4 = corpus_group("Heis3"), corpus_group("Z4")
    N = center(corpus_group("D4"))
    calls = {"check": 0}
    monkeypatch.setattr(groups.FiniteGroup, "check_elements",
                        counting(calls, "check", groups.FiniteGroup.check_elements))
    assert len(automorphisms(heis3)) == 432
    DirectProduct((s3, z4))
    quotient(N.parent, N)
    assert calls == {"check": 0}
    with pytest.raises(InvalidInput):
        GroupMap.plain(s3, s3, [0, 1, 2, 3, 4, 6])
    assert calls == {"check": 1}


def test_group_map_validation(s3):
    with pytest.raises(NotHomomorphism):
        GroupMap.hom(s3, s3, [0, 1, 2, 3, 4, 4])
    phi = GroupMap.hom(s3, s3, [0, 2, 1, 4, 3, 5])
    assert phi.bijective
    assert phi.compose(phi.inverse()).images == tuple(s3.elements())
    assert fixed_point_free(GroupMap.automorphism(
        corpus_group("Z3"), [0, 2, 1]))


_SMALL = [name for name in CORPUS_NAMES if corpus_group(name).order <= 12]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hom_defect_agrees_with_reference(data):
    # random maps between corpus groups of any two orders, homomorphisms
    # between small ones, and homomorphisms with one image changed
    G = corpus_group(data.draw(st.sampled_from(CORPUS_NAMES)))
    H = corpus_group(data.draw(st.sampled_from(CORPUS_NAMES)))
    shape = data.draw(st.sampled_from(["random", "hom", "changed hom"]))
    if shape == "random":
        images = data.draw(st.lists(st.integers(0, H.order - 1),
                                    min_size=G.order, max_size=G.order))
        if data.draw(st.booleans()):
            images[G.identity] = H.identity
    else:
        G = corpus_group(data.draw(st.sampled_from(_SMALL)))
        H = corpus_group(data.draw(st.sampled_from(_SMALL)))
        images = list(data.draw(st.sampled_from(all_homomorphisms(G, H))).images)
        if shape == "changed hom":
            images[data.draw(st.integers(0, G.order - 1))] = data.draw(
                st.integers(0, H.order - 1))
    want = reference_hom_defect(G, H, images)
    event(f"{shape}, {'hom' if want is None else 'not a hom'}")
    assert GroupMap.plain(G, H, images).hom_defect() == want


def test_canonical_maps_hom_defect(monkeypatch, s3, z4):
    # the injections and projections of the product in
    # test_product_numbering, as built and with one image changed; they
    # are homomorphisms by construction, flagged so with no pairwise check
    calls = {"checked_hom": 0}
    monkeypatch.setattr(groups, "_checked_hom",
                        counting(calls, "checked_hom", groups._checked_hom))
    factors = (corpus_group("Z2"), s3, z4)
    prod = DirectProduct(factors)
    assert calls == {"checked_hom": 0}
    for m in prod.injections + prod.projections:
        assert m.homomorphism and not m.bijective
        assert m.hom_defect() is None
        assert reference_hom_defect(m.domain, m.codomain, m.images) is None
        for g in (1, m.domain.order - 1):
            images = list(m.images)
            images[g] = (images[g] + 1) % m.codomain.order
            want = reference_hom_defect(m.domain, m.codomain, images)
            assert want is not None
            assert GroupMap.plain(m.domain, m.codomain, images).hom_defect() == want
    for i, F in enumerate(factors):
        for g in F.elements():
            x = prod.injections[i](g)
            assert prod.decode(x) == tuple(
                g if j == i else H.identity for j, H in enumerate(factors))
            assert prod.projections[i](x) == g
    # bijective exactly when the other factors are trivial
    padded = DirectProduct((corpus_group("Z1"), s3, corpus_group("Z1")))
    for m in padded.injections + padded.projections:
        assert m.homomorphism and m.bijective == (m.domain.order == m.codomain.order)
        assert reference_hom_defect(m.domain, m.codomain, m.images) is None
    assert padded.injections[1].bijective and padded.projections[1].bijective


def test_exact_factorizations(s3, z6):
    fs = exact_factorizations(s3)
    assert len(fs) == 8
    for H, L in fs:
        assert H.order * L.order == 6
        assert set(H.elements) & set(L.elements) == {0}
    assert len(exact_factorizations(z6)) == 4
    # independent recomputation from the subgroup lattice
    subs = all_subgroups(s3)
    brute = [
        (H, L) for H in subs for L in subs
        if H.order * L.order == 6 and set(H.elements) & set(L.elements) == {0}
    ]
    assert len(brute) == len(fs)


def test_direct_product_coding(s3, z4):
    prod = direct_product(s3, z4)
    G = prod.group
    assert G.order == 24
    for g in G.elements():
        h, l = prod.decode(g)
        assert prod.encode((h, l)) == g
    a, b = prod.encode((1, 2)), prod.encode((2, 3))
    assert prod.decode(G.table[a][b]) == (s3.mul(1, 2), z4.mul(2, 3))


def test_product_numbering(s3, z4):
    """Every cell of each product table is the defining product, read off
    the factor tables through the product's own element coding."""
    z2 = corpus_group("Z2")
    prod = DirectProduct((z2, s3, z4))
    for a in prod.group.elements():
        for b in prod.group.elements():
            pa, pb = prod.decode(a), prod.decode(b)
            want = tuple(F.table[x][y] for F, x, y in zip(prod.factors, pa, pb))
            assert prod.group.table[a][b] == prod.encode(want)
    assert prod.encode((1, 2, 3)) == 1 * 24 + 2 * 4 + 3

    sdp = semidirect_product(z4, z2, [[0, 1, 2, 3], [0, 3, 2, 1]])
    for a in sdp.group.elements():
        for b in sdp.group.elements():
            (h1, l1), (h2, l2) = sdp.decode(a), sdp.decode(b)
            want = sdp.encode(z4.table[h1][sdp.action[l1](h2)], z2.table[l1][l2])
            assert sdp.group.table[a][b] == want
    assert sdp.encode(3, 1) == 3 * 2 + 1

    for H, L in ((z2, s3), (s3, z2)):
        w = wreath_product(H, L)
        for a in w.group.elements():
            for b in w.group.elements():
                (l1, f1), (l2, f2) = w.decode(a), w.decode(b)
                f = [H.table[f1[L.table[l2][x]]][f2[x]] for x in L.elements()]
                want = mixed_radix_encode([L.order] + [H.order] * L.order,
                                          [L.table[l1][l2]] + f)
                assert w.group.table[a][b] == want
                assert w.encode(L.table[l1][l2], f) == want
        assert w.decode(1) == (0, (0,) * (L.order - 1) + (1,))
        assert w.decode(w.base_size) == (1, (0,) * L.order)


def test_semidirect_validation(z4):
    z2 = corpus_group("Z2")
    sdp = semidirect_product(z4, z2, [[0, 1, 2, 3], [0, 3, 2, 1]])
    assert sdp.group.order == 8
    assert is_isomorphic(sdp.group, corpus_group("D4")) is not None
    with pytest.raises(ActionNotHomomorphism):
        semidirect_product(z4, z2, [[0, 1, 2, 3], [1, 0, 3, 2]])


@pytest.mark.parametrize("h, l", [("Z2xZ2", "Z4"), ("Z2xZ2", "S3"), ("Z2xZ2xZ2", "Z2xZ2"),
                                  ("Q8", "Z3")])
def test_semidirect_action_names_first_failing_pair(h, l, rng):
    # an action by automorphisms that is not multiplicative is refused at
    # the first pair (l1, l2), in row-major order, with act(l1 l2) !=
    # act(l1) act(l2), as a walk over all pairs finds it
    H, L = corpus_group(h), corpus_group(l)
    auts = [a.images for a in automorphisms(H)]
    for _ in range(20):
        act = [auts[0]] + [rng.choice(auts) for _ in range(L.order - 1)]
        if L.identity != 0:
            act[0], act[L.identity] = act[L.identity], act[0]
        want = next(((a, b) for a in L.elements() for b in L.elements()
                     if act[L.mul(a, b)] != tuple(act[a][x] for x in act[b])), None)
        if want is None:
            assert semidirect_product(H, L, act).group.order == H.order * L.order
            continue
        with pytest.raises(ActionNotHomomorphism) as exc:
            semidirect_product(H, L, act)
        assert str(exc.value) == str(ActionNotHomomorphism(
            f"action is not multiplicative at ({want[0]}, {want[1]})"))


def test_wreath_orders():
    z2 = corpus_group("Z2")
    w = wreath_product(z2, z2)
    assert w.group.order == 8
    assert is_isomorphic(w.group, corpus_group("D4")) is not None
    z3 = corpus_group("Z3")
    assert wreath_product(z2, z3).group.order == 24


def test_opposite_group(s3):
    op = opposite_group(s3)
    for a in s3.elements():
        for b in s3.elements():
            assert op.table[a][b] == s3.table[b][a]
    assert is_isomorphic(op, s3) is not None


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_opposite_group_on_corpus(name):
    G = corpus_group(name)
    op = opposite_group(G)
    assert op.table == tuple(tuple(G.mul(b, a) for b in G.elements())
                             for a in G.elements())
    assert (op.identity, op.inverses) == (G.identity, G.inverses)
    assert (op.name, op.labels) == (f"{G.name}^op", G.labels)


def test_generating_sequence(s3, q8):
    for G in (s3, q8):
        gens = generating_sequence(G)
        assert subgroup_generated(G, gens).is_whole_group()
        assert len(gens) <= 3


def test_order_cap(monkeypatch):
    monkeypatch.setenv("RBG_ORDER_CAP", "50")
    with pytest.raises(OrderCapExceeded):
        from_permutations([tuple(range(1, 70)) + (0,)])


def test_order_cap_refuses_products_before_building(monkeypatch):
    # every product constructor refuses an order above the limit before
    # any table is built; the semidirect product before checking its action
    calls = {"automorphism": 0, "table": 0}
    monkeypatch.setattr(GroupMap, "automorphism", staticmethod(
        counting(calls, "automorphism", GroupMap.automorphism)))
    z4, z2 = corpus_group("Z4"), corpus_group("Z2")
    monkeypatch.setattr(groups.FiniteGroup, "_proved",
                        counting(calls, "table", groups.FiniteGroup._proved))
    monkeypatch.setenv("RBG_ORDER_CAP", "7")
    with pytest.raises(OrderCapExceeded):
        semidirect_product(z4, z2, [[0, 1, 2, 3], [0, 3, 2, 1]])
    with pytest.raises(OrderCapExceeded):
        direct_product(z4, z2)
    with pytest.raises(OrderCapExceeded):
        wreath_product(z2, z2)
    assert calls == {"automorphism": 0, "table": 0}


def test_order_cap_bounds_factor_count(monkeypatch):
    # trivial factors leave the order alone; the count of factors is
    # bounded by the same limit, before any table is built
    calls = {"table": 0}
    monkeypatch.setattr(groups.FiniteGroup, "_proved",
                        counting(calls, "table", groups.FiniteGroup._proved))
    z1 = corpus_group("Z1")
    monkeypatch.setenv("RBG_ORDER_CAP", "10")
    assert direct_power(z1, 10).group.order == 1
    calls["table"] = 0
    with pytest.raises(OrderCapExceeded):
        direct_power(z1, 11)
    assert calls == {"table": 0}


def test_direct_power_memoized(s3):
    # one G^n per (G, n), memoized on G: a separately built copy of S3
    # shares no power with the corpus S3
    cube = direct_power(s3, 3)
    assert direct_power(s3, 3) is cube and s3._powers[3] is cube
    assert direct_power(s3, 2) is not cube
    copy = from_cayley_table(s3.table, name="S3")
    assert copy._powers is None
    other = direct_power(copy, 3)
    assert other is not cube and other.group.table == cube.group.table
    assert other.factors == (copy,) * 3


def test_order_cap_bounds_memoized_powers(monkeypatch):
    # the limit is checked on every call, before the memo is read: a power
    # built under the default limit is refused under a lower one, with no
    # table built
    s3 = from_cayley_table(corpus_group("S3").table, name="S3")
    cube = direct_power(s3, 3)
    calls = {"table": 0}
    monkeypatch.setattr(groups.FiniteGroup, "_proved",
                        counting(calls, "table", groups.FiniteGroup._proved))
    monkeypatch.setenv("RBG_ORDER_CAP", "10")
    with pytest.raises(OrderCapExceeded, match="^product order exceeds cap 10$"):
        direct_power(s3, 3)
    with pytest.raises(OrderCapExceeded, match="^a product of 11 factors exceeds cap 10$"):
        direct_power(s3, 11)
    assert calls == {"table": 0}
    monkeypatch.delenv("RBG_ORDER_CAP")
    assert direct_power(s3, 3) is cube


def test_no_cap_parameter():
    # one order limit, read where a group is built: no public function,
    # class or method of the package takes a cap of its own
    for info in pkgutil.iter_modules(rbgroups.__path__):
        module = importlib.import_module(f"rbgroups.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) \
                    or not getattr(obj, "__module__", "").startswith("rbgroups") \
                    or inspect.isclass(obj) and issubclass(obj, Exception):
                continue
            found = {name: obj}
            if inspect.isclass(obj):
                found.update((f"{name}.{k}", getattr(obj, k)) for k in vars(obj)
                             if not k.startswith("_") and inspect.isroutine(getattr(obj, k)))
            for where, fn in found.items():
                assert "cap" not in inspect.signature(fn).parameters, where
