import json
from pathlib import Path

import pytest

from helpers import counting, exhaustive_census, reference_orbits, reference_verify, relabel
from rbgroups import enumeration, groups, operators
from rbgroups.corpus import corpus_group, corpus_names, symmetric
from rbgroups.enumeration import (
    DEFAULT_BRUTE_CAP,
    SimpleCheck,
    brute_force_enumerate,
    classify,
    graph_enumerate,
    graph_of_operator,
    is_rb_elementary,
    simple_group_check,
    splitting_report,
)
from rbgroups.errors import InvalidInput, OrderCapExceeded, StructureViolation
from rbgroups.groups import (
    all_subgroups,
    automorphisms,
    exact_factorizations,
    from_cayley_table,
    is_normal,
)
from rbgroups.operators import elementary, is_splitting, rb_operator, weight_convert

GOLDENS = Path(__file__).parent / "goldens"


def _golden_counts():
    with open(GOLDENS / "counts.json") as fh:
        return json.load(fh)


def test_census_counts_small():
    counts = _golden_counts()["census"]
    for name in ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "S3", "D4", "Q8",
                 "A4", "D6", "Z2xZ2", "Z4xZ2", "Z2xZ2xZ2"):
        G = corpus_group(name)
        assert len(graph_enumerate(G)) == counts[name], name


def test_golden_census_files(s3, z4):
    with open(GOLDENS / "census_s3.json") as fh:
        s3_golden = json.load(fh)
    got = sorted(graph_enumerate(s3).image_tuples())
    assert got == [tuple(x) for x in s3_golden["operators"]]
    with open(GOLDENS / "census_z4.json") as fh:
        z4_golden = json.load(fh)
    got = sorted(graph_enumerate(z4).image_tuples())
    assert got == [tuple(x) for x in z4_golden["operators"]]


def test_s5_census():
    # 652 operators in 9 classes; the 322 splitting ones match the ordered
    # exact factorizations one for one
    G = symmetric(5)
    census = classify(graph_enumerate(G))
    report = splitting_report(census)
    assert (len(census), len(census.classes), len(report.splitting)) == (652, 9, 322)
    pairs = {(H.elements, L.elements) for H, L in exact_factorizations(G)}
    assert set(report.splitting.values()) == pairs


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_census_follows_renumbering(rng, name):
    # the sweep, the coset numbering, the isomorphism memo and the greedy
    # generators all read element ids; renaming the elements at random
    # renames the subgroups and the census, and nothing else
    G = corpus_group(name)
    perm = list(G.elements())
    rng.shuffle(perm)
    H = from_cayley_table(relabel(G, perm))
    assert [s.elements for s in all_subgroups(H)] == sorted(
        (tuple(sorted(perm[g] for g in s)) for s in all_subgroups(G)),
        key=lambda k: (len(k), k))
    expected = []
    for images in graph_enumerate(G).image_tuples():
        renamed = [0] * G.order
        for g, b in enumerate(images):
            renamed[perm[g]] = perm[b]
        expected.append(tuple(renamed))
    census = classify(graph_enumerate(H))
    assert census.image_tuples() == sorted(expected)
    assert len(census.classes) == len(classify(graph_enumerate(G)).classes)


def test_brute_equals_graph():
    # brute force is the independent check on the graph census, on every
    # corpus group it reaches
    small = [n for n in corpus_names() if corpus_group(n).order <= DEFAULT_BRUTE_CAP]
    assert len(small) == 14
    for name in small:
        G = corpus_group(name)
        brute = set(brute_force_enumerate(G).image_tuples())
        graph = set(graph_enumerate(G).image_tuples())
        assert brute == graph, name


def test_exhaustive_equals_brute_tiny():
    # the helper scans all n^n self-maps without assuming B(e) = e,
    # so agreement also proves validity forces that normalization
    for name in ("Z1", "Z2", "Z3", "Z4"):
        G = corpus_group(name)
        assert set(exhaustive_census(G)) == set(brute_force_enumerate(G).image_tuples())


def test_brute_cap():
    # brute force stops at order DEFAULT_BRUTE_CAP = 8
    with pytest.raises(OrderCapExceeded):
        brute_force_enumerate(corpus_group("Z9"))


def test_graph_encoding_roundtrip(s3):
    for op in graph_enumerate(s3).operators:
        pts = graph_of_operator(op)
        assert len(pts) == s3.order
        rebuilt = [None] * s3.order
        for x, y in pts:
            rebuilt[s3.mul(x, s3.inverses[y])] = None  # decode domain point
        assert all(
            (s3.mul(g, op(g)), op(g)) in pts for g in s3.elements()
        )


def test_classify_s3(s3):
    census = classify(graph_enumerate(s3))
    sizes = sorted(len(c.members) for c in census.classes)
    assert sizes == [2, 6]
    by_size = {len(c.members): c for c in census.classes}
    assert by_size[2].members == (0, 3)
    assert by_size[6].members == (1, 2, 4, 5, 6, 7)


def test_classify_orbit_counts():
    counts = _golden_counts()["orbits"]
    for name in sorted(counts):
        census = classify(graph_enumerate(corpus_group(name)))
        assert len(census.classes) == counts[name], name


@pytest.mark.parametrize("name", ["Z2xZ2xZ2", "S4", "A5"])
def test_classify_matches_reference_orbits(monkeypatch, name):
    # classify gathers over the stacked automorphisms: one automorphism
    # search, one tilde per orbit, and no operator is verified again
    G = corpus_group(name)
    census = graph_enumerate(G)
    images = census.image_tuples()
    expected = reference_orbits(G, images, [phi.images for phi in automorphisms(G)])
    calls = {"auts": 0, "tilde": 0, "defect": 0}
    monkeypatch.setattr(enumeration, "automorphisms",
                        counting(calls, "auts", enumeration.automorphisms))
    monkeypatch.setattr(enumeration, "tilde",
                        counting(calls, "tilde", enumeration.tilde))
    monkeypatch.setattr(operators, "_first_defect",
                        counting(calls, "defect", operators._first_defect))
    classes = classify(census).classes
    assert [(c.representative, c.members) for c in classes] == expected
    assert calls == {"auts": 1, "tilde": len(classes), "defect": 0}


def test_elementary_verdict_z3():
    z3 = corpus_group("Z3")
    v = is_rb_elementary(z3)
    assert (v.elementary, v.total, v.orbit_count, v.non_elementary) == \
        (False, 3, 2, (1,))


def test_elementary_verdict_z2():
    # tilde swaps the two elementary maps, so they form one orbit
    v = is_rb_elementary(corpus_group("Z2"))
    assert v.elementary and v.total == 2 and v.orbit_count == 1


def test_splitting_report(s3):
    census = graph_enumerate(s3)
    rep = splitting_report(census)
    assert rep.non_splitting == ()
    assert len(rep.splitting) == 8
    for idx, (ker, im) in rep.splitting.items():
        op = census.operators[idx]
        assert set(ker) == {g for g in s3.elements() if op(g) == 0}


def _count_sweeps(monkeypatch):
    """Count subgroup sweeps, under both names the library calls them by,
    and factorization searches, which may be handed a sweep."""
    calls = {"sweeps": 0}
    real = groups.all_subgroups
    monkeypatch.setattr(groups, "all_subgroups", counting(calls, "sweeps", real))
    monkeypatch.setattr(enumeration, "all_subgroups", counting(calls, "sweeps", real))
    monkeypatch.setattr(groups, "exact_factorizations",
                        counting(calls, "sweeps", groups.exact_factorizations))
    return calls


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_splitting_report_keys_are_exact_factorizations(monkeypatch, name):
    # every (kernel, image) key factors the group exactly, and the report
    # finds that out without a subgroup sweep
    G = corpus_group(name)
    census = graph_enumerate(G)
    pairs = {(H.elements, L.elements) for H, L in exact_factorizations(G)}
    calls = _count_sweeps(monkeypatch)
    report = splitting_report(census)
    assert calls == {"sweeps": 0}
    assert set(report.splitting.values()) <= pairs


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_census_checks_no_subgroup(monkeypatch, name):
    # the sweep and every kernel and image are proved subgroups, so a
    # census and its splitting report run no subgroup check
    G = corpus_group(name)
    calls = {"init": 0}
    monkeypatch.setattr(groups.Subgroup, "__init__",
                        counting(calls, "init", groups.Subgroup.__init__))
    report = splitting_report(graph_enumerate(G))
    assert report.splitting
    assert calls == {"init": 0}


def test_simple_group_check_a5_shape(monkeypatch):
    # A5's 62 operators: inversion is the one with trivial kernel, and the
    # 60 non-elementary ones split along exact factorizations, which the
    # check reads off one pass of kernel and image masks over the census,
    # as the splitting report does, without a subgroup sweep
    with pytest.raises(InvalidInput):
        simple_group_check(corpus_group("S3"))
    A5 = corpus_group("A5")
    census = graph_enumerate(A5)
    calls = _count_sweeps(monkeypatch)
    calls["masks"] = 0
    monkeypatch.setattr(enumeration, "_splitting_masks",
                        counting(calls, "masks", enumeration._splitting_masks))
    assert simple_group_check(A5, census) == SimpleCheck(62, True, True, True)
    assert calls == {"sweeps": 0, "masks": 1}


def test_weight_minus_one_census(s3):
    plus = graph_enumerate(s3)
    minus = graph_enumerate(s3)
    converted = sorted(weight_convert(op).images for op in plus.operators)
    # brute force at weight -1 must agree with converting the +1 census
    brute = set(brute_force_enumerate(s3, weight=-1).image_tuples())
    assert brute == set(converted)
    assert len(brute) == len(plus)


def test_census_contains_elementaries(d4):
    census = graph_enumerate(d4)
    images = set(census.image_tuples())
    assert elementary(d4, "b0").images in images
    assert elementary(d4, "b_minus1").images in images


_CENSUS_WORK = [
    ("S3", 8, 12, 19, 3, 6), ("D4", 56, 30, 46, 6, 10), ("Q8", 8, 18, 26, 5, 6),
    ("Z2xZ2xZ2", 512, 66, 91, 4, 16), ("A4", 18, 23, 38, 3, 10),
    ("D6", 80, 49, 93, 11, 16), ("S4", 100, 93, 168, 6, 30),
    ("Heis3", 810, 58, 153, 8, 19), ("A5", 62, 153, 287, 2, 59),
]


@pytest.mark.parametrize("name, size, n_pairs, n_closures, n_isos, n_subs", _CENSUS_WORK,
                         ids=[case[0] for case in _CENSUS_WORK])
def test_graph_census_builds_factor_data_once(monkeypatch, name, size, n_pairs,
                                              n_closures, n_isos, n_subs):
    # one subgroup sweep of G, one normalizer gather per subgroup, one
    # quotient per (subgroup, normal subgroup) pair, counted independently
    # on each subgroup repacked, and one isomorphism search per distinct
    # pair of quotient tables: 48 over these nine groups, where a search
    # per candidate pair of quotients made 1937.  A pair of equal tables
    # skips the invariant screen; any other pair screens each of its two
    # groups once.  The quotient tables are built unchecked, so no
    # closure is spent on them.
    G = corpus_group(name)
    subs = all_subgroups(G)
    pairs = sum(
        sum(1 for N in all_subgroups(S.as_group().group) if is_normal(N))
        for S in subs
    )
    sweeps = []
    quotients = []
    searched = []
    calls = {"closures": 0, "screens": 0, "normalizers": 0}
    real_sweep, real_quotient = enumeration.all_subgroups, enumeration._coset_quotient
    real_isos = enumeration.isomorphisms_all

    def counting_isos(QA, QC):
        searched.append((QA.table, QC.table))
        return real_isos(QA, QC)

    def counting_sweep(H, *args, **kwargs):
        sweeps.append(H)
        return real_sweep(H, *args, **kwargs)

    def counting_quotient(H, elements, N, *args):
        quotients.append((tuple(elements), N.elements))
        return real_quotient(H, elements, N, *args)

    monkeypatch.setattr(enumeration, "all_subgroups", counting_sweep)
    monkeypatch.setattr(enumeration, "_coset_quotient", counting_quotient)
    monkeypatch.setattr(enumeration, "isomorphisms_all", counting_isos)
    monkeypatch.setattr(groups, "_closure",
                        counting(calls, "closures", groups._closure))
    monkeypatch.setattr(groups, "_iso_invariants",
                        counting(calls, "screens", groups._iso_invariants))
    monkeypatch.setattr(enumeration, "_normalizer",
                        counting(calls, "normalizers", enumeration._normalizer))
    census = graph_enumerate(G)
    assert len(census) == size
    assert sweeps == [G] and len(subs) == n_subs
    assert len(quotients) == len(set(quotients)) == pairs == n_pairs
    assert len(searched) == len(set(searched)) == n_isos
    unequal = sum(a != c for a, c in searched)
    assert calls == {"closures": n_closures, "screens": 2 * unequal,
                     "normalizers": n_subs}


@pytest.mark.parametrize(
    "name", ["S3", "D4", "A4", "S4", "Heis3", "A5", "Z2xZ2xZ2"]
)
def test_splitting_count_equals_exact_factorizations(name):
    G = corpus_group(name)
    report = splitting_report(graph_enumerate(G))
    assert len(report.splitting) == len(exact_factorizations(G))


@pytest.mark.parametrize("name, size", [case[:2] for case in _CENSUS_WORK],
                         ids=[case[0] for case in _CENSUS_WORK])
def test_graph_census_decides_rows_in_chunks(monkeypatch, name, size):
    # no operator is verified on its own: the decoded rows are decided
    # by one _decide_rows call per chunk of at most _CHUNK_CELLS cells
    G = corpus_group(name)
    calls = {"verify": 0, "decide": 0}
    chunks = []
    real = operators._decide_rows

    def recording(H, rows):
        chunks.append(len(rows))
        return real(H, rows)

    monkeypatch.setattr(operators, "_decide_rows", recording)
    for module in (operators, enumeration):
        monkeypatch.setattr(module, "verify", counting(calls, "verify", operators.verify))
    monkeypatch.setattr(operators, "_decide", counting(calls, "decide", operators._decide))
    census = graph_enumerate(G)
    assert len(census) == size
    per = -(-enumeration._CHUNK_CELLS // G.order)
    assert chunks == [per] * (size // per) + ([size % per] if size % per else [])
    assert calls == {"verify": 0, "decide": 0}
    assert all(op.verified is True for op in census.operators)


def _corrupting(real, what):
    """Wrap `_valid_rows` so that the rows it is handed have one cell
    changed, in the row holding b0 if any, else in row 0."""
    seen = {}

    def wrapper(G, rows, weight, label):
        rows = rows.copy()
        i = next((i for i, r in enumerate(rows) if not r.any()), 0)
        rows[i, G.order - 1] = 1
        seen.update(label=label, row=rows[i].tolist(), weight=weight)
        return real(G, rows, weight, label)

    return wrapper, seen


@pytest.mark.parametrize("name", ["S3", "D4", "A4"])
def test_corrupted_census_row_raises_scalar_witness(monkeypatch, name):
    # a decode that hands on a wrong row fails the census, and the error
    # names the first failing pair, as verify would
    G = corpus_group(name)
    wrapper, seen = _corrupting(enumeration._valid_rows, "decoded subgroup")
    monkeypatch.setattr(enumeration, "_valid_rows", wrapper)
    with pytest.raises(StructureViolation) as err:
        graph_enumerate(G)
    witness = reference_verify(G, seen["row"])
    assert witness is not None
    assert str(err.value) == f"decoded subgroup fails verification at {witness}"


@pytest.mark.parametrize("weight", [1, -1])
def test_corrupted_brute_survivor_raises_scalar_witness(monkeypatch, s3, weight):
    wrapper, seen = _corrupting(enumeration._valid_rows, "brute-force survivor")
    monkeypatch.setattr(enumeration, "_valid_rows", wrapper)
    with pytest.raises(StructureViolation) as err:
        brute_force_enumerate(s3, weight=weight)
    witness = reference_verify(s3, seen["row"], weight)
    assert witness is not None and seen["weight"] == weight
    assert str(err.value) == f"brute-force survivor fails verification at {witness}"


def test_brute_force_decides_survivors_at_once(monkeypatch, s3):
    # one _decide_rows call over every survivor, no verify per operator
    calls = {"verify": 0, "rows": 0}
    monkeypatch.setattr(operators, "_decide_rows",
                        counting(calls, "rows", operators._decide_rows))
    monkeypatch.setattr(enumeration, "verify", counting(calls, "verify", operators.verify))
    for weight in (1, -1):
        assert len(brute_force_enumerate(s3, weight=weight)) == 8
    assert calls == {"verify": 0, "rows": 2}


@pytest.mark.parametrize("name", corpus_names())
def test_splitting_report_equals_per_operator_test(name):
    G = corpus_group(name)
    census = graph_enumerate(G)
    splitting, rest = {}, []
    for i, op in enumerate(census.operators):
        sp = is_splitting(op)
        if sp:
            splitting[i] = (sp.kernel.elements, sp.image.elements)
        else:
            rest.append(i)
    report = splitting_report(census)
    assert report.splitting == splitting
    assert report.non_splitting == tuple(rest)
