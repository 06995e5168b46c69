import json
import os
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rbgroups.corpus import corpus_group
from rbgroups.enumeration import classify, graph_enumerate, is_rb_elementary, splitting_report
from rbgroups.errors import OrderCapExceeded, RBGroupsError, SchemaViolation
from rbgroups.extension import closure_group, extend_generators
from rbgroups.groups import (
    DirectProduct,
    FiniteGroup,
    direct_product,
    order_cap,
    semidirect_product,
    wreath_product,
)
from rbgroups.lie_ring import bracket_nonzero_count, graded_lie_ring, induced_rb
from rbgroups.operators import elementary, rb_operator
from rbgroups.serialization import (
    census_to_json,
    dumps,
    extension_to_json,
    group_hash,
    group_to_json,
    operator_to_json,
    parse_group,
    parse_operator,
    ring_to_json,
    structure_to_json,
)


def test_group_round_trip(s3):
    payload = json.loads(dumps(group_to_json(s3)))
    back = parse_group(payload)
    assert back.table == s3.table
    assert group_hash(back) == group_hash(s3)


def test_group_hash_is_table_only(s3):
    j = group_to_json(s3)
    j["name"] = "renamed"
    assert group_hash(parse_group(j)) == group_hash(s3)


def test_serializing_builds_no_rows():
    # the JSON of a group is read off its stored array, so a product that
    # is only serialized, or a pair closure, never builds tuple rows; the
    # JSON equals the rows read afterwards
    names = ("S3", "Z2", "Z4")
    P = DirectProduct(tuple(corpus_group(name) for name in names)).group
    doc, digest = group_to_json(P), group_hash(P)
    assert P._rows is None
    assert doc["table"] == [list(row) for row in P.table]
    assert digest == group_hash(parse_group(doc))
    for name, gens, images in (("S3", [1, 2], [1, 2]), ("A4", [1, 4], [1, 0])):
        G = corpus_group(name)
        closure = closure_group(G, gens, images).group
        doc = extension_to_json(extend_generators(G, gens, images), closure)
        assert closure._rows is None
        assert doc["gbar"]["table"] == [list(row) for row in closure.table]


def test_parse_kinds():
    z2 = corpus_group("Z2")
    z3 = corpus_group("Z3")
    perm = parse_group({"name": "S3p", "kind": "perm",
                        "perm_gens": [[1, 0, 2], [1, 2, 0]]})
    assert perm.order == 6
    direct = parse_group({
        "name": "Z6d",
        "kind": "direct",
        "factors": [group_to_json(z2), group_to_json(z3)],
    })
    assert direct.order == 6
    semi = parse_group({
        "name": "S3s",
        "kind": "semidirect",
        "factors": [group_to_json(z3), group_to_json(z2)],
        "action": [[0, 1, 2], [0, 2, 1]],
    })
    assert semi.order == 6 and not semi.is_abelian
    wre = parse_group({
        "name": "W",
        "kind": "wreath",
        "factors": [group_to_json(z2), group_to_json(z2)],
    })
    assert wre.order == 8


def test_schema_paths():
    with pytest.raises(SchemaViolation):
        parse_group({"kind": "table", "table": [[0]]})  # missing name
    with pytest.raises(SchemaViolation) as err:
        parse_group({"name": "x", "kind": "nope"})
    assert err.value.path == "/kind"
    with pytest.raises(SchemaViolation) as err:
        parse_group({"name": "x", "kind": "table", "table": [[0, 1], [1, "x"]]})
    assert err.value.path == "/table/1/1"
    with pytest.raises(SchemaViolation) as err:
        parse_group({
            "name": "x",
            "kind": "direct",
            "factors": [
                {"name": "t", "kind": "table", "table": [[0]]},
                {"name": "u", "kind": "bad"},
            ],
        })
    assert err.value.path == "/factors/1/kind"


def test_parse_rejects_non_group():
    with pytest.raises(SchemaViolation):
        parse_group({"kind": "table", "table": [[0, 1], [0, 1]]})


def test_order_cap(monkeypatch):
    z16 = corpus_group("Z16")
    monkeypatch.setenv("RBG_ORDER_CAP", "10")
    assert order_cap() == 10
    with pytest.raises(OrderCapExceeded):
        parse_group(group_to_json(z16))
    # composite orders are predicted before any table is built
    z4j = group_to_json(corpus_group("Z4"))
    with pytest.raises(OrderCapExceeded):
        parse_group({"name": "big", "kind": "direct", "factors": [z4j, z4j]})
    monkeypatch.delenv("RBG_ORDER_CAP")
    assert parse_group(group_to_json(z16)).order == 16


def test_operator_round_trip(s3):
    op = rb_operator(s3, [0, 1, 1, 0, 0, 1])
    payload = operator_to_json(op)
    back = parse_operator(payload, s3)
    assert back.images == op.images and back.weight == 1


def test_operator_ref_mismatch(s3, z4):
    op = elementary(s3, "b0")
    with pytest.raises(SchemaViolation) as err:
        parse_operator(operator_to_json(op), z4)
    assert "/group" in err.value.path


def test_operator_schema_checks(s3):
    base = operator_to_json(elementary(s3, "b0"))
    bad = dict(base, weight=2)
    with pytest.raises(SchemaViolation):
        parse_operator(bad, s3)
    bad = dict(base, images=[0, 1])
    with pytest.raises(SchemaViolation):
        parse_operator(bad, s3)
    bad = dict(base, images=[0, 1, 2, 3, 4, 9])
    with pytest.raises(SchemaViolation) as err:
        parse_operator(bad, s3)
    assert err.value.path.endswith("/images/5")


def test_census_payload(s3):
    census = classify(graph_enumerate(s3))
    j = census_to_json(census, splitting_report(census),
                       is_rb_elementary(s3, census))
    assert j["count"] == 8
    assert j["method"] == "graph"
    assert len(j["classes"]) == 2
    assert len(j["splitting_map"]) == 8
    assert j["non_splitting"] == []
    assert j["elementary_verdict"]["elementary"] is False
    assert j["elementary_verdict"]["orbit_count"] == 2
    text = dumps(j)
    assert json.loads(text) == j


def test_extension_payloads(s3):
    ok = extension_to_json(extend_generators(s3, [1, 2], [1, 2]))
    assert ok["status"] == "extends"
    assert ok["gbar"]["order"] == 6
    assert ok["extension"]["images"] == list(s3.inverses)
    bad = extension_to_json(extend_generators(s3, [1, 2, 5], [1, 2, 4]))
    assert bad["status"] == "no_extension"
    assert bad["cond"] is False
    assert bad["witness"]["words"] == [[[0, 1], [2, -1]], []]


def test_structure_payload(s3):
    from rbgroups.derived import structure_report

    j = structure_to_json(structure_report(rb_operator(s3, [0, 1, 1, 0, 0, 1])))
    assert j["kernel"] == [0, 3, 4]
    assert j["kernel_plus"] == [0, 1]
    assert j["image"] == [0, 1]
    assert j["image_plus"] == [0, 3, 4]
    assert j["quotient_order"] == 1


def test_ring_payload(d4):
    ring = graded_lie_ring(d4)
    ind = induced_rb(ring, elementary(d4, "b_minus1"))
    j = ring_to_json(ring, bracket_nonzero_count(ring), induced=ind)
    assert j["series_orders"] == [8, 2, 1]
    assert [l["order"] for l in j["layers"]] == [4, 2]
    assert j["bracket_nonzeros"] == 24
    assert j["induced"]["valid"] is True


def test_dumps_deterministic(s3):
    a = dumps(group_to_json(s3))
    b = dumps(json.loads(a))
    assert a == b


# Hostile group documents.  Tables and permutations stay small and every
# parse runs under RBG_ORDER_CAP=64, so no example builds a large
# product; anything past the cap must be refused like any other bad input.
# The variable is set in the body: hypothesis refuses function-scoped
# fixtures such as monkeypatch, which it would not reset between examples.
PARSE_CAP = 64
KINDS = ("table", "perm", "direct", "semidirect", "wreath")
KEYS = ("name", "kind", "table", "labels", "perm_gens", "factors", "action")


@st.composite
def _tables(draw):
    """Relabelled corpus tables, the same with one cell changed, Latin
    squares that may be no group, and ragged tables; entries may be
    negative or too large."""
    shape = draw(st.sampled_from(["relabelled", "mutated", "latin", "random"]))
    if shape in ("relabelled", "mutated"):
        G = corpus_group(draw(st.sampled_from(["Z1", "Z2", "Z4", "S3", "Z2xZ2"])))
        p = draw(st.permutations(range(G.order)))
        t = [[0] * G.order for _ in G.elements()]
        for i in G.elements():
            for j in G.elements():
                t[p[i]][p[j]] = p[G.table[i][j]]
        if shape == "mutated":
            i, j = draw(st.integers(0, G.order - 1)), draw(st.integers(0, G.order - 1))
            t[i][j] = draw(st.integers(-3, G.order + 3))
        return t
    n = draw(st.integers(0, 6))
    if shape == "latin":
        r, c, v = (draw(st.permutations(range(n))) for _ in range(3))
        return [[v[(r[i] + c[j]) % n] for j in range(n)] for i in range(n)]
    row = st.lists(st.integers(-3, n + 3), min_size=max(n - 1, 0), max_size=n + 1)
    return draw(st.lists(row, min_size=n, max_size=n))


_names = st.text(max_size=3)
_perm_gens = st.lists(
    st.one_of(
        st.integers(1, 5).flatmap(lambda k: st.permutations(range(k))),
        st.lists(st.integers(-2, 6), max_size=6),
    ),
    min_size=1, max_size=3,
)
_actions = st.one_of(
    st.lists(st.lists(st.integers(-2, 7), max_size=6), max_size=6),
    st.tuples(st.integers(1, 6), st.integers(0, 6)).map(
        lambda km: [list(range(km[0]))] * km[1]),
)
_leaf_docs = st.one_of(
    st.fixed_dictionaries(
        {"name": _names, "kind": st.just("table"), "table": _tables()}),
    st.fixed_dictionaries(
        {"name": _names, "kind": st.just("perm"), "perm_gens": _perm_gens}),
)
_group_docs = st.recursive(
    _leaf_docs,
    lambda children: st.one_of(
        st.fixed_dictionaries(
            {"name": _names, "kind": st.just("direct"),
             "factors": st.lists(children, max_size=3)}),
        st.fixed_dictionaries(
            {"name": _names, "kind": st.just("semidirect"),
             "factors": st.lists(children, min_size=2, max_size=2),
             "action": _actions}),
        st.fixed_dictionaries(
            {"name": _names, "kind": st.just("wreath"),
             "factors": st.lists(children, min_size=2, max_size=2)}),
    ),
    max_leaves=4,
)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
              st.floats(allow_nan=False), st.text(max_size=4),
              st.sampled_from(KINDS)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(KEYS), st.text(max_size=3)),
                        children, max_size=5),
    ),
    max_leaves=15,
)


@st.composite
def _mangled_docs(draw):
    """A group document with some keys dropped or replaced by random JSON."""
    doc = dict(draw(_group_docs))
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=3)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_json_values)
    return doc


_Z2 = {"name": "", "kind": "table", "table": [[0, 1], [1, 0]]}
_Z4 = {"name": "", "kind": "table",
       "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(_group_docs, _mangled_docs(), _json_values))
# a trivial group over Z2 wr Z4 (order 64): a base group of 64 digits
@example(doc={"name": "", "kind": "wreath", "factors": [
    {"name": "", "kind": "table", "table": [[0]]},
    {"name": "", "kind": "wreath", "factors": [_Z2, _Z4]}]})
def test_parse_group_returns_group_or_refuses(doc):
    try:
        with mock.patch.dict(os.environ, {"RBG_ORDER_CAP": str(PARSE_CAP)}):
            G = parse_group(doc)
    except RBGroupsError as exc:
        event(type(exc).__name__)
        return
    event("group")
    assert isinstance(G, FiniteGroup)
    assert G.order <= PARSE_CAP


OPERATOR_KEYS = ("group", "weight", "images")


@st.composite
def _operator_docs(draw):
    """An operator document for a small corpus group: the right or a wrong
    group reference, any weight, images of any length and range, and some
    keys dropped or replaced by random JSON."""
    G = corpus_group(draw(st.sampled_from(["Z1", "Z4", "S3", "D4"])))
    doc = {
        "group": draw(st.one_of(st.sampled_from([G.name, group_hash(G)]),
                                st.text(max_size=3))),
        "weight": draw(st.one_of(st.sampled_from([1, -1, 0, 2, True]), _json_values)),
        "images": draw(st.one_of(
            st.lists(st.integers(0, G.order - 1), min_size=G.order, max_size=G.order),
            st.lists(st.integers(-2, G.order + 2), min_size=max(G.order - 1, 0),
                     max_size=G.order + 1),
            _json_values)),
    }
    for key in draw(st.lists(st.sampled_from(OPERATOR_KEYS), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(_json_values)
    return G, draw(st.one_of(st.just(doc), _json_values))


@settings(max_examples=200, deadline=None)
@given(case=_operator_docs())
def test_parse_operator_returns_operator_or_refuses(case):
    G, doc = case
    try:
        op = parse_operator(doc, G)
    except RBGroupsError as exc:
        event(type(exc).__name__)
        return
    event("operator")
    assert op.group is G and len(op.images) == G.order
