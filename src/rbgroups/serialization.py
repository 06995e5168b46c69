"""JSON forms for groups, operators, and analysis results.

Groups serialize canonically as Cayley tables with sorted keys; parsing
additionally accepts permutation generators and product recipes, all
0-based.  Malformed shapes raise SchemaViolation with a JSON-pointer
path; structurally bad inputs (a table that is no group, an action that
is no homomorphism) surface as the library's own refusal errors.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .derived import StructureReport
from .enumeration import Census, ElementaryVerdict, SplittingReport
from .errors import SchemaViolation
from .extension import ExtensionResult
from .groups import (
    DirectProduct,
    FiniteGroup,
    from_cayley_table,
    from_permutations,
    semidirect_product,
    wreath_product,
)
from .lie_ring import GradedLieRing, InducedRB, LieVerdict
from .operators import RBOperator

__all__ = [
    "group_hash",
    "group_to_json",
    "parse_group",
    "operator_to_json",
    "parse_operator",
    "census_to_json",
    "extension_to_json",
    "structure_to_json",
    "ring_to_json",
    "dumps",
]

GROUP_KINDS = ("table", "perm", "direct", "semidirect", "wreath")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def group_hash(G: FiniteGroup) -> str:
    blob = json.dumps([list(row) for row in G.table],
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def group_to_json(G: FiniteGroup) -> dict:
    out = {
        "name": G.name,
        "kind": "table",
        "table": [list(row) for row in G.table],
    }
    if G.labels is not None:
        out["labels"] = list(G.labels)
    return out


def _expect(obj, key: str, types, path: str):
    if key not in obj:
        raise SchemaViolation(f"{path}/{key}", "missing")
    val = obj[key]
    if not isinstance(val, types):
        raise SchemaViolation(f"{path}/{key}", f"wrong type {type(val).__name__}")
    return val


def _int_list(val, path: str) -> list[int]:
    if not isinstance(val, list):
        raise SchemaViolation(path, "expected a list")
    out = []
    for i, x in enumerate(val):
        if isinstance(x, bool) or not isinstance(x, int):
            raise SchemaViolation(f"{path}/{i}", "expected an integer")
        out.append(x)
    return out


def parse_group(obj, path: str = "") -> FiniteGroup:
    """Build the group a JSON document describes.  The constructors refuse
    a group above the order limit before building its table."""
    if not isinstance(obj, dict):
        raise SchemaViolation(path, "group must be an object")
    name = _expect(obj, "name", str, path)
    kind = _expect(obj, "kind", str, path)
    if kind not in GROUP_KINDS:
        raise SchemaViolation(f"{path}/kind", f"unknown kind {kind!r}")

    if kind == "table":
        raw = _expect(obj, "table", list, path)
        table = [_int_list(row, f"{path}/table/{i}") for i, row in enumerate(raw)]
        labels = None
        if "labels" in obj:
            labels = _expect(obj, "labels", list, path)
            if len(labels) != len(table) or not all(
                isinstance(s, str) for s in labels
            ):
                raise SchemaViolation(f"{path}/labels",
                                      "need one string per element")
        return from_cayley_table(table, name=name, labels=labels)

    if kind == "perm":
        raw = _expect(obj, "perm_gens", list, path)
        if not raw:
            raise SchemaViolation(f"{path}/perm_gens", "need at least one generator")
        gens = []
        for i, g in enumerate(raw):
            p = _int_list(g, f"{path}/perm_gens/{i}")
            if sorted(p) != list(range(len(p))):
                raise SchemaViolation(f"{path}/perm_gens/{i}",
                                      "not a permutation of 0..n-1")
            gens.append(tuple(p))
        if len({len(g) for g in gens}) != 1:
            raise SchemaViolation(f"{path}/perm_gens",
                                  "generators act on different sets")
        return from_permutations(gens, name=name)

    factors_raw = _expect(obj, "factors", list, path)
    if kind == "direct":
        if not factors_raw:
            raise SchemaViolation(f"{path}/factors", "need at least one factor")
        factors = [
            parse_group(f, f"{path}/factors/{i}")
            for i, f in enumerate(factors_raw)
        ]
        prod = DirectProduct(tuple(factors))
        prod.group.name = name
        return prod.group

    if len(factors_raw) != 2:
        raise SchemaViolation(f"{path}/factors", "need exactly two factors")
    H = parse_group(factors_raw[0], f"{path}/factors/0")
    L = parse_group(factors_raw[1], f"{path}/factors/1")

    if kind == "semidirect":
        raw = _expect(obj, "action", list, path)
        if len(raw) != L.order:
            raise SchemaViolation(f"{path}/action",
                                  "need one row per element of the second factor")
        action = [_int_list(row, f"{path}/action/{i}") for i, row in enumerate(raw)]
        sdp = semidirect_product(H, L, action)
        sdp.group.name = name
        return sdp.group

    w = wreath_product(H, L)
    w.group.name = name
    return w.group


def _group_ref(G: FiniteGroup) -> str:
    return G.name if G.name else group_hash(G)


def operator_to_json(op: RBOperator) -> dict:
    return {
        "group": _group_ref(op.group),
        "weight": op.weight,
        "images": list(op.images),
    }


def parse_operator(obj, G: FiniteGroup, path: str = "") -> RBOperator:
    if not isinstance(obj, dict):
        raise SchemaViolation(path, "operator must be an object")
    ref = _expect(obj, "group", str, path)
    if ref not in (G.name, group_hash(G)):
        raise SchemaViolation(f"{path}/group",
                              f"operator belongs to {ref!r}, not this group")
    weight = _expect(obj, "weight", int, path)
    if isinstance(weight, bool) or weight not in (1, -1):
        raise SchemaViolation(f"{path}/weight", "weight must be 1 or -1")
    images = _int_list(_expect(obj, "images", list, path), f"{path}/images")
    if len(images) != G.order:
        raise SchemaViolation(f"{path}/images",
                              f"need {G.order} images, got {len(images)}")
    for i, x in enumerate(images):
        if not 0 <= x < G.order:
            raise SchemaViolation(f"{path}/images/{i}", f"element {x} out of range")
    return RBOperator(G, images, weight=weight)


def census_to_json(census: Census,
                   splitting: Optional[SplittingReport] = None,
                   elementary: Optional[ElementaryVerdict] = None) -> dict:
    out = {
        "group": _group_ref(census.group),
        "method": census.method,
        "weight": census.weight,
        "count": len(census.operators),
        "operators": [list(op.images) for op in census.operators],
    }
    if census.classes is not None:
        out["classes"] = [
            {"representative": list(c.representative),
             "members": list(c.members)}
            for c in census.classes
        ]
    if splitting is not None:
        out["splitting_map"] = {
            str(i): {"kernel": list(ker), "image": list(im)}
            for i, (ker, im) in sorted(splitting.splitting.items())
        }
        out["non_splitting"] = list(splitting.non_splitting)
    if elementary is not None:
        out["elementary_verdict"] = {
            "elementary": elementary.elementary,
            "total": elementary.total,
            "orbit_count": elementary.orbit_count,
            "non_elementary": list(elementary.non_elementary),
        }
    return out


def extension_to_json(res: ExtensionResult,
                      closure: Optional[FiniteGroup] = None) -> dict:
    gbar = {"order": res.closure_order}
    if closure is not None:
        gbar = group_to_json(closure)
        gbar["order"] = closure.order
    out = {
        "status": res.status,
        "cond": res.cond,
        "gbar": gbar,
    }
    if res.via is not None:
        out["via"] = res.via
    if res.witness is not None:
        out["witness"] = {"words": [[list(step) for step in w]
                                    for w in res.witness]}
    if res.operator is not None:
        out["extension"] = operator_to_json(res.operator)
    return out


def structure_to_json(rep: StructureReport) -> dict:
    return {
        "kernel": list(rep.kernel_b.elements),
        "kernel_plus": list(rep.kernel_bplus.elements),
        "image": list(rep.image_b.elements),
        "image_plus": list(rep.image_bplus.elements),
        "quotient_order": rep.quotient_order,
    }


def ring_to_json(ring: GradedLieRing, nonzeros: int,
                 induced: Optional[InducedRB] = None,
                 verdict: Optional[LieVerdict] = None) -> dict:
    out = {
        "group": _group_ref(ring.group),
        "layers": [
            {"degree": layer.degree, "order": layer.quotient.order}
            for layer in ring.layers
        ],
        "series_orders": [t.order for t in ring.series],
        "bracket_nonzeros": nonzeros,
    }
    if induced is not None:
        out["induced"] = {
            "layer_maps": [list(m) for m in induced.layer_maps],
            "valid": bool(verdict) if verdict is not None else True,
        }
    return out
