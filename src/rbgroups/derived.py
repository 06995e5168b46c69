"""The derived group of a Rota-Baxter operator and its structure theory.

A valid weight-+1 operator B on G induces a second group product on the
same elements, g . h = g B(g) h B(g)^-1.  This module builds that group,
evaluates words written in the new product by a closed formula, and
produces the kernel/image structure report.  B is a homomorphism from
the new group to the old one and stays a valid operator on the new
group (Guo-Lang-Sheng, arXiv:2009.03492); under the check policy of
`operators` these theorems are not checked at run time.  The structure
report still checks its four facts: reporting them is what it is for.
The twisted table is one gather over G's table, and each operator has
one twisted group, memoized on it, which the report returns.  The report
reads its facts off tables, the quotient tables among them (loops, as
`groups` explains).  Facts (a) and (b) read kernels' normalizers, (a)'s
off a fresh twisted array, which `is_normal` would cache on the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInput, StructureViolation
from .groups import FiniteGroup, GroupMap, Subgroup, _coset_quotient, _normalizer
from .operators import RBOperator, _require_valid, bplus, image, kernel

__all__ = [
    "CircleWord",
    "DerivedGroup",
    "StructureReport",
    "circle_word",
    "derived_group",
    "eval_word",
    "structure_report",
]


@dataclass(frozen=True)
class CircleWord:
    """A word in circle powers: a sequence of (element, exponent) syllables."""

    letters: tuple[tuple[int, int], ...]


def circle_word(letters: Sequence[Sequence[int]]) -> CircleWord:
    """Normalize a syllable list: merge adjacent equal letters, drop zeros."""
    out: list[tuple[int, int]] = []
    for syllable in letters:
        try:
            a, k = syllable
            a, k = int(a), int(k)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"syllable {syllable!r} is not an (element, exponent) pair") from exc
        if a < 0:
            raise InvalidInput(f"negative element index {a} in word")
        if k == 0:
            continue
        if out and out[-1][0] == a:
            merged = out[-1][1] + k
            out.pop()
            if merged:
                out.append((a, merged))
        else:
            out.append((a, k))
    return CircleWord(tuple(out))


@dataclass(frozen=True)
class DerivedGroup:
    """G with the operator-twisted product, a group by Guo-Lang-Sheng."""

    base: FiniteGroup
    operator: RBOperator
    group: FiniteGroup

    @property
    def circle_table(self):
        return self.group.table


def derived_group(op: RBOperator) -> DerivedGroup:
    """(G, .) for the twisted product, memoized on a valid operator.

    The twisted product of a valid operator is a group (Guo-Lang-Sheng),
    so its table is built unchecked, through `FiniteGroup._proved`.
    """
    if op._derived is None:
        _require_valid(op)
        if op.weight != 1:
            raise InvalidInput("derived product is defined at weight +1")
        G = op.group
        twisted = FiniteGroup._proved(_twisted_table(op), labels=G.labels,
                                      name=f"{G.name}_B" if G.name else "")
        op._derived = DerivedGroup(G, op, twisted)
    return op._derived


def _twisted_table(op: RBOperator) -> np.ndarray:
    """The twisted product of a valid weight-+1 operator, which the caller
    ensures, as an array: one gather over G's, cell (g, h) is
    g B(g) h B(g)^-1."""
    G, B = op.group, np.array(op.images)
    t = G.np_table()
    pre = t[np.arange(G.order), B]  # g B(g)
    post = np.array(G.inverses)[B]  # B(g)^-1
    return t[t[pre], post[:, None]]


def eval_word(op: RBOperator, word: CircleWord) -> int:
    """Evaluate a circle word in the twisted product by a closed formula.

    The formula multiplies (a_j B(a_j))^{k_j} left to right, then the
    factors B(a_j)^{-k_j} in reverse order; each power takes O(log |k|)
    products, and no twisted table is built.
    """
    _require_valid(op)
    G, B = op.group, op.images
    for a, _ in word.letters:
        if not 0 <= a < G.order:
            raise InvalidInput(f"word letter {a} is outside the group")
    return _circle_product(G, [(a, B[a], k) for a, k in word.letters])


def _circle_product(G: FiniteGroup, syllables: Sequence[tuple[int, int, int]]) -> int:
    """`eval_word`'s formula, shared with `extension.word_probe`: over the
    syllables (a, u, k), each (a u)^k in order, then each u^-k reversed."""
    t = G.table
    left = G.identity
    for a, u, k in syllables:
        left = t[left][G.power(t[a][u], k)]
    right = G.identity
    for _, u, k in reversed(syllables):
        right = t[right][G.power(u, -k)]
    return t[left][right]


@dataclass(frozen=True)
class StructureReport:
    """The kernel/image skeleton of an operator, with all facts verified,
    and the twisted group the report was checked in."""

    kernel_b: Subgroup
    kernel_bplus: Subgroup
    image_b: Subgroup
    image_bplus: Subgroup
    quotient_order: int
    derived: DerivedGroup


def structure_report(op: RBOperator) -> StructureReport:
    """Verify the four structural facts tying B, its companion, and G_B.

    (a) both kernels are normal in the twisted group; (b) each kernel is
    normal in the opposite image inside G; (c) the two quotients are
    isomorphic under the map sending the companion's coset of g to B's
    coset of g; (d) the two images multiply out to all of G.  All four
    are theorems, so any failure raises StructureViolation.  Fact (c) is
    checked between the quotient tables that (b) makes well defined.
    """
    dg = derived_group(op)
    G, B = op.group, op.images
    # fact (a) is read off the twisted product as an array, gathered again
    # from G's: the twisted group keeps no array of its own
    twisted, circle = dg.group, _twisted_table(op)

    ker_b = kernel(op)
    im_b = image(op)
    bp = bplus(op)
    e = G.identity
    try:
        im_bp = Subgroup(G, set(bp.images))
        ker_bp = Subgroup(G, [g for g in G.elements() if bp.images[g] == e])
    except InvalidInput as exc:
        raise StructureViolation(
            f"companion kernel or image is not a subgroup: {exc}"
        ) from exc

    for sub_elems, tag in ((ker_b.elements, "kernel"), (ker_bp.elements,
                                                        "companion kernel")):
        try:
            Subgroup(twisted, sub_elems)
        except InvalidInput as exc:
            raise StructureViolation(
                f"{tag} is not a twisted-product subgroup: {exc}"
            ) from exc
        if len(_normalizer(circle, twisted.inverses, sub_elems)) != twisted.order:
            raise StructureViolation(f"{tag} is not normal in the twisted group")

    if not ker_b.as_set() <= im_bp.as_set():
        raise StructureViolation("kernel is not inside the companion image")
    if not ker_bp.as_set() <= im_b.as_set():
        raise StructureViolation("companion kernel is not inside the image")
    t = G.np_table()
    if not im_bp.as_set() <= _normalizer(t, G.inverses, ker_b.elements):
        raise StructureViolation("kernel is not normal in the companion image")
    if not im_b.as_set() <= _normalizer(t, G.inverses, ker_bp.elements):
        raise StructureViolation("companion kernel is not normal in the image")

    src_q, src = _coset_quotient(G, im_bp.elements, ker_b)
    dst_q, dst = _coset_quotient(G, im_b.elements, ker_bp)
    iso: list = [None] * src_q.order
    for g in G.elements():
        c, d = src[bp.images[g]], dst[B[g]]
        if iso[c] not in (None, d):
            raise StructureViolation(f"quotient map not well defined at {g}")
        iso[c] = d
    values = [d for d in iso if d is not None]
    if len(set(values)) != len(values):
        raise StructureViolation("quotient map is not injective")
    if len(values) != len(iso):
        raise StructureViolation("quotient map does not cover the source quotient")
    if GroupMap.plain(src_q, dst_q, iso).hom_defect() is not None:
        raise StructureViolation("quotient map is not multiplicative")

    covered = t[np.ix_(im_bp.elements, im_b.elements)]
    if len(np.unique(covered)) != G.order:
        raise StructureViolation("images do not multiply out to the whole group")

    return StructureReport(
        kernel_b=ker_b,
        kernel_bplus=ker_bp,
        image_b=im_b,
        image_bplus=im_bp,
        quotient_order=src_q.order,
        derived=dg,
    )
