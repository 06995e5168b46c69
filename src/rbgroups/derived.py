"""The derived group of a Rota-Baxter operator and its structure theory.

A valid weight-+1 operator B on G induces a second group product on the
same elements, g . h = g B(g) h B(g)^-1.  This module builds that group,
evaluates words written in the new product by a closed formula, and
produces the kernel/image structure report.  B is a homomorphism from
the new group to the old one and stays a valid operator on the new
group (Guo-Lang-Sheng, arXiv:2009.03492); under the check policy of
`operators` these theorems are not checked at run time.  The structure
report still checks its four facts: reporting them is what it is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidInput, StructureViolation
from .groups import FiniteGroup, Subgroup, _is_normal_within, is_normal
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
    """Build (G, .) for the twisted product.

    The twisted product of a valid operator is a group (Guo-Lang-Sheng),
    so its table is built unchecked, through `FiniteGroup._proved`.
    """
    _require_valid(op)
    if op.weight != 1:
        raise InvalidInput("derived product is defined at weight +1")
    G, B = op.group, op.images
    t, inv = G.table, G.inverses
    circle = [
        [t[t[t[g][B[g]]][h]][inv[B[g]]] for h in G.elements()] for g in G.elements()
    ]
    twisted = FiniteGroup._proved(circle, name=f"{G.name}_B" if G.name else "",
                                  labels=G.labels)
    return DerivedGroup(G, op, twisted)


def eval_word(op: RBOperator, word: CircleWord) -> int:
    """Evaluate a circle word in the twisted product by a closed formula.

    The formula multiplies (a_j B(a_j))^{k_j} left to right, then the
    factors B(a_j)^{-k_j} in reverse order; each power takes O(log |k|)
    products, and no twisted table is built.
    """
    _require_valid(op)
    G, B = op.group, op.images
    t = G.table
    e = G.identity
    for a, _ in word.letters:
        if not 0 <= a < G.order:
            raise InvalidInput(f"word letter {a} is outside the group")

    left = e
    for a, k in word.letters:
        left = t[left][G.power(t[a][B[a]], k)]
    right = e
    for a, k in reversed(word.letters):
        right = t[right][G.power(B[a], -k)]
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


def _coset(G: FiniteGroup, x: int, sub: Subgroup) -> frozenset[int]:
    return frozenset(G.table[x][s] for s in sub.elements)


def structure_report(op: RBOperator) -> StructureReport:
    """Verify the four structural facts tying B, its companion, and G_B.

    (a) both kernels are normal in the twisted group; (b) each kernel is
    normal in the opposite image inside G; (c) the two quotients are
    isomorphic under the map sending the companion's coset of g to B's
    coset of g; (d) the two images multiply out to all of G.  All four
    are theorems, so any failure raises StructureViolation.
    """
    dg = derived_group(op)
    G, B = op.group, op.images
    t = G.table
    twisted = dg.group

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
            s = Subgroup(twisted, sub_elems)
        except InvalidInput as exc:
            raise StructureViolation(
                f"{tag} is not a twisted-product subgroup: {exc}"
            ) from exc
        if not is_normal(s):
            raise StructureViolation(f"{tag} is not normal in the twisted group")

    if not ker_b.as_set() <= im_bp.as_set():
        raise StructureViolation("kernel is not inside the companion image")
    if not ker_bp.as_set() <= im_b.as_set():
        raise StructureViolation("companion kernel is not inside the image")
    if not _is_normal_within(G, ker_b, im_bp):
        raise StructureViolation("kernel is not normal in the companion image")
    if not _is_normal_within(G, ker_bp, im_b):
        raise StructureViolation("companion kernel is not normal in the image")

    iso: dict[frozenset[int], frozenset[int]] = {}
    for g in G.elements():
        src = _coset(G, bp.images[g], ker_b)
        dst = _coset(G, B[g], ker_bp)
        prev = iso.get(src)
        if prev is None:
            iso[src] = dst
        elif prev != dst:
            raise StructureViolation(f"quotient map not well defined at {g}")
    values = list(iso.values())
    if len(set(values)) != len(values):
        raise StructureViolation("quotient map is not injective")
    if len(iso) * ker_b.order != im_bp.order:
        raise StructureViolation("quotient map does not cover the source quotient")
    for c1 in iso:
        r1 = min(c1)
        for c2 in iso:
            r2 = min(c2)
            prod_src = _coset(G, t[r1][r2], ker_b)
            prod_dst = _coset(G, t[min(iso[c1])][min(iso[c2])], ker_bp)
            if iso[prod_src] != prod_dst:
                raise StructureViolation("quotient map is not multiplicative")

    covered = {t[x][y] for x in im_bp.elements for y in im_b.elements}
    if covered != set(G.elements()):
        raise StructureViolation("images do not multiply out to the whole group")

    return StructureReport(
        kernel_b=ker_b,
        kernel_bplus=ker_bp,
        image_b=im_b,
        image_bplus=im_bp,
        quotient_order=len(iso),
        derived=dg,
    )
