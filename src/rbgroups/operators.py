"""Rota-Baxter operators on finite groups, at weight +1 and -1.

An operator is a total map B: G -> G stored as an image array.  At
weight +1 validity means B(g)B(h) = B(gB(g)hB(g)^-1) for all pairs; at
weight -1 it means C(g)C(h) = C(C(g)hC(g)^-1 g).

Check policy, for the whole library.  Input from outside is validated;
what a theorem or a closure proves is built unchecked, and the tests
check each such fact on its own.  `verify`, the one full check of a
single operator, decides validity from at most ceil(log2 |G|) columns of
the identity (`_decide`), scans all |G|^2 pairs only to name the witness
of an invalid map, and caches its verdict; it runs on operators from
outside, on extension-search results and, through `_wrap_valid`, on
construction results.  Census rows, decoded by the graph route or
surviving brute force, are decided in batches by `_decide_rows`: the same
columns and closures, one gather per round over a chunk of rows, and a
failing row raises with the witness `verify` names.  A single operator
stays on the scalar `_decide`, because numpy pays per call: one row per
call measured 160-320 us against 13-52 us scalar on S3 to A5, while a
chunk costs 7-30 us a row.  Built unchecked: the results of the
transports `tilde`, `conjugate`, `weight_convert` and
`inverse_argument_convert`, and the census rows decided in batches
(through `_proved`); the subgroups of `Subgroup._proved` (the subgroup
sweep, `subgroup_generated` once its generators are in range, `center`,
the lower central series, `kernel` and `image`); the group tables of
`FiniteGroup._proved` (quotients, products, repacked subgroups,
permutation closures, pair closures and twisted groups); the maps of
`GroupMap._proved`, flagged as homomorphisms (the canonical maps of
`DirectProduct` and `quotient`, the maps the homomorphism search returns
and a closure group's image map); the Lie-ring bracket and layer maps,
read at one coset representative by the two theorems `lie_ring` states.
`is_splitting`, `bplus`, the twisted group in `derived`, the splitting
report in `enumeration`, the decoded extension in `extension` and the
constructions trust their theorems.  The public `Subgroup`, `GroupMap`
and `GroupMap.hom` check in full, and `from_cayley_table` validates
every table from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInput, StructureViolation
from .groups import FiniteGroup, GroupMap, Subgroup

__all__ = [
    "RBOperator",
    "Verdict",
    "SplittingResult",
    "rb_operator",
    "verify",
    "elementary",
    "tilde",
    "conjugate",
    "weight_convert",
    "inverse_argument_convert",
    "bplus",
    "kernel",
    "image",
    "is_splitting",
    "deep",
]


class RBOperator:
    """A candidate Rota-Baxter operator: a group, an image array, a weight.

    `verified` is a tri-state: None (unchecked), True (valid), or the
    first failing pair (g, h).  Use `verify` to settle it.  `_derived` is
    the memo of `derived.derived_group`.
    """

    __slots__ = ("group", "images", "weight", "verified", "_derived")

    def __init__(self, group: FiniteGroup, images: Sequence[int], weight: int = 1):
        if weight not in (1, -1):
            raise InvalidInput(f"weight must be +1 or -1, got {weight}")
        imgs = tuple(int(x) for x in images)
        if len(imgs) != group.order:
            raise InvalidInput("image array length does not match the group order")
        group.check_elements(imgs)
        self.group = group
        self.images = imgs
        self.weight = weight
        self.verified = None
        self._derived = None

    def __call__(self, g: int) -> int:
        return self.images[g]

    def __eq__(self, other):
        return (
            isinstance(other, RBOperator)
            and self.group is other.group
            and self.weight == other.weight
            and self.images == other.images
        )

    def __hash__(self):
        return hash((id(self.group), self.weight, self.images))

    def __repr__(self):
        state = {None: "unchecked", True: "valid"}.get(self.verified, "invalid")
        return f"RBOperator(weight={self.weight:+d}, {state}, images={self.images})"


def rb_operator(group: FiniteGroup, images: Sequence[int],
                weight: int = 1) -> RBOperator:
    """Wrap an image array as an unchecked operator."""
    return RBOperator(group, images, weight)


@dataclass(frozen=True)
class Verdict:
    valid: bool
    witness: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.valid


def _plus_images(op: RBOperator) -> Sequence[int]:
    """B at weight +1, and B(g) = g^-1 C(g) for C at weight -1, whose
    identity at (g, h) is B's at (g, h) (see `_decide`)."""
    if op.weight == 1:
        return op.images
    t, inv = op.group.table, op.group.inverses
    return [t[inv[g]][c] for g, c in enumerate(op.images)]


def _first_defect(op: RBOperator) -> Optional[tuple[int, int]]:
    """The first pair (g, h) in row-major order where the identity fails."""
    G, B = op.group, _plus_images(op)
    t, inv = G.table, G.inverses
    for g in G.elements():
        bg = B[g]
        left, pre, post = t[bg], t[t[g][bg]], inv[bg]
        for h in G.elements():
            if left[B[h]] != B[t[pre[h]][post]]:
                return (g, h)
    return None


def _column_holds(t, B, pre, post, h: int) -> bool:
    """Column h of the weight +1 identity: B(g)B(h) = B(gB(g) h B(g)^-1)
    for every g, where pre[g] is the table row of gB(g) and post[g] is
    B(g)^-1."""
    bh = B[h]
    return [t[bg][bh] for bg in B] == [B[t[p[h]][q]] for p, q in zip(pre, post)]


def _decide(op: RBOperator) -> bool:
    """Whether the operator is valid, from at most ceil(log2 |G|) columns.

    At weight +1, let p(g) = (gB(g), B(g)) and H = {p(g)} in G x G; g is
    x y^-1 for (x, y) = p(g), so |H| = |G| and (x, y) is in H iff
    B(x y^-1) = y.  The pair product p(g)p(h) is (x, B(g)B(h)) with
    x y^-1 = g.h, the twisted product gB(g)hB(g)^-1, so it lies in H iff
    B(g.h) = B(g)B(h): column h holds for all g iff H p(h) lies in H, and
    then H p(h) = H, since right multiplication is injective and H is
    finite.  The z with Hz = H form a group M; with B(e) = e, p(e) is the
    identity pair, so M lies in H.  Once column h is checked p(h) is in
    M, and p(g)p(h) = p(g.h) for every g, so closing {e} under g -> g.h
    over the checked h gives exactly the g with p(g) in the group they
    generate.  The columns are taken in id order, each h the closure has
    not reached; when it reaches G, M = H is a subgroup of order |G|
    meeting the diagonal only in p(e), and B is valid by the
    correspondence in the `enumeration` docstring.  Each column passed
    adds an element outside a subgroup of M and so at least doubles it:
    at most ceil(log2 |G|) columns, O(|G| log |G|) reads in all.  A
    failed column is a failing pair, and B(e) != e fails at (e, e).

    At weight -1, C is valid iff B(g) = g^-1 C(g) is valid at weight +1:
    substituting C(g) = gB(g), the weight -1 identity at (g, h) becomes
    the weight +1 identity for B at (g, h).
    """
    G = op.group
    t, inv, e = G.table, G.inverses, G.identity
    B = _plus_images(op)
    if B[e] != e:
        return False
    pre = [t[t[g][b]] for g, b in enumerate(B)]
    post = [inv[b] for b in B]
    reached = {e}
    gens: list[int] = []
    for h in G.elements():
        if h in reached:
            continue
        if not _column_holds(t, B, pre, post, h):
            return False
        gens.append(h)
        # the new closure is a union of cosets R.z of the old one R, one
        # per new z: every reached z has p(z) in M, so column z holds and
        # r -> r.z maps R onto its coset
        old = list(reached)
        reps = [e]
        for y in reps:
            for s in gens:
                z = t[pre[y][s]][post[y]]
                if z not in reached:
                    reached.update([t[pre[r][z]][post[r]] for r in old])
                    reps.append(z)
        if len(reached) == G.order:
            break
    return True


def _decide_rows(G: FiniteGroup, B) -> np.ndarray:
    """`_decide` on every row of a (k, |G|) array of weight +1 images at
    once: True where the row is a valid operator.

    The same columns and the same closures as `_decide`, so its proof
    carries over unchanged.  Each round takes every open row's first
    unreached column h and checks all open rows with one gather.  The
    twisted column map g -> g.h that the check reads is kept, and each
    row's closure grows breadth first under its kept maps until it stops:
    the new map acts on the whole closure, every map on what is new.  A
    row leaves when a column fails or its closure reaches G, so there are
    at most ceil(log2 |G|) rounds.  Ids are int32; every read is a flat
    gather into the open rows laid end to end.
    """
    n, e = G.order, G.identity
    T = G.np_table().ravel()
    B = np.asarray(B, dtype=np.int32)
    ok = B[:, e] == e
    rows = np.flatnonzero(ok)
    B = B[rows]
    pre = T[np.arange(n, dtype=np.int32) * n + B] * n  # rows of gB(g)
    post = np.asarray(G.inverses, dtype=np.int32)[B]  # B(g)^-1
    reached = np.zeros(B.shape, dtype=bool)
    reached[:, e] = True
    maps = np.empty((0,) + B.shape, dtype=np.int32)  # one per kept column
    while len(rows):
        m = len(rows)
        off = np.arange(0, m * n, n, dtype=np.int32)[:, None]
        h = reached.argmin(axis=1).astype(np.int32)
        col = T[T[pre + h[:, None]] * n + post]  # g -> g.h
        holds = (T[B * n + B[np.arange(m), h][:, None]] == B.ravel()[off + col]).all(axis=1)
        ok[rows[~holds]] = False
        maps = np.concatenate((maps, col[None]))
        jumps = (maps + off).reshape(-1, m * n)
        flat = reached.ravel()
        new = jumps[-1, np.flatnonzero(flat)]
        while True:
            new = new[~flat[new]]
            if not new.size:
                break
            flat[new] = True
            new = jumps[:, new].ravel()
        keep = holds & ~reached.all(axis=1)
        rows, B, pre, post, reached = (a[keep] for a in (rows, B, pre, post, reached))
        maps = maps[:, keep]
    return ok


def verify(op: RBOperator) -> Verdict:
    """Decide validity; caches the result on the operator.

    The decision reads at most ceil(log2 |G|) columns (`_decide`).  The
    witness, when invalid, is the lexicographically first failing
    (g, h), found by scanning the pairs in order.
    """
    if op.verified is True:
        return Verdict(True)
    if op.verified is not None:
        return Verdict(False, op.verified)
    if _decide(op):
        op.verified = True
        return Verdict(True)
    w = _first_defect(op)
    op.verified = w
    return Verdict(False, w)


def _require_valid(op: RBOperator) -> None:
    if not verify(op):
        raise InvalidInput(f"operator is not valid: witness {op.verified}")


def _proved(group: FiniteGroup, images: Sequence[int], weight: int) -> RBOperator:
    """An operator valid by a theorem, built from images already read off
    the tables of `group`: no coercion, no range check, no verification."""
    out = RBOperator.__new__(RBOperator)
    out.group = group
    out.images = tuple(images)
    out.weight = weight
    out.verified = True
    out._derived = None
    return out


def _valid_rows(G: FiniteGroup, rows: np.ndarray, weight: int,
                what: str) -> list[RBOperator]:
    """The operators of a (k, |G|) image array whose rows a theorem says
    are valid, each decided by `_decide_rows`; a failing row is a bug,
    raised with the witness `verify` would name.  Row e of G's table is
    the ids themselves, so the images share one int object per id."""
    plus = rows
    if weight == -1:  # B(g) = g^-1 C(g), as `_plus_images` reads it
        plus = G.np_table()[np.asarray(G.inverses), rows]
    ok = _decide_rows(G, plus)
    if not ok.all():
        bad = RBOperator(G, rows[ok.argmin()].tolist(), weight)
        raise StructureViolation(f"{what} fails verification at {_first_defect(bad)}")
    ids = G.table[G.identity]
    return [_proved(G, map(ids.__getitem__, row), weight) for row in rows.tolist()]


def _wrap_valid(group: FiniteGroup, images: Sequence[int], weight: int,
                what: str) -> RBOperator:
    """Run the one full check on a construction's result; failing is a bug."""
    out = RBOperator(group, images, weight)
    v = verify(out)
    if not v:
        raise StructureViolation(f"{what} produced an invalid map at {v.witness}")
    return out


def elementary(G: FiniteGroup, which: str) -> RBOperator:
    """The two operators every group carries: g -> e and g -> g^-1."""
    if which == "b0":
        images = (G.identity,) * G.order
    elif which == "b_minus1":
        images = G.inverses
    else:
        raise InvalidInput(f"unknown elementary kind {which!r}")
    return _wrap_valid(G, images, 1, f"elementary {which}")


def tilde(op: RBOperator) -> RBOperator:
    """The involution pairing each operator with its mirror.

    Weight +1: g -> g^-1 B(g^-1).  Weight -1: g -> g C(g^-1).  Both are
    involutions on the valid operators of their weight.
    """
    _require_valid(op)
    G, B = op.group, op.images
    t, inv = G.table, G.inverses
    if op.weight == 1:
        images = [t[inv[g]][B[inv[g]]] for g in G.elements()]
    else:
        images = [t[g][B[inv[g]]] for g in G.elements()]
    return _proved(G, images, op.weight)


def conjugate(op: RBOperator, phi: GroupMap) -> RBOperator:
    """The operator phi^-1 . B . phi for an automorphism phi.

    Satisfies conjugate(conjugate(B, phi), psi) = conjugate(B, phi . psi)
    where (phi . psi)(x) = phi(psi(x)), and commutes with tilde.
    """
    _require_valid(op)
    G = op.group
    if phi.domain is not G or phi.codomain is not G:
        raise InvalidInput("automorphism acts on a different group")
    if not (phi.homomorphism and phi.bijective):
        raise InvalidInput("conjugation needs a verified automorphism")
    inv_phi = [0] * G.order
    for g, x in enumerate(phi.images):
        inv_phi[x] = g
    images = [inv_phi[op.images[phi.images[g]]] for g in G.elements()]
    return _proved(G, images, op.weight)


def weight_convert(op: RBOperator) -> RBOperator:
    """The weight-swapping bijection: C(g) = gB(g), inverse B(g) = g^-1 C(g).

    Applying it twice returns the original operator.
    """
    _require_valid(op)
    G = op.group
    t, inv = G.table, G.inverses
    if op.weight == 1:
        images = [t[g][op.images[g]] for g in G.elements()]
    else:
        images = [t[inv[g]][op.images[g]] for g in G.elements()]
    return _proved(G, images, -op.weight)


def inverse_argument_convert(op: RBOperator) -> RBOperator:
    """The other weight swap: send B to g -> B(g^-1) at the opposite weight."""
    _require_valid(op)
    G = op.group
    images = [op.images[G.inverses[g]] for g in G.elements()]
    return _proved(G, images, -op.weight)


def bplus(op: RBOperator) -> GroupMap:
    """The companion map g -> gB(g).

    Not a homomorphism of (G, .) in general, but commutes with B
    pointwise (a theorem, not checked here).
    """
    _require_valid(op)
    if op.weight != 1:
        raise InvalidInput("companion map is defined at weight +1")
    G, B = op.group, op.images
    t = G.table
    return GroupMap.plain(G, G, [t[g][B[g]] for g in G.elements()])


def kernel(op: RBOperator) -> Subgroup:
    """The preimage of the identity; a subgroup by a theorem, unchecked."""
    _require_valid(op)
    G = op.group
    e = G.identity
    return Subgroup._proved(G, [g for g in G.elements() if op.images[g] == e])


def image(op: RBOperator) -> Subgroup:
    """The set of values; a subgroup by a theorem, unchecked."""
    _require_valid(op)
    return Subgroup._proved(op.group, set(op.images))


@dataclass(frozen=True)
class SplittingResult:
    splitting: bool
    kernel: Optional[Subgroup] = None
    image: Optional[Subgroup] = None

    def __bool__(self) -> bool:
        return self.splitting


def is_splitting(op: RBOperator) -> SplittingResult:
    """Whether B(gB(g)) = e everywhere.

    Then G factors exactly as ker(B) * Im(B) and B inverts the elements
    of its image; both are theorems and are not checked here.
    """
    _require_valid(op)
    if op.weight != 1:
        raise InvalidInput("splitting test is defined at weight +1")
    G, B = op.group, op.images
    t = G.table
    e = G.identity
    if any(B[t[g][B[g]]] != e for g in G.elements()):
        return SplittingResult(False)
    return SplittingResult(True, kernel(op), image(op))


def deep(op: RBOperator) -> int:
    """Length of the strictly decreasing image chain G > B(G) > B(B(G)) > ...

    Returns the number of strict steps before the chain repeats; 0 when
    B is surjective.
    """
    _require_valid(op)
    current = frozenset(op.group.elements())
    steps = 0
    while True:
        nxt = frozenset(op.images[g] for g in current)
        if nxt == current:
            return steps
        current = nxt
        steps += 1
