"""Complete censuses of Rota-Baxter operators, by two independent routes.

`brute_force_enumerate` filters every map fixing the identity through
the defining identity, vectorized with numpy so order 8 stays cheap.
`graph_enumerate` takes the structural route: a valid weight-+1 operator
B is the same thing as a subgroup of G x G of order |G| meeting the
diagonal trivially, via the pairing g -> (gB(g), B(g)).

Why the correspondence is exact.  Encoding: the pairing map is a
homomorphism from the twisted group of B into G x G (first coordinates
multiply by the twisted product, second coordinates because B is
multiplicative on it), injective since the first coordinates alone are a
bijection of G; a nontrivial diagonal pair (x, x) would decode to an
element g = x x^-1 = e with B(e) = x != e.  Decoding: given such a
subgroup H, the difference map (x, y) -> x y^-1 is injective on H
(a collision (x, y), (x', y') gives (x'^-1 x, y'^-1 y) in H and in the
diagonal), hence bijective by the order count, so B(x y^-1) = y is a
well-defined total map; for pairs (x, y), (x', y') in H with g = x y^-1
and h = x' y'^-1, the product (x, y)(x', y') = (x x', y y') lies in H
and decodes to B(x x' (y y')^-1) = y y', and x x' (y y')^-1 expands to
g B(g) h B(g)^-1, which is exactly the defining identity for B.  The two
directions are mutually inverse, so the census of subgroups is the
census of operators, with no duplicates on either side.

Subgroups of G x G are walked through their factor data (projections,
the two slice kernels, and the identifying isomorphism between the
quotients), so the product group is never materialized; this keeps A5
tractable.  G's subgroups are swept once per call, by conjugacy classes
(`all_subgroups`): those of a subgroup S are the ones inside S, so S's
normal subgroups, quotients and coset fibers are read off that lattice
in G's ids, once, and shared by every visit to S; N is normal in S when
S <= N_G(N), one gather per N.  The isomorphisms between two quotients
are searched once per distinct pair of quotient tables and shared by
every candidate with that pair.  Nothing outlives the call.

Decoding and the check run in batches.  The walk appends each subgroup
it finds as one row of |G| pairs, and once the pending rows hold
_CHUNK_CELLS cells they are decoded together: one gather computes every
x y^-1, one scatter writes each y there, and `operators._decide_rows`
decides every decoded row, as `verify` would decide it alone.  Brute
force decides its survivors in one such call, and the splitting report
reads kernels, images and B(gB(g)) = e off the census a chunk of rows at
a time.  A chunk bounds the arrays a census holds: decoding the whole
PSL(2,11) census at once took its peak RSS from 90 to 230 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInput, OrderCapExceeded, StructureViolation
from .groups import (
    FiniteGroup,
    Subgroup,
    _coset_quotient,
    _normalizer,
    all_subgroups,
    automorphisms,
    is_simple,
    isomorphisms_all,
)
from .operators import (
    RBOperator,
    _require_valid,
    _valid_rows,
    elementary,
    tilde,
    verify,
)

DEFAULT_BRUTE_CAP = 8
_CHUNK_CELLS = 1 << 12  # cells of image rows a census decodes, decides or reports at once

__all__ = [
    "DEFAULT_BRUTE_CAP",
    "Census",
    "OrbitClass",
    "ElementaryVerdict",
    "SplittingReport",
    "SimpleCheck",
    "brute_force_enumerate",
    "graph_enumerate",
    "graph_of_operator",
    "classify",
    "is_rb_elementary",
    "splitting_report",
    "simple_group_check",
]


@dataclass(frozen=True)
class OrbitClass:
    """One orbit under automorphism conjugation and the tilde involution."""

    representative: tuple[int, ...]
    members: tuple[int, ...]


@dataclass(frozen=True)
class Census:
    group: FiniteGroup
    method: str
    operators: tuple[RBOperator, ...]
    weight: int = 1
    classes: Optional[tuple[OrbitClass, ...]] = None

    def __len__(self) -> int:
        return len(self.operators)

    def image_tuples(self) -> list[tuple[int, ...]]:
        return [op.images for op in self.operators]


def brute_force_enumerate(G: FiniteGroup, weight: int = 1) -> Census:
    """Filter all |G|^(|G|-1) maps fixing the identity through the identity.

    Fixing B(e) = e loses nothing: substituting g = h = e into either
    weight's identity forces the image of e to be idempotent, hence the
    identity.  Candidates are filtered pair by pair with numpy gathers.
    Groups above order DEFAULT_BRUTE_CAP are refused, as the candidates
    number |G|^(|G|-1).
    """
    if G.order > DEFAULT_BRUTE_CAP:
        raise OrderCapExceeded(
            f"brute force capped at order {DEFAULT_BRUTE_CAP}, group has order {G.order}"
        )
    if weight not in (1, -1):
        raise InvalidInput(f"weight must be +1 or -1, got {weight}")
    n = G.order
    e = G.identity
    t = G.np_table().astype(np.int64)
    inv = np.array(G.inverses, dtype=np.int64)

    free = [g for g in range(n) if g != e]
    m = n ** len(free)
    d = np.empty((m, n), dtype=np.int64)
    d[:, e] = e
    idx = np.arange(m, dtype=np.int64)
    for j, g in enumerate(free):
        div = n ** (len(free) - 1 - j)
        d[:, g] = (idx // div) % n

    for g in free:
        if d.shape[0] == 0:
            break
        for h in free:
            bg = d[:, g]
            bh = d[:, h]
            lhs = t[bg, bh]
            if weight == 1:
                arg = t[t[t[g, bg], h], inv[bg]]
            else:
                arg = t[t[t[bg, h], inv[bg]], g]
            rhs = np.take_along_axis(d, arg[:, None], axis=1)[:, 0]
            d = d[lhs == rhs]
            if d.shape[0] == 0:
                break

    d = d[np.lexsort(d.T[::-1])]  # rows in lexicographic order
    ops = _valid_rows(G, d, weight, "brute-force survivor")
    return Census(G, "brute", tuple(ops), weight=weight)


def graph_of_operator(op: RBOperator) -> frozenset[tuple[int, int]]:
    """The subgroup of G x G encoding a valid operator: {(gB(g), B(g))}."""
    _require_valid(op)
    G = op.group
    return frozenset(
        (G.table[g][op.images[g]], op.images[g]) for g in G.elements()
    )


def _factor_data(G: FiniteGroup, subs: list[Subgroup]) -> dict:
    """{S.elements: one (N, Q, proj, fibers) entry per N in `subs` with
    N <= S <= N_G(N)} over G's sweep `subs`, in G's ids: Q = S/N, proj
    the coset map {s: coset id}, fibers[q] the coset q."""
    T, factors = G.np_table(), {S.elements: [] for S in subs}
    for N in subs:
        normalizer = _normalizer(T, G.inverses, N.elements)
        for S in subs:
            if S.order % N.order or not N.as_set() <= S.as_set() <= normalizer:
                continue
            Q, proj = _coset_quotient(G, S.elements, N)
            fibers: dict[int, list[int]] = {}
            for s, q in proj.items():
                fibers.setdefault(q, []).append(s)
            factors[S.elements].append((N, Q, proj, fibers))
    return factors


def graph_enumerate(G: FiniteGroup) -> Census:
    """Enumerate operators as order-|G| subgroups of G x G avoiding the
    diagonal, walking subgroups of the square through their factor data.

    Each subgroup of G x G is determined by its two projections A and C,
    the slice kernels inside them, and an isomorphism between the two
    quotients; distinct isomorphisms give distinct subgroups, so nothing
    is deduplicated.  A candidate survives when its order is |G| and no
    nonidentity element pairs with itself.

    G's subgroups are swept once; before the walk, each one's normal
    subgroups, quotients and coset fibers are read off that lattice in
    G's ids and shared by every visit as A or as C.  The isomorphisms
    between two quotients depend only on their tables, so they are
    searched once per pair of tables and walked as image tuples; nothing
    is kept after the call.  Each subgroup found is kept as a row of
    pairs, decoded and decided with its chunk (module docstring).
    """
    n = G.order
    e = G.identity
    subs = all_subgroups(G)
    by_order: dict[int, list[Subgroup]] = {}
    for s in subs:
        by_order.setdefault(s.order, []).append(s)
    factors = _factor_data(G, subs)

    isos: dict[tuple, list[tuple[int, ...]]] = {}
    found: list[RBOperator] = []
    xs: list[list[int]] = []
    ys: list[list[int]] = []
    chunk = -(-_CHUNK_CELLS // n)
    for A in subs:
        for Bn, QA, projA, _ in factors[A.elements]:
            if (n % Bn.order) != 0:
                continue
            c_order = n // Bn.order
            quot_order = A.order // Bn.order
            pa = [projA[x] for x in A.elements]
            for C in by_order.get(c_order, []):
                if C.order % quot_order != 0:
                    continue
                d_order = C.order // quot_order
                X = None
                for Dn, QC, projC, fibers in factors[C.elements]:
                    if Dn.order != d_order:
                        continue
                    key = (QA.table, QC.table)
                    if key not in isos:
                        isos[key] = [phi.images for phi in isomorphisms_all(QA, QC)]
                    common = sorted(A.as_set() & C.as_set())
                    for phi in isos[key]:
                        if any(x != e and phi[projA[x]] == projC[x]
                               for x in common):
                            continue
                        if X is None:
                            X = [x for x in A.elements for _ in range(d_order)]
                        xs.append(X)
                        ys.append([y for q in pa for y in fibers[phi[q]]])
                        if len(ys) == chunk:
                            found += _decode_rows(G, xs, ys)
                            xs, ys = [], []
    if ys:
        found += _decode_rows(G, xs, ys)

    found.sort(key=lambda op: op.images)
    return Census(G, "graph", tuple(found))


def _decode_rows(G: FiniteGroup, X: list, Y: list) -> list[RBOperator]:
    """The operators B(x y^-1) = y read off k pair rows, row i the pairs
    (X[i][j], Y[i][j]) of a diagonal-free subgroup of G x G of order |G|:
    one gather finds each pair's g = x y^-1, one scatter writes y at g,
    and `_decide_rows` decides every row."""
    T, inv = G.np_table(), np.asarray(G.inverses, dtype=np.int32)
    Y = np.array(Y, dtype=np.int32)
    g = T[np.array(X, dtype=np.int32), inv[Y]]
    images = np.full(Y.shape, -1, dtype=np.int32)
    images[np.arange(len(Y))[:, None], g] = Y
    if (images < 0).any():  # n pairs per row, so a gap is a collision
        raise StructureViolation(
            "difference map not injective despite trivial diagonal")
    return _valid_rows(G, images, 1, "decoded subgroup")


def _decode_graph(G: FiniteGroup, pairs) -> RBOperator:
    """The operator B(x y^-1) = y read off the pairs (x, y) of a
    diagonal-free subgroup of G x G of order |G|, as the module docstring
    decodes it, with the one full check."""
    t, inv = G.table, G.inverses
    images = [-1] * G.order
    for x, y in pairs:
        g = t[x][inv[y]]
        if images[g] != -1:
            raise StructureViolation(
                "difference map not injective despite trivial diagonal")
        images[g] = y
    if -1 in images:
        raise StructureViolation("decoded map is not total")
    op = RBOperator(G, images, weight=1)
    v = verify(op)
    if not v:
        raise StructureViolation(f"decoded subgroup fails verification at {v.witness}")
    return op


def classify(census: Census) -> Census:
    """Partition a census into orbits under conjugation and tilde.

    Conjugation by Aut(G) commutes with the tilde involution, so the
    symmetry group is Aut(G) x <tilde> and the orbit of B is Aut.B
    together with Aut.tilde(B).  Each half is one gather over the
    automorphisms stacked as rows of P: Pinv[k][B[P[k][g]]] is B
    conjugated by the k-th one, at g.  Rows are looked up in the census,
    which must be closed under both moves; none is verified again.

    The orbit representative is the lexicographically least image array;
    orbits are sorted by representative.
    """
    G = census.group
    P = np.array([phi.images for phi in automorphisms(G)], dtype=np.intp)
    Pinv = np.argsort(P, axis=1)
    index = {op.images: i for i, op in enumerate(census.operators)}
    seen: set[int] = set()
    orbits = []
    for start, op in enumerate(census.operators):
        if start in seen:
            continue
        members = set()
        for images in (op.images, tilde(op).images):
            for row in np.take_along_axis(Pinv, np.array(images)[P], axis=1).tolist():
                j = index.get(tuple(row))
                if j is None:
                    raise StructureViolation(
                        "census is not closed under conjugation and tilde"
                    )
                members.add(j)
        seen |= members
        rep = min(census.operators[j].images for j in members)
        orbits.append(OrbitClass(rep, tuple(sorted(members))))
    orbits.sort(key=lambda o: o.representative)
    return Census(G, census.method, census.operators, weight=census.weight,
                  classes=tuple(orbits))


@dataclass(frozen=True)
class ElementaryVerdict:
    """Whether every operator on the group is one of the two elementary maps.

    Reports both the raw operator count and the orbit count, since the
    two disagree already on small cyclic groups.
    """

    elementary: bool
    total: int
    orbit_count: int
    non_elementary: tuple[int, ...]


def is_rb_elementary(G: FiniteGroup, census: Optional[Census] = None) -> ElementaryVerdict:
    if census is None:
        census = graph_enumerate(G)
    if census.classes is None:
        census = classify(census)
    allowed = {elementary(G, "b0").images, elementary(G, "b_minus1").images}
    bad = tuple(
        i for i, op in enumerate(census.operators) if op.images not in allowed
    )
    return ElementaryVerdict(
        elementary=not bad,
        total=len(census.operators),
        orbit_count=len(census.classes),
        non_elementary=bad,
    )


@dataclass(frozen=True)
class SplittingReport:
    """Census indices of splitting operators, each with its factorization."""

    splitting: dict
    non_splitting: tuple[int, ...]


def _splitting_masks(census: Census):
    """Kernel and image masks of every census row, and which rows split
    (B(gB(g)) = e for every g), by gathers and scatters over a chunk of
    rows at a time.  Every operator is validated first."""
    ops = census.operators
    for op in ops:
        if op.verified is not True:
            _require_valid(op)
    G = census.group
    n, e = G.order, G.identity
    T = G.np_table().ravel()
    kernels = np.empty((len(ops), n), dtype=bool)
    images = np.zeros((len(ops), n), dtype=bool)
    split = np.empty(len(ops), dtype=bool)
    step = -(-_CHUNK_CELLS // n)
    for i in range(0, len(ops), step):
        B = np.array([op.images for op in ops[i:i + step]], dtype=np.int32)
        off = np.arange(0, B.size, n, dtype=np.int32)[:, None]
        plus = T[np.arange(0, n * n, n, dtype=np.int32) + B]  # gB(g)
        split[i:i + step] = (B.ravel()[off + plus] == e).all(axis=1)
        kernels[i:i + step] = B == e
        images[i:i + step].ravel()[off + B] = True
    return kernels, images, split


def splitting_report(census: Census) -> SplittingReport:
    """Match each splitting operator to its (kernel, image) factorization.

    A splitting operator's kernel and image factor the group exactly (a
    theorem, not checked here), so no subgroup sweep is needed.  The
    test and both subgroups are read off the census as arrays.
    """
    kernels, images, split = _splitting_masks(census)
    if any(op.weight != 1 for op in census.operators):
        raise InvalidInput("splitting test is defined at weight +1")
    out = {
        i: (tuple(np.flatnonzero(kernels[i]).tolist()),
            tuple(np.flatnonzero(images[i]).tolist()))
        for i in np.flatnonzero(split).tolist()
    }
    rest = np.flatnonzero(~split).tolist()
    return SplittingReport(splitting=out, non_splitting=tuple(rest))


@dataclass(frozen=True)
class SimpleCheck:
    """Census-level facts that hold for finite simple groups."""

    census_size: int
    trivial_kernel_all_inversion: bool
    non_elementary_all_splitting: bool
    factorizations_covered: bool


def simple_group_check(G: FiniteGroup, census: Optional[Census] = None) -> SimpleCheck:
    """For a simple group: trivial-kernel operators must be inversion, and
    non-elementary operators must split along an exact factorization,
    tested on each one's kernel and image without a subgroup sweep, off
    the masks the splitting report reads."""
    if not is_simple(G):
        raise InvalidInput("check applies to simple groups only")
    if census is None:
        census = graph_enumerate(G)
    kernels, images, split = _splitting_masks(census)
    k_orders = kernels.sum(axis=1)
    exact = ((k_orders * images.sum(axis=1) == G.order)
             & ((kernels & images).sum(axis=1) == 1)).tolist()
    k_orders, split = k_orders.tolist(), split.tolist()
    inv_images = tuple(G.inverses)
    b0_images = (G.identity,) * G.order
    trivial_ok = True
    split_ok = True
    covered = True
    for i, op in enumerate(census.operators):
        if k_orders[i] == 1 and op.images != inv_images:
            trivial_ok = False
        if op.images in (inv_images, b0_images):
            continue
        if op.weight != 1:
            raise InvalidInput("splitting test is defined at weight +1")
        if not split[i]:
            split_ok = False
        elif not exact[i]:
            covered = False
    return SimpleCheck(
        census_size=len(census.operators),
        trivial_kernel_all_inversion=trivial_ok,
        non_elementary_all_splitting=split_ok,
        factorizations_covered=covered,
    )
