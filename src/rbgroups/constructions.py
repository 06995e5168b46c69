"""Explicit Rota-Baxter operator constructions.

Each function either returns a verified operator or refuses with a
principled error carrying a witness.  Each result gets the one full
check, `verify` through `_wrap_valid`; what a theorem proves about it
(its kernel and image, its twisted group, its relation to another
operator) is not checked again, per the check policy in `operators`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CommutationFails,
    DecompositionNotUnique,
    ImageNotAbelian,
    InvalidInput,
    InvalidMatrix,
    NotExactFactorization,
    NotHomomorphism,
    PreconditionFailed,
    TrivialH,
)
from .groups import (
    DirectProduct,
    FiniteGroup,
    GroupMap,
    Subgroup,
    WreathProduct,
    center,
    direct_power,
    is_normal,
)
from .operators import RBOperator, _wrap_valid, verify

__all__ = [
    "splitting_from_factorization",
    "triangular_splitting",
    "semidirect_rb",
    "hom_to_abelian",
    "power_map",
    "PowerMapResult",
    "is_k_abelian",
    "central_conjugation",
    "affine_map_check",
    "direct_product_rb",
    "cascade_rb",
    "RBMatrix",
    "rb_matrix_check",
    "split_algebra_rb_check",
    "enumerate_rb_matrices",
    "power_product_rb",
    "nonsplitting_witness",
    "wreath_rb",
]


def _same_table(A: FiniteGroup, B: FiniteGroup) -> bool:
    return A is B or A.table == B.table


def _require_valid_on(C: RBOperator, L: FiniteGroup, what: str) -> None:
    if not _same_table(C.group, L):
        raise InvalidInput(f"{what} must act on the given subgroup's packed group")
    if C.weight != 1:
        raise InvalidInput(f"{what} must have weight +1")
    if not verify(C):
        raise InvalidInput(f"{what} is not a valid operator: witness {C.verified}")


# ---------------------------------------------------------------------------
# factorization constructions


def splitting_from_factorization(G: FiniteGroup, H: Subgroup,
                                 L: Subgroup) -> RBOperator:
    """B(hl) = l^-1 for an exact factorization G = HL: the splitting
    operator with kernel H and image L."""
    if H.parent is not G or L.parent is not G:
        raise InvalidInput("factors belong to a different group")
    e = G.identity
    if H.order * L.order != G.order or (H.as_set() & L.as_set()) != {e}:
        raise NotExactFactorization(
            f"|H| |L| = {H.order}*{L.order} with intersection size "
            f"{len(H.as_set() & L.as_set())} does not factor order {G.order}"
        )
    images = [-1] * G.order
    for h in H.elements:
        row = G.table[h]
        for l in L.elements:
            g = row[l]
            if images[g] != -1:
                raise NotExactFactorization(f"element {g} decomposes twice")
            images[g] = G.inverses[l]
    return _wrap_valid(G, images, 1, "splitting construction")


def _triple_decomposition(G: FiniteGroup, H: Subgroup, L: Subgroup,
                          M: Subgroup) -> dict[int, tuple[int, int, int]]:
    if H.order * L.order * M.order != G.order:
        raise DecompositionNotUnique(
            f"factor orders {H.order}*{L.order}*{M.order} != {G.order}"
        )
    dec: dict[int, tuple[int, int, int]] = {}
    t = G.table
    for h in H.elements:
        for l in L.elements:
            hl = t[h][l]
            for m in M.elements:
                g = t[hl][m]
                if g in dec:
                    raise DecompositionNotUnique(
                        f"element {g} decomposes as {dec[g]} and as ({h}, {l}, {m})"
                    )
                dec[g] = (h, l, m)
    return dec


def triangular_splitting(G: FiniteGroup, H: Subgroup, L: Subgroup, M: Subgroup,
                         C: RBOperator) -> RBOperator:
    """B(hlm) = C(l) m^-1 for a triple factorization G = HLM.

    Requires unique three-part decompositions, H commuting with L, the
    C-image of L commuting with M, and C a valid operator on L (given on
    L's packed group).  The twisted group of the result is isomorphic to
    H x L_C x M-with-reversed-product.
    """
    for S in (H, L, M):
        if S.parent is not G:
            raise InvalidInput("factors belong to a different group")
    packL = L.as_group()
    _require_valid_on(C, packL.group, "operator on the middle factor")
    dec = _triple_decomposition(G, H, L, M)
    for h in H.elements:
        for l in L.elements:
            if G.comm(h, l) != G.identity:
                raise CommutationFails(
                    f"first and middle factors do not commute at ({h}, {l})"
                )
    c_parent = {l: packL.to_parent[C(packL.from_parent[l])] for l in L.elements}
    for l in L.elements:
        for m in M.elements:
            if G.comm(c_parent[l], m) != G.identity:
                raise CommutationFails(
                    f"image of the middle factor does not commute with the last "
                    f"factor at ({l}, {m})"
                )
    images = [0] * G.order
    for g, (h, l, m) in dec.items():
        images[g] = G.table[c_parent[l]][G.inverses[m]]
    return _wrap_valid(G, images, 1, "triangular splitting")


def semidirect_rb(G: FiniteGroup, H: Subgroup, L: Subgroup,
                  C: RBOperator) -> RBOperator:
    """B(hl) = C(l) for G = H x| L with H normal and C valid on L.

    The twisted group is H x| L_C, with L_C acting on H by conjugation
    in the twisted product.
    """
    if H.parent is not G or L.parent is not G:
        raise InvalidInput("factors belong to a different group")
    if not is_normal(H):
        raise InvalidInput("first factor must be normal")
    if H.order * L.order != G.order or (H.as_set() & L.as_set()) != {G.identity}:
        raise DecompositionNotUnique("factors do not decompose the group")
    packL = L.as_group()
    _require_valid_on(C, packL.group, "operator on the complement")
    images = [0] * G.order
    for h in H.elements:
        row = G.table[h]
        for l_local in packL.group.elements():
            l = packL.to_parent[l_local]
            images[row[l]] = packL.to_parent[C(l_local)]
    return _wrap_valid(G, images, 1, "semidirect construction")


# ---------------------------------------------------------------------------
# homomorphism and formula constructions


def hom_to_abelian(G: FiniteGroup, images: Sequence[int],
                   mode: str = "hom") -> RBOperator:
    """An (anti)homomorphism of G into an abelian subgroup of itself.

    Multiplicativity per the mode (`GroupMap.hom_defect`) and
    commutativity of the image are checked, each by one gather; any such
    map is a valid weight-+1 operator.
    """
    if mode not in ("hom", "antihom"):
        raise InvalidInput(f"mode must be 'hom' or 'antihom', got {mode!r}")
    f = tuple(int(x) for x in images)
    if len(f) != G.order:
        raise InvalidInput("image array length does not match the group order")
    G.check_elements(f)
    # f(ab) = f(b) f(a) exactly where f(ab)^-1 = f(a)^-1 f(b)^-1: f is an
    # antihomomorphism where g -> f(g)^-1 is a homomorphism, at the same pairs
    hom = f if mode == "hom" else [G.inverses[x] for x in f]
    w = GroupMap.plain(G, G, hom).hom_defect()
    if w is not None:
        raise NotHomomorphism(f"map is not a {mode} at pair {w}")
    img = sorted(set(f))
    sub = G.np_table()[np.ix_(img, img)]
    bad = np.argwhere(sub != sub.T)  # the first row-major pair has x < y
    if len(bad):
        x, y = (img[i] for i in bad[0])
        raise ImageNotAbelian(f"image elements {x} and {y} do not commute")
    return _wrap_valid(G, f, 1, "abelian-image construction")


@dataclass(frozen=True)
class PowerMapResult:
    """Outcome of the power-map construction: an operator or a witness."""

    operator: Optional[RBOperator]
    witness: Optional[tuple[int, int]]

    def __bool__(self) -> bool:
        return self.operator is not None


def power_map(G: FiniteGroup, n: int) -> PowerMapResult:
    """g -> g^n, accepted exactly when it satisfies the defining identity.

    Decided by a full verification of the candidate, independently of
    `is_k_abelian`; the two must agree with k = n + 1.
    """
    if n < 0:
        raise InvalidInput("power map needs n >= 0")
    candidate = RBOperator(G, [G.power(g, n) for g in G.elements()], weight=1)
    v = verify(candidate)
    if v:
        return PowerMapResult(candidate, None)
    return PowerMapResult(None, v.witness)


def is_k_abelian(G: FiniteGroup, k: int) -> bool:
    """Whether (gh)^k = g^k h^k for all pairs, checked directly."""
    t = G.table
    for g in G.elements():
        for h in G.elements():
            if G.power(t[g][h], k) != t[G.power(g, k)][G.power(h, k)]:
                return False
    return True


def central_conjugation(G: FiniteGroup, g: int) -> Optional[RBOperator]:
    """x -> g^-1 x^-1 g, valid exactly when [g, G] lies in the center.

    On success the twisted product is the reversed product of G.
    Returns None when the centrality criterion fails.
    """
    G.check_elements((g,))
    z = center(G).as_set()
    if any(G.comm(g, x) not in z for x in G.elements()):
        return None
    t, inv = G.table, G.inverses
    gi = inv[g]
    images = [t[t[gi][inv[x]]][g] for x in G.elements()]
    return _wrap_valid(G, images, 1, "central conjugation")


def affine_map_check(G: FiniteGroup, a: int, b: int) -> Optional[RBOperator]:
    """x -> a x b, valid exactly when G is abelian and b = a^-1.

    Decided by a full verification of the candidate.
    """
    G.check_elements((a, b))
    candidate = RBOperator(G, [G.prod([a, x, b]) for x in G.elements()], weight=1)
    return candidate if verify(candidate) else None


# ---------------------------------------------------------------------------
# direct product constructions


def direct_product_rb(prod: DirectProduct,
                      ops: Sequence[RBOperator]) -> RBOperator:
    """The componentwise operator on a direct product."""
    if len(ops) != len(prod.factors):
        raise InvalidInput("need one operator per factor")
    for op, F in zip(ops, prod.factors):
        if not _same_table(op.group, F):
            raise InvalidInput("operator acts on a different factor")
        if op.weight != 1:
            raise InvalidInput("componentwise construction needs weight +1")
        if not verify(op):
            raise InvalidInput(f"factor operator is invalid: witness {op.verified}")
    comps = [np.array(op.images)[c] for op, c in zip(ops, prod.coords)]
    images = (prod.weights @ np.array(comps)).tolist()
    return _wrap_valid(prod.group, images, 1, "componentwise construction")


def cascade_rb(G: FiniteGroup, n: int, variant: str = "plain") -> RBOperator:
    """The shift-and-accumulate operators on G^n.

    plain: component i becomes the product g_{i-1} g_{i-2} ... g_1 (so
    the first component is e).  tilde: component i becomes
    g_i^-1 g_{i-1}^-1 ... g_1^-1.  The two are each other's images under
    the tilde involution.  Both are power products (`power_product_rb`)
    with r_si = [s < i] for plain and r_si = -[s <= i] for tilde.  Both
    matrices pass `rb_matrix_check` for every n (the tests check n <= 3),
    so it is not run here.  The operator acts on `direct_power(G, n)`.
    """
    if variant not in ("plain", "tilde"):
        raise InvalidInput(f"variant must be 'plain' or 'tilde', got {variant!r}")
    if n < 1:
        raise InvalidInput("cascade needs n >= 1")
    prod = direct_power(G, n)  # first: its limit on the factors refuses a huge n
    plain = variant == "plain"
    r = [[int(s < i) if plain else -int(s <= i) for i in range(n)] for s in range(n)]
    return _power_product(prod, r, None)


@dataclass(frozen=True)
class RBMatrix:
    """A square matrix over {-1, 0, 1} passing the split-algebra conditions."""

    size: int
    entries: tuple[tuple[int, ...], ...]

    def __getitem__(self, pos):
        i, k = pos
        return self.entries[i][k]

    def is_upper_triangular(self) -> bool:
        return all(
            self.entries[i][k] == 0
            for i in range(self.size)
            for k in range(i)
        )


def _as_matrix(r) -> RBMatrix:
    if isinstance(r, RBMatrix):
        return r
    rows = tuple(tuple(int(x) for x in row) for row in r)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InvalidInput("matrix is not square")
    return RBMatrix(n, rows)


def rb_matrix_check(r) -> bool:
    """The three combinatorial conditions for a split-algebra operator.

    (1) each row has a 0 diagonal with off-diagonal entries in {0, 1},
    or a -1 diagonal with off-diagonal entries in {0, -1}; (2) a
    symmetric zero pair (i, k) forces, for every other l, one of r_il,
    r_kl to vanish; (3) a nonzero r_ik forces r_ki = 0 and each other
    column l to have r_kl = 0 or r_il = r_ik.
    """
    m = _as_matrix(r)
    n = m.size
    for i in range(n):
        d = m[i, i]
        if d == 0:
            allowed = (0, 1)
        elif d == -1:
            allowed = (0, -1)
        else:
            return False
        if any(m[i, k] not in allowed for k in range(n) if k != i):
            return False
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            if m[i, k] == 0 and m[k, i] == 0:
                if any(
                    m[i, l] * m[k, l] != 0
                    for l in range(n)
                    if l != i and l != k
                ):
                    return False
            if m[i, k] != 0:
                if m[k, i] != 0:
                    return False
                for l in range(n):
                    if l == i or l == k:
                        continue
                    if m[k, l] != 0 and m[i, l] != m[i, k]:
                        return False
    return True


def split_algebra_rb_check(r) -> bool:
    """Independent oracle: the weight-1 operator identity on the split
    commutative algebra with componentwise product, tested on basis pairs.

    R(e_i) = sum_k r_ik e_k.  Both sides of R(x)R(y) =
    R(R(x)y + xR(y) + xy) are bilinear, so basis pairs decide; entries
    are integers, so integer arithmetic is exact.
    """
    m = _as_matrix(r)
    n = m.size
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = m[i, k] * m[j, k]
                rhs = m[i, j] * m[j, k] + m[j, i] * m[i, k]
                if i == j:
                    rhs += m[i, k]
                if lhs != rhs:
                    return False
    return True


def enumerate_rb_matrices(n: int) -> list[RBMatrix]:
    """All upper-triangular matrices over {-1, 0, 1} passing the conditions,
    in lexicographic order of their flattened entries."""
    if n < 1:
        raise InvalidInput("matrix size must be >= 1")
    slots = [(i, k) for i in range(n) for k in range(i, n)]
    out = []
    for values in itertools.product((-1, 0, 1), repeat=len(slots)):
        rows = [[0] * n for _ in range(n)]
        for (i, k), v in zip(slots, values):
            rows[i][k] = v
        m = RBMatrix(n, tuple(tuple(row) for row in rows))
        if rb_matrix_check(m):
            out.append(m)
    out.sort(key=lambda m: m.entries)
    return out


def power_product_rb(G: FiniteGroup, n: int, r,
                     psis: Optional[Sequence[GroupMap]] = None) -> RBOperator:
    """The matrix-driven operator on G^n: component i collects the factors
    g_s^{r_si} for s = i down to 1.

    With automorphisms psi_2..psi_n, each inner factor is twisted before
    the next one multiplies in; the twisted map is the plain map
    conjugated by the diagonal automorphism built from the psi chain.

    The operator acts on `direct_power(G, n)`, so the calls on one G share
    one G^n.  The images of all elements are computed at once from its
    coordinate array (`DirectProduct.coords`): per matrix entry r_si, one
    gather of the powers g_s^r_si and one of the table against the
    (twisted) running product, then one mixed-radix combine of the
    components.  The result gets the one full check, as every
    construction does.
    """
    m = _as_matrix(r)
    if m.size != n:
        raise InvalidMatrix(f"matrix size {m.size} does not match n = {n}")
    if not m.is_upper_triangular():
        raise InvalidMatrix("matrix must be upper-triangular")
    if not rb_matrix_check(m):
        raise InvalidMatrix("matrix fails the split-algebra conditions")
    return _power_product(direct_power(G, n), m.entries, psis)


def _power_product(prod: DirectProduct, r: Sequence[Sequence[int]],
                   psis: Optional[Sequence[GroupMap]]) -> RBOperator:
    """`power_product_rb` on prod = G^n, for a matrix r that passes its
    checks.  Without psis every twist is the identity: the plain product."""
    G, n = prod.factors[0], len(prod.factors)
    if psis is not None:
        if len(psis) != n - 1:
            raise InvalidInput("need one automorphism per component from the second")
        for psi in psis:
            if psi.domain is not G or psi.codomain is not G:
                raise InvalidInput("twist automorphism acts on a different group")
            if not (psi.homomorphism and psi.bijective):
                raise InvalidInput("twists must be verified automorphisms")
    # powers[k][x] = x^k for k in -1, 0, 1; twists[k] is psis[k] as an array.
    # With ids from 0, component i is
    # g_i^r_ii twists[i-1](g_(i-1)^r_(i-1)i twists[i-2](... twists[0](g_0^r_0i))),
    # computed for every element at once over the coordinate columns
    T, m = G.np_table(), G.order
    powers = {1: np.arange(m), 0: np.full(m, G.identity), -1: np.array(G.inverses)}
    twists = [None] * (n - 1) if psis is None else [np.array(p.images) for p in psis]
    parts = prod.coords
    comps = []
    for i in range(n):
        acc = powers[r[0][i]][parts[0]]
        for s in range(1, i + 1):
            twisted = acc if twists[s - 1] is None else twists[s - 1][acc]
            acc = T[powers[r[s][i]][parts[s]], twisted]
        comps.append(acc)
    images = (prod.weights @ np.array(comps)).tolist()
    what = "matrix power product" if psis is None else "twisted matrix power product"
    return _wrap_valid(prod.group, images, 1, what)


def nonsplitting_witness(H: FiniteGroup, L: FiniteGroup) -> RBOperator:
    """(h1, h2, l) -> (e, h1, e) on H x H x L: valid and never splitting
    for nontrivial H."""
    if H.order == 1:
        raise TrivialH("witness degenerates to the trivial operator")
    prod = DirectProduct((H, H, L))
    w = prod.weights
    images = (w[0] * H.identity + w[1] * prod.coords[0] + w[2] * L.identity).tolist()
    return _wrap_valid(prod.group, images, 1, "non-splitting witness")


# ---------------------------------------------------------------------------
# wreath product constructions


def wreath_rb(W: WreathProduct, variant: str,
              phi: Optional[GroupMap] = None,
              b_top: Optional[RBOperator] = None,
              b_base: Optional[RBOperator] = None) -> RBOperator:
    """Operators on a wreath product H wr L.

    inverse_base: (l, f) -> (e, f^-1), the splitting operator of the
    factorization by the top and base subgroups.  top_endo: (l, f) ->
    (phi(l), e) for an endomorphism phi of an abelian L.  componentwise:
    (l, f) -> (B_L(l), B_base(f)) when the shift action is trivial,
    i.e. when L or H is trivial; B_base acts on the base group coded as
    the direct power of H over L, which numbers the functions as W does.
    Each variant gathers all images at once from W's coding.
    """
    G = W.group
    L, H = W.L, W.H
    base_size = W.base_size

    def pairs(top, base) -> list:  # images (top[l], base[i]) of (l, i)
        return (np.asarray(top)[:, None] * base_size + np.asarray(base)).ravel().tolist()

    if variant == "inverse_base":
        finv = W.weights @ np.array(H.inverses)[W.coords]
        return _wrap_valid(G, pairs([L.identity] * L.order, finv), 1, "base inversion")

    if variant == "top_endo":
        if not L.is_abelian:
            raise PreconditionFailed("top group must be abelian for this variant")
        if phi is None or phi.domain is not L or phi.codomain is not L:
            raise InvalidInput("need an endomorphism of the top group")
        if not phi.homomorphism:
            raise InvalidInput("top map must be a verified homomorphism")
        trivial_f = [H.identity * int(W.weights.sum())] * base_size
        return _wrap_valid(G, pairs(phi.images, trivial_f), 1, "top endomorphism")

    if variant == "componentwise":
        if L.order > 1 and H.order > 1:
            raise PreconditionFailed(
                "componentwise variant needs a trivial shift action"
            )
        if b_top is None or not _same_table(b_top.group, L):
            raise InvalidInput("need an operator on the top group")
        if not verify(b_top) or b_top.weight != 1:
            raise InvalidInput("top operator must be valid at weight +1")
        base = direct_power(H, L.order)
        if b_base is None or not _same_table(b_base.group, base.group):
            raise InvalidInput(
                "need an operator on the base group (direct power of H over L)"
            )
        if not verify(b_base) or b_base.weight != 1:
            raise InvalidInput("base operator must be valid at weight +1")
        # base and W number the functions alike, so b_base acts on the codes
        return _wrap_valid(G, pairs(b_top.images, b_base.images), 1, "componentwise wreath")

    raise InvalidInput(f"unknown wreath variant {variant!r}")
