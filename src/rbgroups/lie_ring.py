"""The graded Lie ring of the lower central series, and induced operators.

Layer n is the abelian quotient of consecutive series terms G_n/G_{n+1};
the bracket of cosets is the coset of the commutator, landing in layer
i+j.  A ring element is one coset per layer, added componentwise, with
the bracket extended biadditively.  Groups whose series stalls above the
identity still get a ring: the stalled degrees contribute trivial
layers, so brackets falling there vanish.

An operator on the group that maps every series term into itself pushes
down to one map per layer; the defining group identity degenerates on
the graded side to the weight-1 Lie identity

    [R(x), R(y)] = R([R(x), y] + [x, R(y)] + [x, y])

which is verified on homogeneous pairs (both sides are biadditive once
the layer maps are additive, so homogeneous pairs decide), off the
bracket table of each pair of layers.

Two theorems let the bracket and the layer maps be read at the least
element of each coset, unchecked (the tests check them on the corpus):
(1) for x in G_i and y in G_j, [x, y] lies in G_{i+j} and its coset
modulo G_{i+j+1} depends only on x G_{i+1} and y G_{j+1}; (2) an
operator mapping every series term into itself is constant on the
cosets of each layer (`induced_rb` says why).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionFailed, StructureViolation
from .groups import FiniteGroup, Subgroup, _coset_quotient, lower_central_series
from .groups import _digits as _mixed_radix
from .operators import RBOperator, verify

__all__ = [
    "Layer",
    "GradedLieRing",
    "graded_lie_ring",
    "check_lie_ring",
    "preserves_lower_central",
    "InducedRB",
    "induced_rb",
    "LieVerdict",
    "verify_lie_rb",
]


@dataclass(frozen=True)
class Layer:
    """One graded piece: the quotient of consecutive series terms."""

    degree: int
    quotient: FiniteGroup
    projection: dict  # the term's coset map {element in G's ids: coset id}


class GradedLieRing:
    """Associated graded ring of a group's lower central series."""

    __slots__ = ("group", "series", "layers", "_by_degree", "_brackets", "order")

    def __init__(self, group: FiniteGroup, series: Sequence[Subgroup],
                 layers: Sequence[Layer]):
        self.group = group
        self.series = tuple(series)
        self.layers = tuple(layers)
        self._by_degree = {layer.degree: i for i, layer in enumerate(self.layers)}
        self._brackets = {}
        order = 1
        for layer in self.layers:
            order *= layer.quotient.order
        self.order = order

    def zero(self) -> tuple[int, ...]:
        return tuple(layer.quotient.identity for layer in self.layers)

    def elements(self):
        def rec(i):
            if i == len(self.layers):
                yield ()
                return
            for rest in rec(i + 1):
                for x in self.layers[i].quotient.elements():
                    yield (x,) + rest
        return list(rec(0))

    def add(self, v: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            layer.quotient.table[a][b]
            for layer, a, b in zip(self.layers, v, w)
        )

    def neg(self, v: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            layer.quotient.inverses[a] for layer, a in zip(self.layers, v)
        )

    def _layer_bracket(self, i: int, j: int):
        """(table, target index) of the bracket of layers i, j into degree
        d_i + d_j, None when that layer is trivial: one commutator per
        pair of least coset elements, by theorem (1)."""
        key = (i, j)
        if key not in self._brackets:
            li, lj = self.layers[i], self.layers[j]
            target = self._by_degree.get(li.degree + lj.degree)
            got = None
            if target is not None:
                proj, comm = self.layers[target].projection, self.group.comm
                ys = _representatives(lj)
                got = ([[proj[comm(x, y)] for y in ys] for x in _representatives(li)],
                       target)
            self._brackets[key] = got
        return self._brackets[key]

    def bracket(self, v: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
        acc = list(self.zero())
        for i, li in enumerate(self.layers):
            if v[i] == li.quotient.identity:
                continue
            for j, lj in enumerate(self.layers):
                if w[j] == lj.quotient.identity:
                    continue
                got = self._layer_bracket(i, j)
                if got is None:
                    continue
                table, target = got
                q = self.layers[target].quotient
                acc[target] = q.table[acc[target]][table[v[i]][w[j]]]
        return tuple(acc)


def _representatives(layer: Layer) -> list[int]:
    """The least element of each coset of the layer, by coset id: the
    projection lists the term's elements in increasing order."""
    reps: dict[int, int] = {}
    for x, c in layer.projection.items():
        reps.setdefault(c, x)
    return [reps[c] for c in range(layer.quotient.order)]


def graded_lie_ring(G: FiniteGroup) -> GradedLieRing:
    series = lower_central_series(G)
    layers = []
    for k in range(len(series) - 1):
        upper, lower = series[k], series[k + 1]
        if upper.order == lower.order:
            continue
        Q, projection = _coset_quotient(G, upper.elements, lower)
        layers.append(Layer(k + 1, Q, projection))
    return GradedLieRing(G, series, layers)


# cells one numpy call takes at once, and at least one v: check_lie_ring
# checks this many (v, w, u) triples a slab, bracket_nonzero_count this
# many (v, w) pairs.  Each gathered int array then takes about 8 MB (32 MB
# for the triples at order 2048, where one v already has 2^22), while
# small rings still take many v per call
_AXIOM_CELLS = 1 << 20


def _digits(ring: GradedLieRing) -> list[tuple[np.ndarray, int]]:
    """Each layer's coset of every element id, with the layer's weight:
    ids in `elements()` order are `groups._digits` over the layer orders
    reversed, so layer i is digit k-1-i, the least significant first."""
    orders = [layer.quotient.order for layer in ring.layers]
    weights, coords = _mixed_radix(orders[::-1])
    return list(zip(coords[::-1], weights[::-1].tolist()))


def _bracket_ids(ring: GradedLieRing, digits, vs: slice = slice(None)) -> np.ndarray:
    """The bracket of element ids, rows vs of the n x n array, computed as
    `bracket` computes it: one target layer at a time, its layer pairs
    (i, j) in the same order, identity components skipped as there."""
    n = ring.order
    bracket = np.full((len(range(n)[vs]), n), _zero_id(ring, digits), dtype=np.intp)
    for target, (_, weight) in enumerate(digits):
        q = ring.layers[target].quotient
        acc = None
        for i, li in enumerate(ring.layers):
            for j, lj in enumerate(ring.layers):
                got = ring._layer_bracket(i, j)
                if got is None or got[1] != target:
                    continue
                di, dj = digits[i][0][vs], digits[j][0]
                value = np.asarray(got[0])[di[:, None], dj]
                value[di == li.quotient.identity] = q.identity
                value[:, dj == lj.quotient.identity] = q.identity
                acc = value if acc is None else q.np_table()[acc, value]
        if acc is not None:
            acc -= q.identity
            acc *= weight
            bracket += acc
    return bracket


def _zero_id(ring: GradedLieRing, digits) -> int:
    return sum(layer.quotient.identity * w for layer, (_, w) in zip(ring.layers, digits))


def check_lie_ring(ring: GradedLieRing) -> None:
    """Ring axioms over all elements: biadditivity, alternation, Jacobi.

    Raises StructureViolation on the first failure, in this order:
    alternation [v, v] = 0 for each v; then for each (v, w) in turn
    antisymmetry [v, w] = -[w, v], and for each u additivity
    [u, v + w] = [u, v] + [u, w] and the Jacobi identity.  Each axiom is
    one gather over sum, negative and bracket tables of element ids, a
    slab of v at a time.
    """
    digits = _digits(ring)
    n, zero = ring.order, _zero_id(ring, digits)
    add, neg = np.zeros((n, n), dtype=np.intp), np.zeros(n, dtype=np.intp)
    for layer, (d, weight) in zip(ring.layers, digits):
        q = layer.quotient
        add += q.np_table()[d[:, None], d] * weight
        neg += np.asarray(q.inverses)[d] * weight
    br = _bracket_ids(ring, digits)
    bad = np.flatnonzero(br[np.arange(n), np.arange(n)] != zero)
    if bad.size:
        raise StructureViolation(f"bracket not alternating at {ring.elements()[bad[0]]}")
    brT, ws = br.T, np.arange(n)[None, :, None]
    step = max(1, _AXIOM_CELLS // (n * n))
    for v0 in range(0, n, step):
        vs = slice(v0, v0 + step)
        # cell (v, w, 0) is antisymmetry at (v, w); cells (v, w, 1 + 2u)
        # and (v, w, 2 + 2u) additivity and Jacobi at (u, v, w), so the
        # first failing cell is the first failure in the order above
        fails = np.empty((min(step, n - v0), n, 1 + 2 * n), dtype=bool)
        fails[:, :, 0] = br[vs] != neg[brT[vs]]
        fails[:, :, 1::2] = brT[add[vs]] != add[brT[vs][:, None, :], brT[None, :, :]]
        # [u, [v, w]] + ([v, [w, u]] + [w, [u, v]])
        jac = add[brT[br[vs]], add[br[vs][:, br], br[ws, brT[vs][:, None, :]]]]
        fails[:, :, 2::2] = jac != zero
        if not fails.any():
            continue
        v, w, k = np.unravel_index(int(fails.argmax()), fails.shape)
        elems = ring.elements()
        v, w = elems[v0 + v], elems[w]
        if k == 0:
            raise StructureViolation(f"bracket not antisymmetric at {v}, {w}")
        if k % 2:
            raise StructureViolation("bracket not additive")
        raise StructureViolation(f"Jacobi fails at {elems[(k - 2) // 2]}, {v}, {w}")


def bracket_nonzero_count(ring: GradedLieRing) -> int:
    """Ordered element pairs with nonvanishing bracket, counted a slab of
    rows at a time."""
    digits, n = _digits(ring), ring.order
    zero, step = _zero_id(ring, digits), max(1, _AXIOM_CELLS // n)
    return sum(int((_bracket_ids(ring, digits, slice(v0, v0 + step)) != zero).sum())
               for v0 in range(0, n, step))


def preserves_lower_central(op: RBOperator) -> bool:
    """Whether the operator maps every series term into itself."""
    return _preserves(op, lower_central_series(op.group))


def _preserves(op: RBOperator, series: Sequence[Subgroup]) -> bool:
    """Whether the operator maps every term of the given series into itself."""
    return all(
        all(op(x) in term for x in term.elements) for term in series
    )


@dataclass(frozen=True)
class InducedRB:
    """Per-layer maps obtained by pushing an operator down the grading."""

    ring: GradedLieRing
    operator: RBOperator
    layer_maps: tuple[tuple[int, ...], ...]

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        return tuple(m[x] for m, x in zip(self.layer_maps, v))


def induced_rb(ring: GradedLieRing, op: RBOperator) -> InducedRB:
    """Push a series-preserving operator down to the layers.

    Refuses with PreconditionFailed when the operator is invalid, has
    the wrong weight, or moves some term of `ring.series` off itself (the
    series is read off the ring, not computed again).  Each layer
    map is read at one element per coset, by theorem (2) of the module
    docstring: for x in G_n and k in G_{n+1}, the defining identity gives
    B(xk) = B(x) B(B(x)^-1 k B(x)), and B(x)^-1 k B(x) lies in G_{n+1},
    which is normal and mapped into itself, so B(xk) is in B(x) G_{n+1}.
    """
    if op.group is not ring.group:
        raise PreconditionFailed("operator acts on a different group")
    if op.weight != 1:
        raise PreconditionFailed("graded push-down needs weight +1")
    if not verify(op):
        raise PreconditionFailed(f"operator is invalid: witness {op.verified}")
    if not _preserves(op, ring.series):
        raise PreconditionFailed("operator does not preserve the series terms")
    maps = tuple(tuple(layer.projection[op(x)] for x in _representatives(layer))
                 for layer in ring.layers)
    return InducedRB(ring, op, maps)


@dataclass(frozen=True)
class LieVerdict:
    valid: bool
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.valid


def verify_lie_rb(ind: InducedRB) -> LieVerdict:
    """The weight-1 Lie identity for the induced maps.

    Checks each layer map is additive, then the identity on all
    homogeneous pairs; biadditivity of both sides extends the result to
    the whole ring.  Additive maps send 0 to 0, so for x in layer i and
    y in layer j every term lies in degree d_i + d_j, or vanishes.
    """
    ring = ind.ring
    for layer, m in zip(ring.layers, ind.layer_maps):
        q = layer.quotient
        for a in q.elements():
            for b in q.elements():
                if m[q.table[a][b]] != q.table[m[a]][m[b]]:
                    return LieVerdict(False, (layer.degree, a, b, "additivity"))
    maps = ind.layer_maps
    for i, li in enumerate(ring.layers):
        for j, lj in enumerate(ring.layers):
            got = ring._layer_bracket(i, j)
            if got is None:
                continue
            br, target = got
            add, mt = ring.layers[target].quotient.table, maps[target]
            for a in li.quotient.elements():
                ra = maps[i][a]
                for b in lj.quotient.elements():
                    rb = maps[j][b]
                    arg = add[br[ra][b]][add[br[a][rb]][br[a][b]]]
                    if br[ra][rb] != mt[arg]:
                        return LieVerdict(
                            False, (li.degree, a, lj.degree, b, "identity")
                        )
    return LieVerdict(True)
