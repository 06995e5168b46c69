"""Deciding whether prescribed generator images extend to an operator.

Given generators a_1..a_s of G and prescribed values u_1..u_s, the
question is whether some valid weight-+1 operator B has B(a_i) = u_i.
Each word w = a_{i1}^{k1} ... a_{im}^{km} in the generators gets two
evaluations:

    word_image(w)  =  u_{i1}^{k1} ... u_{im}^{km}
    word_probe(w)  =  (a_{i1} u_{i1})^{k1} ... (a_{im} u_{im})^{km}
                      . u_{im}^{-km} ... u_{i1}^{-k1}

and the pair map w -> (word_probe(w) word_image(w), word_image(w)) is
multiplicative into G x G, because the probe-times-image component
collapses to the plain product of the (a_i u_i)^{k} factors.  Its image
is therefore the subgroup H generated by the pairs (a_i u_i, u_i).

If B exists, its graph {(g B(g), B(g))} is a subgroup containing those
pairs, hence containing H; so H meeting the diagonal of G x G outside
the identity refutes every extension at once, and the offending word is
a finite certificate: two words with equal probe values but different
image values.  Conversely a diagonal-free H of full size |G| decodes to
an operator by reading B(x y^-1) = y off its pairs, and the encode map
g -> (g B(g), B(g)) is then an isomorphism from the twisted group onto
H.

H is built from the powers of the generator pair of largest order, then
one generator pair at a time, a left coset at a time, as Dimino's
algorithm builds a group (`_grow`); pairs are coded x*n + y.  A coset
new to the subgroup so far never holds (e, e), so H meets the diagonal
exactly when a power or a new coset holds a pair with x = y, and one
lookup per coset tells.  Only a refutation walks H again, breadth first
from (e, e), to spell its witness word.

A smaller diagonal-free H is searched: for the least g that no pair of
H decodes to, and each u in ascending order, add (g, u) as one more
prescribed pair and grow H by its pair (g u, u); skip u when a coset
meets the diagonal (the growth stops there), decode a full-size
closure, search a smaller one the same way.  No extension B is missed,
as its graph contains H and (g B(g), B(g)), so it lies on the branch
u = B(g).  A branch closure properly contains its parent subgroup, so
at least doubles it: the depth is at most log2 |G|.  All extensions
below a node agree before g, so the first full closure found is the
lexicographically least extension.  The search is "undecided" only once
its branch closures hold SEARCH_BUDGET pairs in all, each counted as
built, with the parent pairs it starts from (checked before each
branch).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

import random

import numpy as np

from .derived import _circle_product
from .errors import CondFails, InvalidInput, StructureViolation
from .groups import FiniteGroup, GroupMap, subgroup_generated
from .operators import RBOperator, verify

__all__ = [
    "Word",
    "word_image",
    "word_probe",
    "word_pair",
    "word_identities_check",
    "ClosureGroup",
    "closure_group",
    "ExtensionResult",
    "extend_generators",
]

Word = tuple  # of (generator_index, exponent) syllables, exponent nonzero

SEARCH_BUDGET = 1_000_000


def _check_word(word: Sequence, s: int) -> None:
    for step in word:
        i, k = step
        if not 0 <= i < s:
            raise InvalidInput(f"word uses generator index {i} out of range")
        if k == 0:
            raise InvalidInput("word exponent must be nonzero")


def _check_problem(G: FiniteGroup, gens: Sequence[int],
                   images: Sequence[int]) -> tuple[list[int], list[int]]:
    gens = [int(a) for a in gens]
    images = [int(u) for u in images]
    if len(gens) != len(images):
        raise InvalidInput("need one prescribed image per generator")
    G.check_elements(gens + images)
    return gens, images


def word_image(G: FiniteGroup, gens: Sequence[int], images: Sequence[int],
               word: Sequence) -> int:
    """The word evaluated through the prescribed images."""
    gens, images = _check_problem(G, gens, images)
    _check_word(word, len(gens))
    acc = G.identity
    for i, k in word:
        acc = G.table[acc][G.power(images[i], k)]
    return acc


def word_probe(G: FiniteGroup, gens: Sequence[int], images: Sequence[int],
               word: Sequence) -> int:
    """The twisted-product evaluation of the word.

    Left part: the (a_i u_i)^k factors in word order; right part: the
    u_i^-k factors in reversed order.  Exponents may be any nonzero
    integers; splitting a syllable leaves both parts unchanged, so the
    value depends only on the underlying free-group word.
    """
    gens, images = _check_problem(G, gens, images)
    _check_word(word, len(gens))
    return _circle_product(G, [(gens[i], images[i], k) for i, k in word])


def word_pair(G: FiniteGroup, gens: Sequence[int], images: Sequence[int],
              word: Sequence) -> tuple[int, int]:
    """The multiplicative pair (probe * image, image) in G x G."""
    b = word_image(G, gens, images, word)
    p = word_probe(G, gens, images, word)
    return (G.table[p][b], b)


def _word_inverse(word: Sequence) -> Word:
    return tuple((i, -k) for i, k in reversed(word))


def word_identities_check(G: FiniteGroup, gens: Sequence[int],
                          images: Sequence[int],
                          words: Optional[Sequence[Word]] = None,
                          rng: Optional[random.Random] = None) -> bool:
    """Self-test of the two word evaluations against their product rules.

    Checks, over a sample of words w, w', that

      probe(w^-1)        = image(w)^-1 probe(w)^-1 image(w)
      probe(w w')        = probe(w) image(w) probe(w') image(w)^-1
      probe(w'^-1 w w')  = image(w')^-1 probe(w')^-1 probe(w) image(w)
                           . probe(w') image(w)^-1 image(w')

    These rules are what make the pair map multiplicative, so they are
    the ground truth behind the closure construction; a False verdict
    means the evaluators themselves are broken, not the input.  When no
    sample is given, one is drawn from rng (seeded by default): the
    empty word, each single letter, and random words of up to eight
    syllables with exponents up to +-5.
    """
    gens, images = _check_problem(G, gens, images)
    if words is None:
        rng = rng or random.Random(11)
        sample = [(), *(((i, 1),) for i in range(len(gens)))]
        for _ in range(24):
            n = rng.randint(1, 8)
            sample.append(tuple(
                (rng.randrange(len(gens)), rng.choice([k for k in range(-5, 6) if k]))
                for _ in range(n)
            ))
    else:
        sample = [tuple(w) for w in words]
    m, v = G.mul, G.inv

    def probe(w):
        return word_probe(G, gens, images, w)

    def image(w):
        return word_image(G, gens, images, w)

    for w in sample:
        pa, ba = probe(w), image(w)
        if probe(_word_inverse(w)) != m(m(v(ba), v(pa)), ba):
            return False
        for w2 in sample:
            pb, bb = probe(w2), image(w2)
            if probe(w + w2) != m(m(m(pa, ba), pb), v(ba)):
                return False
            conj = _word_inverse(w2) + w + w2
            expected = m(m(m(m(m(m(v(bb), v(pb)), pa), ba), pb), v(ba)), bb)
            if probe(conj) != expected:
                return False
    return True


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of the generator-extension decision.

    status is "extends", "no_extension", or "undecided" (SEARCH_BUDGET
    spent); cond records whether the pair closure avoids the diagonal;
    closure_order is the size of the pair subgroup; via is "closure" if
    that closure settles it, "search" if the branch search below it
    does, None if undecided.  witness, present exactly when cond fails,
    is a pair of words with equal probe values but different image
    values.
    """

    status: str
    cond: bool
    closure_order: int
    via: Optional[str] = None
    operator: Optional[RBOperator] = None
    witness: Optional[tuple[Word, Word]] = None

    def __bool__(self) -> bool:
        return self.status == "extends"


def _closure_pairs(G: FiniteGroup, gens: Sequence[int],
                   images: Sequence[int]):
    """BFS closure of the generator pairs in G x G with parent pointers,
    stopped at the first diagonal collision.

    Returns (pairs dict mapping pair -> parent step, that collision or
    None).  Only a refutation's witness word reads it.
    """
    t, inv = G.table, G.inverses
    e = G.identity
    steps = []
    for i, (a, u) in enumerate(zip(gens, images)):
        au = t[a][u]
        steps.append(((au, u), (i, 1)))
        steps.append(((inv[au], inv[u]), (i, -1)))
    root = (e, e)
    parents: dict[tuple[int, int], Optional[tuple]] = {root: None}
    queue = [root]
    while queue:
        nxt = []
        for x, y in queue:
            for (dx, dy), step in steps:
                p = (t[x][dx], t[y][dy])
                if p in parents:
                    continue
                parents[p] = ((x, y), step)
                if p[0] == p[1]:
                    return parents, p
                nxt.append(p)
        queue = nxt
    return parents, None


def _witness(G: FiniteGroup, gens: Sequence[int],
             images: Sequence[int]) -> tuple[Word, tuple[int, int]]:
    """The first diagonal pair the walk of `_closure_pairs` meets, and
    the word its parent steps spell to it; the closure must meet the
    diagonal."""
    parents, collision = _closure_pairs(G, gens, images)
    out, pair = [], collision
    while parents[pair] is not None:
        pair, step = parents[pair]
        out.append(step)
    return tuple(reversed(out)), collision


@dataclass(eq=False)
class _Closure:
    """A subgroup of G x G: the codes x*n + y of its pairs (x, y), and the
    pairs generating it."""

    codes: set[int]
    gens: list[tuple[int, int]]
    _pairs: Optional[list[tuple[int, int]]] = None
    _quotients: Optional[set[int]] = None

    def pairs(self, G: FiniteGroup) -> list[tuple[int, int]]:
        """The pairs (x, y), computed once."""
        if self._pairs is None:
            self._pairs = [divmod(c, G.order) for c in self.codes]
        return self._pairs

    def quotients(self, G: FiniteGroup) -> set[int]:
        """The elements y x^-1 over the pairs (x, y), computed once."""
        if self._quotients is None:
            t, inv = G.table, G.inverses
            self._quotients = {t[y][inv[x]] for x, y in self.pairs(G)}
        return self._quotients


def _pair_closure(G: FiniteGroup, gens: Sequence[int],
                  images: Sequence[int]) -> tuple[_Closure, bool]:
    """The whole pair closure of the problem, and whether it meets the
    diagonal outside (e, e).  The generator pair of largest order goes
    first, as its powers; _grow adds the others in turn."""
    t, e, n, orders = G.table, G.identity, G.order, G.element_orders()
    steps = sorted(((t[a][u], u) for a, u in zip(gens, images)),
                   key=lambda p: -lcm(orders[p[0]], orders[p[1]]))
    codes, diag = {e * n + e}, False
    for sx, sy in steps[:1]:
        x, y = sx, sy
        while x != e or y != e:
            diag = diag or x == y
            codes.add(x * n + y)
            x, y = t[x][sx], t[y][sy]
    H = _Closure(codes, steps[:1])
    for s in steps[1:]:
        H, met = _grow(G, H, s)
        diag = diag or met
    return H, diag


def _grow(G: FiniteGroup, H: _Closure, s: tuple[int, int],
          cut: bool = False) -> tuple[_Closure, bool]:
    """The closure of H and the pair s, and whether it meets the diagonal
    in a coset new to H.

    <H, s> is a union of left cosets z.H, found as Dimino's algorithm
    finds them: from the representative (e, e), each generator g times
    each representative r gives a new coset g.r.H, with g.r its
    representative, whenever g.r lies outside the codes found so far.  A
    new coset never holds (e, e), and z.H holds a diagonal pair exactly
    when zy^-1 zx is some y x^-1 of H, so each coset is checked once.
    With cut set, the growth stops at the first diagonal coset, and the
    result holds only the cosets before it.
    """
    t, inv, e, n = G.table, G.inverses, G.identity, G.order
    if s[0] * n + s[1] in H.codes:
        return H, False
    base, quotients = H.pairs(G), H.quotients(G)
    out = _Closure(set(H.codes), H.gens + [s])
    codes = out.codes
    diag = False
    reps = [(e, e)]
    for rx, ry in reps:
        for gx, gy in out.gens:
            zx, zy = t[gx][rx], t[gy][ry]
            if zx * n + zy in codes:
                continue
            if t[inv[zy]][zx] in quotients:
                if cut:
                    return out, True
                diag = True
            row_x, row_y = t[zx], t[zy]
            codes.update([row_x[x] * n + row_y[y] for x, y in base])
            reps.append((zx, zy))
    return out, diag


@dataclass(frozen=True)
class ClosureGroup:
    """The pair closure of an extension problem, carried as a group.

    group multiplies closure elements coordinatewise, the product
    inherited from G x G; pairs[i] is the (x, y) pair behind element i.
    probe sends element i to x * y^-1 and image sends it to y, so the
    two word evaluations factor through the closure: a word reaching
    pair i probes to probe(i) and has image image(i), as the pair map is
    multiplicative (not checked here).  image is always a homomorphism
    (it is the second projection); probe in general is not.
    """

    group: FiniteGroup
    pairs: tuple[tuple[int, int], ...]
    probe: GroupMap
    image: GroupMap


def closure_group(G: FiniteGroup, gens: Sequence[int],
                  images: Sequence[int]) -> ClosureGroup:
    """The group the prescribed words generate, with its evaluation maps.

    The generators must generate G.  Words in the generators, with two
    words identified when they probe to the same element, form a group
    exactly when equal probe values force equal image values; that is
    the diagonal condition on the pair closure, and its failure raises
    CondFails with the offending word.  On success the quotient is
    realized concretely as the closure subgroup of G x G, together
    with the probe and image maps described on ClosureGroup.

    Every closure element is a product of the generator pairs and their
    inverses, so it is reached by an actual word, and the probe map and
    the word-level probe evaluation have the same image set.  The
    offending word of CondFails is the one the breadth-first walk of
    `_closure_pairs` spells.
    """
    gens, images, H, diag = _closed_problem(G, gens, images)
    if diag:
        w, collision = _witness(G, gens, images)
        raise CondFails(
            f"word {list(w)} probes to the identity but has image "
            f"{collision[1]}, so probe classes do not determine images"
        )
    return _closure_of(G, H)


def _closure_of(G: FiniteGroup, H: _Closure) -> ClosureGroup:
    """closure_group's result from a diagonal-free pair closure: the
    sorted pairs under the coordinatewise product of G x G.  The closure
    is a subgroup of G x G and the image map is its second projection,
    so neither the table nor the map is checked.  A pair (x, y) is coded
    x*n + y, so the sorted codes are the sorted pairs and the table is
    one gather and one search over them."""
    n, T = G.order, G.np_table()
    codes = np.array(sorted(H.codes))
    xs, ys = codes // n, codes % n
    ordered = list(zip(xs.tolist(), ys.tolist()))
    table = np.searchsorted(codes, T[xs[:, None], xs] * n + T[ys[:, None], ys])
    H = FiniteGroup._proved(table, name=f"pair-closure({G.name})")
    image = tuple(ys.tolist())
    return ClosureGroup(
        group=H,
        pairs=tuple(ordered),
        probe=GroupMap.plain(H, G, T[xs, np.array(G.inverses)[ys]].tolist()),
        image=GroupMap._proved(H, G, image, H.order == G.order == len(set(image))),
    )


def extend_generators(G: FiniteGroup, gens: Sequence[int],
                      images: Sequence[int]) -> ExtensionResult:
    """Decide whether B(a_i) = u_i extends to a valid operator on G.

    The generators must generate G.  A diagonal collision in the pair
    closure refutes every extension and yields a word witness; a
    diagonal-free closure of full size decodes to the unique extension.
    A smaller one starts the branch search of the module docstring,
    which finds the least extension, refutes all, or spends its budget.
    """
    return _decide(G, gens, images)[0]


def _extend_with_closure(G: FiniteGroup, gens: Sequence[int],
                         images: Sequence[int],
                         ) -> tuple[ExtensionResult, Optional[ClosureGroup]]:
    """extend_generators, and closure_group when the closure avoids the
    diagonal (None otherwise), both read off one pair closure."""
    res, top = _decide(G, gens, images)
    if not res.cond:
        return res, None
    return res, _closure_of(G, top)


def _closed_problem(G: FiniteGroup, gens: Sequence[int], images: Sequence[int]):
    """_check_problem, the generation refusal, then the pair closure."""
    gens, images = _check_problem(G, gens, images)
    if not subgroup_generated(G, gens).is_whole_group():
        raise InvalidInput("the given elements do not generate the group")
    return (gens, images, *_pair_closure(G, gens, images))


def _decide(G: FiniteGroup, gens: Sequence[int], images: Sequence[int]):
    """The decision of extend_generators and the top closure."""
    gens, images, top, diag = _closed_problem(G, gens, images)
    order = len(top.codes)
    if diag:
        return ExtensionResult(
            status="no_extension", cond=False, closure_order=order,
            via="closure", witness=(_witness(G, gens, images)[0], ()),
        ), top

    # the search of the module docstring, depth first from the closure;
    # a branch grows its parent's closure by its one new pair
    t, inv = G.table, G.inverses
    stack, spent, node = [], 0, top
    while node is None or len(node.codes) < G.order:
        if node is not None:
            quotients = node.quotients(G)
            g = next(x for x in G.elements() if inv[x] not in quotients)
            stack += [(node, g, u) for u in reversed(G.elements())]
        if not stack or spent >= SEARCH_BUDGET:
            return ExtensionResult(
                status="undecided" if stack else "no_extension", cond=True,
                closure_order=order, via=None if stack else "search",
            ), top
        parent, g, u = stack.pop()
        node, diag = _grow(G, parent, (t[g][u], u), cut=True)
        spent += len(node.codes)
        if diag:
            node = None
    return ExtensionResult(
        status="extends", cond=True, closure_order=order,
        via="closure" if node is top else "search",
        operator=_decode_graph(G, node.pairs(G)),
    ), top


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
