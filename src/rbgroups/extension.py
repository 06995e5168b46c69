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

A smaller diagonal-free H is searched: for the least g that no pair of
H decodes to, and each u in ascending order, add (g, u) as one more
prescribed pair and close again; skip u on a diagonal collision, decode
a full-size closure, search a smaller one the same way.  No extension B
is missed, as its graph contains H and (g B(g), B(g)), so it lies on
the branch u = B(g).  A branch closure properly contains its parent
subgroup, so at least doubles it: the depth is at most log2 |G|.  All
extensions below a node agree before g, so the first full closure found
is the lexicographically least extension.  The search is "undecided"
only once its closures have visited SEARCH_BUDGET pairs (checked before
each branch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import random

import numpy as np

from .derived import _circle_product
from .enumeration import _decode_graph
from .errors import CondFails, InvalidInput
from .groups import FiniteGroup, GroupMap, subgroup_generated
from .operators import RBOperator

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
                   images: Sequence[int], whole: bool = False):
    """BFS closure of the generator pairs in G x G with parent pointers.

    Returns (pairs dict mapping pair -> parent step, first diagonal
    collision or None); unless whole is set, the walk stops there.
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
    collision = None
    while queue:
        nxt = []
        for x, y in queue:
            for (dx, dy), step in steps:
                p = (t[x][dx], t[y][dy])
                if p in parents:
                    continue
                parents[p] = ((x, y), step)
                if p[0] == p[1] and collision is None:
                    collision = p
                    if not whole:
                        return parents, collision
                nxt.append(p)
        queue = nxt
    return parents, collision


def _word_of(parents, pair) -> Word:
    out = []
    while parents[pair] is not None:
        prev, step = parents[pair]
        out.append(step)
        pair = prev
    return tuple(reversed(out))


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

    Every closure element is reached by an actual word, the one its
    breadth-first parent steps spell, so the probe map and the
    word-level probe evaluation have the same image set.
    """
    gens, images = _check_problem(G, gens, images)
    if not subgroup_generated(G, gens).is_whole_group():
        raise InvalidInput("the given elements do not generate the group")
    parents, collision = _closure_pairs(G, gens, images)
    if collision is not None:
        w = _word_of(parents, collision)
        raise CondFails(
            f"word {list(w)} probes to the identity but has image "
            f"{collision[1]}, so probe classes do not determine images"
        )
    return _closure_of(G, parents)


def _closure_of(G: FiniteGroup, pairs) -> ClosureGroup:
    """closure_group's result from a diagonal-free pair closure: the
    sorted pairs under the coordinatewise product of G x G.  The closure
    is a subgroup of G x G and the image map is its second projection,
    so neither the table nor the map is checked.  A pair (x, y) is coded
    x*n + y, so the sorted pairs have sorted codes and the table is one
    gather and one search over them."""
    n, T = G.order, G.np_table()
    ordered = sorted(pairs)
    xs, ys = np.array(ordered).T
    codes = xs * n + ys
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
    res, parents = _decide(G, gens, images)
    if not res.cond:
        return res, None
    return res, _closure_of(G, parents)


def _decide(G: FiniteGroup, gens: Sequence[int], images: Sequence[int]):
    """The decision of extend_generators and the parents of the top
    closure."""
    gens, images = _check_problem(G, gens, images)
    if not subgroup_generated(G, gens).is_whole_group():
        raise InvalidInput("the given elements do not generate the group")

    parents, collision = _closure_pairs(G, gens, images, True)  # whole
    if collision is not None:
        return ExtensionResult(
            status="no_extension", cond=False, closure_order=len(parents),
            via="closure", witness=(_word_of(parents, collision), ()),
        ), parents

    # the search of the module docstring, depth first from the closure
    t, inv = G.table, G.inverses
    stack, spent, node = [], 0, parents
    while node is None or len(node) < G.order:
        if node is not None:
            decoded = {t[x][inv[y]] for x, y in node}
            g = next(x for x in G.elements() if x not in decoded)
            stack += [(gens + [g], images + [u]) for u in reversed(G.elements())]
        if not stack or spent >= SEARCH_BUDGET:
            return ExtensionResult(
                status="undecided" if stack else "no_extension", cond=True,
                closure_order=len(parents), via=None if stack else "search",
            ), parents
        gens, images = stack.pop()
        node, collision = _closure_pairs(G, gens, images)
        spent += len(node)
        if collision is not None:
            node = None
    return ExtensionResult(
        status="extends", cond=True, closure_order=len(parents),
        via="closure" if node is parents else "search",
        operator=_decode_graph(G, node),
    ), parents
