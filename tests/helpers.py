"""Independent reference implementations used as test oracles.

Everything here is written straight from the definitions, without
touching the library's verification or enumeration code paths.
"""

from itertools import product

import numpy as np


def reference_verify(G, images, weight=1):
    """Check the defining identity over every pair by direct table walks.

    Returns None when valid, else the first failing pair.
    """
    t, inv = G.table, G.inverses
    B = list(images)
    for g in G.elements():
        for h in G.elements():
            if weight == 1:
                lhs = t[B[g]][B[h]]
                arg = t[t[t[g][B[g]]][h]][inv[B[g]]]
            else:
                lhs = t[B[g]][B[h]]
                arg = t[t[t[B[g]][h]][inv[B[g]]]][g]
            if lhs != B[arg]:
                return (g, h)
    return None


def exhaustive_census(G, weight=1):
    """All valid operators by trying every self-map, identity unconstrained.

    Only usable for tiny groups; doubles as a check that validity forces
    the identity to map to itself.
    """
    n = G.order
    out = []
    for images in product(range(n), repeat=n):
        if reference_verify(G, images, weight) is None:
            out.append(images)
    return sorted(out)


def naive_is_subgroup(G, elems):
    s = set(elems)
    if G.identity not in s:
        return False
    return all(
        G.table[a][b] in s and G.inverses[a] in s for a in s for b in s
    )


def reference_normal_within(G, inner, outer):
    """Whether inner is a normal subgroup of outer, both inside G: every
    conjugate g s g^-1 by g in outer of s in inner lies in inner."""
    t, inv = G.table, G.inverses
    return all(t[t[g][s]][inv[g]] in inner.as_set()
               for g in outer.elements for s in inner.elements)


def reference_subgroups(G):
    """Every subgroup as a sorted element tuple, sorted by (order,
    elements): each subgroup above the trivial one is a smaller one with
    one more element adjoined, so joining every subgroup found with every
    element outside it, breadth first from the trivial one, finds all.
    A join is the closure of the identity under right multiplication by
    the smaller subgroup's generators and the new element."""
    t, e = G.table, G.identity

    def close(gens):
        known = {e}
        frontier = [e]
        while frontier:
            frontier = [t[x][g] for x in frontier for g in gens]
            frontier = [y for y in set(frontier) if y not in known]
            known.update(frontier)
        return frozenset(known)

    gens_of = {frozenset([e]): ()}
    frontier = [frozenset([e])]
    while frontier:
        nxt = []
        for S in frontier:
            for g in G.elements():
                if g not in S:
                    gens = gens_of[S] + (g,)
                    K = close(gens)
                    if K not in gens_of:
                        gens_of[K] = gens
                        nxt.append(K)
        frontier = nxt
    return sorted((tuple(sorted(K)) for K in gens_of), key=lambda k: (len(k), k))


def relabel(G, perm):
    """The table of G with each element g renamed perm[g]."""
    n = G.order
    table = [[0] * n for _ in range(n)]
    for a in G.elements():
        for b in G.elements():
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return table


def random_images(G, rng, fix_identity=True):
    imgs = [rng.randrange(G.order) for _ in range(G.order)]
    if fix_identity:
        imgs[G.identity] = G.identity
    return imgs


def reference_orbits(G, census_images, auts):
    """Orbits of weight-+1 image tuples under conjugation and tilde.

    A closure search on plain tuples, one move per automorphism
    (B -> phi^-1 . B . phi, with phi given as its image tuple) and one for
    tilde (B -> g -> g^-1 B(g^-1)).  Returns (representative, members)
    pairs sorted by representative, the representative being the least
    member and members the sorted indices into census_images.
    """
    t, inv = G.table, G.inverses
    index = {B: i for i, B in enumerate(census_images)}
    moves = []
    for phi in auts:
        phi_inv = [0] * G.order
        for g, x in enumerate(phi):
            phi_inv[x] = g
        moves.append(lambda B, phi=phi, phi_inv=phi_inv:
                     tuple(phi_inv[B[phi[g]]] for g in G.elements()))
    moves.append(lambda B: tuple(t[inv[g]][B[inv[g]]] for g in G.elements()))
    seen = set()
    out = []
    for start, images in enumerate(census_images):
        if start in seen:
            continue
        orbit = {start}
        frontier = [images]
        while frontier:
            B = frontier.pop()
            for move in moves:
                j = index[move(B)]
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(census_images[j])
        seen |= orbit
        out.append((min(census_images[j] for j in orbit), tuple(sorted(orbit))))
    return sorted(out)


def reference_group_axioms(table):
    """The first group axiom a raw table fails, as (exception class,
    message), or (identity, inverses) when it passes them all.

    Plain loops over the definitions, in the library's order: each row's
    length, then whether its entries are integers (Python or numpy ints,
    not bools), then their range, row by row; every row, then every
    column, a permutation of 0..n-1; a two-sided identity; (a*b)*c =
    a*(b*c) for every triple, O(n^3), compared for all (b, c) of one a at
    a time as two arrays read off the table, so the first failure is the
    lexicographically first triple; two-sided inverses.
    """
    from rbgroups.errors import NoIdentity, NotAssociative, NotLatinSquare

    n = len(table)
    if n == 0:
        return NotLatinSquare, "empty table"
    for i, row in enumerate(table):
        if len(row) != n:
            return NotLatinSquare, f"row {i} has length {len(row)}, expected {n}"
        for x in row:
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                return NotLatinSquare, f"row {i} contains non-integer entry {x!r}"
        for x in row:
            if not 0 <= x < n:
                return NotLatinSquare, f"row {i} contains out-of-range entry {x}"
    everything = set(range(n))
    for i in range(n):
        if set(table[i]) != everything:
            return NotLatinSquare, f"row {i} is not a permutation of 0..{n - 1}"
    for j in range(n):
        if {table[i][j] for i in range(n)} != everything:
            return NotLatinSquare, f"column {j} is not a permutation of 0..{n - 1}"
    identities = [e for e in range(n)
                  if all(table[e][g] == g and table[g][e] == g for g in range(n))]
    if not identities:
        return NoIdentity, "no two-sided identity element"
    e = identities[0]
    t = np.array(table)
    for a in range(n):
        # cell (b, c): (a*b)*c on the left, a*(b*c) on the right
        bad = t[t[a]] != t[a][t]
        if bad.any():
            b, c = divmod(int(bad.argmax()), n)
            return NotAssociative, f"({a}*{b})*{c} != {a}*({b}*{c})"
    inverses = []
    for g in range(n):
        x = [h for h in range(n) if table[g][h] == e][0]
        if table[x][g] != e:
            return NotAssociative, f"one-sided inverse at element {g}"
        inverses.append(x)
    return e, tuple(inverses)


def reference_hom_defect(G, H, images):
    """The first pair (a, b) in row-major order with f(ab) != f(a)f(b), or None."""
    for a in G.elements():
        for b in G.elements():
            if images[G.table[a][b]] != H.table[images[a]][images[b]]:
                return (a, b)
    return None


def reference_homomorphisms(G, H):
    """Every map G -> H with f(ab) = f(a) f(b) on all pairs, in
    lexicographic order, by filtering all |H|^|G| maps at once."""
    n = G.order
    maps = np.indices((H.order,) * n, dtype=np.int32).reshape(n, -1).T
    gt, ht = np.array(G.table), np.array(H.table)
    ok = (maps[:, gt] == ht[maps[:, :, None], maps[:, None, :]]).all(axis=(1, 2))
    return [tuple(row) for row in maps[ok].tolist()]


def counting(calls, key, real):
    """Wrap real so that each call adds one to calls[key]."""
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return real(*args, **kwargs)
    return wrapper


def reference_twisted_table(G, images):
    """The twisted product g . h = g B(g) h B(g)^-1, entry by entry."""
    t, inv = G.table, G.inverses
    B = list(images)
    return [[t[t[t[g][B[g]]][h]][inv[B[g]]] for h in G.elements()]
            for g in G.elements()]


def reference_greedy_columns(G, images):
    """For a valid operator: each h, in id order, outside the subgroup of
    its twisted group generated by the h listed before it."""
    tw = reference_twisted_table(G, images)
    cols, reached = [], {G.identity}
    for h in G.elements():
        if h in reached:
            continue
        cols.append(h)
        frontier = [G.identity]
        while frontier:
            new = {tw[x][c] for x in frontier for c in cols} - reached
            reached |= new
            frontier = list(new)
    return cols


def reference_splitting_facts(G, images):
    """For a splitting operator: whether ker(B) and Im(B) factor G exactly
    (orders multiply to |G|, intersection trivial, every g a product k l)
    and B inverts every element of Im(B)."""
    B = list(images)
    e = G.identity
    ker = {g for g in G.elements() if B[g] == e}
    im = set(B)
    products = {G.table[k][l] for k in ker for l in im}
    exact = (len(ker) * len(im) == G.order and ker & im == {e}
             and products == set(G.elements()))
    return exact and all(B[x] == G.inverses[x] for x in im)


def reference_closure_words(G, gens, images, word_pair):
    """Each pair reachable from the generator pairs, mapped to the first
    word reaching it in a breadth-first walk over words in the letters
    (i, 1) and (i, -1); word_pair evaluates a word to its pair."""
    letters = [(i, k) for i in range(len(gens)) for k in (1, -1)]
    root = ()
    found = {word_pair(G, gens, images, root): root}
    frontier = [root]
    while frontier:
        nxt = []
        for w in frontier:
            for step in letters:
                w2 = w + (step,)
                p = word_pair(G, gens, images, w2)
                if p not in found:
                    found[p] = w2
                    nxt.append(w2)
        frontier = nxt
    return found


def mixed_radix_encode(radices, digits):
    """The number with the given digits in the given radices, the first
    digit most significant."""
    acc = 0
    for radix, digit in zip(radices, digits, strict=True):
        assert 0 <= digit < radix
        acc = acc * radix + digit
    return acc


def reference_power_product(G, parts, r, psis=None):
    """The power product at (g_0, ..., g_{n-1}) for a matrix r over
    {-1, 0, 1}: component i is g_i^r_ii g_(i-1)^r_(i-1)i ... g_0^r_0i,
    each factor read off the table and the inverses.  With automorphisms
    psis (n - 1 maps), the nested twists are multiplied out: factor s of
    component i is g_s^r_si sent through psis[s], then psis[s+1], up to
    psis[i-1]."""
    t = G.table

    def power(g, k):
        return {1: g, 0: G.identity, -1: G.inverses[g]}[k]

    out = []
    for i in range(len(parts)):
        acc = G.identity
        for s in range(i, -1, -1):
            x = power(parts[s], r[s][i])
            for k in range(s, i) if psis is not None else ():
                x = psis[k](x)
            acc = t[acc][x]
        out.append(acc)
    return tuple(out)


def reference_permutation_group(gens):
    """The closure of the permutations gens, numbered by breadth-first
    discovery from the identity (each element of a level times each
    generator, in order), and its table by composing permutations:
    (p q)(i) = p(q(i)).  Returns (elements, table)."""
    k = len(gens[0])
    elems = [tuple(range(k))]
    index = {elems[0]: 0}
    frontier = list(elems)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(k))
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    table = [[index[tuple(p[q[i]] for i in range(k))] for q in elems] for p in elems]
    return elems, table


def reference_lie_verdict(ind):
    """verify_lie_rb's verdict through whole ring elements: each layer map
    checked additive on all pairs, then the weight-1 identity
    [R(v), R(w)] = R([R(v), w] + [v, R(w)] + [v, w]) on every pair of
    homogeneous elements, as zero-padded tuples through the ring's
    bracket and sum.  Returns (valid, witness)."""
    ring = ind.ring
    for layer, m in zip(ring.layers, ind.layer_maps):
        q = layer.quotient
        for a in q.elements():
            for b in q.elements():
                if m[q.table[a][b]] != q.table[m[a]][m[b]]:
                    return False, (layer.degree, a, b, "additivity")

    def apply(v):
        return tuple(m[x] for m, x in zip(ind.layer_maps, v))

    def homogeneous(i, a):
        v = list(ring.zero())
        v[i] = a
        return tuple(v)

    br, add = ring.bracket, ring.add
    for i, li in enumerate(ring.layers):
        for j, lj in enumerate(ring.layers):
            for a in li.quotient.elements():
                for b in lj.quotient.elements():
                    v, w = homogeneous(i, a), homogeneous(j, b)
                    rv, rw = apply(v), apply(w)
                    rhs = apply(add(br(rv, w), add(br(v, rw), br(v, w))))
                    if br(rv, rw) != rhs:
                        return False, (li.degree, a, lj.degree, b, "identity")
    return True, None


def reference_pair_walk(G, gens, images, whole=False):
    """The pair closure of an extension problem as a breadth-first walk
    from (e, e) in G x G, each pair stepping by (a_i u_i, u_i) and its
    inverse in generator order.  Returns (parents, collision): each pair
    found mapped to (previous pair, step) or None for the root, and the
    first pair off the identity with x = y, or None.  Unless whole is
    set, the walk stops at that pair."""
    t, inv, e = G.table, G.inverses, G.identity
    steps = []
    for i, (a, u) in enumerate(zip(gens, images)):
        au = t[a][u]
        steps.append(((au, u), (i, 1)))
        steps.append(((inv[au], inv[u]), (i, -1)))
    parents = {(e, e): None}
    queue, collision = [(e, e)], None
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


def reference_walk_word(parents, pair):
    """The steps from the root to pair along the walk's parent pointers."""
    out = []
    while parents[pair] is not None:
        pair, step = parents[pair]
        out.append(step)
    return tuple(reversed(out))


def reference_decide(G, gens, images, budget):
    """The extension decision by the whole walk and a branch search that
    closes every branch again from the root, with its prescription
    lengthened by one pair.  Returns a dict of status, cond, via,
    closure_order, operator images (read off the graph, not verified),
    witness, the CondFails message and the closure table: the sorted
    pairs, their coordinatewise products as indices, and the probe and
    image of each."""
    gens, images = list(gens), list(images)
    t, inv = G.table, G.inverses
    top, collision = reference_pair_walk(G, gens, images, whole=True)
    out = {"cond": collision is None, "closure_order": len(top),
           "operator": None, "witness": None, "message": None, "closure": None}
    if collision is not None:
        w = reference_walk_word(reference_pair_walk(G, gens, images)[0], collision)
        out.update(status="no_extension", via="closure", witness=(w, ()),
                   message=f"word {list(w)} probes to the identity but has image "
                           f"{collision[1]}, so probe classes do not determine images")
        return out
    pairs = sorted(top)
    index = {p: i for i, p in enumerate(pairs)}
    out["closure"] = (
        pairs,
        [[index[(t[x1][x2], t[y1][y2])] for x2, y2 in pairs] for x1, y1 in pairs],
        [t[x][inv[y]] for x, y in pairs],
        [y for _, y in pairs],
    )
    stack, spent, node = [], 0, top
    while node is None or len(node) < G.order:
        if node is not None:
            decoded = {t[x][inv[y]] for x, y in node}
            g = next(x for x in G.elements() if x not in decoded)
            stack += [(gens + [g], images + [u]) for u in reversed(G.elements())]
        if not stack or spent >= budget:
            out.update(status="undecided" if stack else "no_extension",
                       via=None if stack else "search")
            return out
        gens, images = stack.pop()
        node, collision = reference_pair_walk(G, gens, images)
        spent += len(node)
        if collision is not None:
            node = None
    op = [None] * G.order
    for x, y in node:
        op[t[x][inv[y]]] = y
    out.update(status="extends", via="closure" if node is top else "search",
               operator=tuple(op))
    return out


def reference_check_lie_ring(ring):
    """The ring axioms by a loop over element tuples through the ring's
    own add, neg and bracket: alternation for each v, then for each
    (v, w) antisymmetry and, for each u, additivity and Jacobi.  Raises
    StructureViolation on the first failure."""
    from rbgroups.errors import StructureViolation

    elems = ring.elements()
    zero = ring.zero()
    br, add, neg = ring.bracket, ring.add, ring.neg
    for v in elems:
        if br(v, v) != zero:
            raise StructureViolation(f"bracket not alternating at {v}")
    for v in elems:
        for w in elems:
            if br(v, w) != neg(br(w, v)):
                raise StructureViolation(f"bracket not antisymmetric at {v}, {w}")
            for u in elems:
                if br(u, add(v, w)) != add(br(u, v), br(u, w)):
                    raise StructureViolation("bracket not additive")
                jac = add(br(u, br(v, w)),
                          add(br(v, br(w, u)), br(w, br(u, v))))
                if jac != zero:
                    raise StructureViolation(f"Jacobi fails at {u}, {v}, {w}")
