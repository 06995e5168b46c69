"""Independent reference implementations used as test oracles.

Everything here is written straight from the definitions, without
touching the library's verification or enumeration code paths.
"""

from itertools import product


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
