"""Independent computations the benchmark checks the library's answers against.

Everything here works on plain data: a group is its multiplication table
as an n x n numpy array, and an operator is its image array.  Nothing
calls into rbgroups, so a fault in the library cannot hide itself by
agreeing with its own helpers.
"""

from __future__ import annotations

import itertools

import numpy as np


class Group:
    """A group given by its table, with identity, inverses and element orders."""

    def __init__(self, table):
        t = np.asarray(table, dtype=np.int64)
        n = t.shape[0]
        if t.shape != (n, n):
            raise ValueError("table is not square")
        idx = np.arange(n)
        ids = [e for e in range(n) if (t[e] == idx).all() and (t[:, e] == idx).all()]
        if len(ids) != 1:
            raise ValueError("table has no unique identity")
        e = ids[0]
        inv = np.argmax(t == e, axis=1)
        if not (t[idx, inv] == e).all():
            raise ValueError("table has an element without an inverse")
        self.t, self.n, self.e, self.inv = t, n, e, inv
        self.rows = t.tolist()
        orders = []
        for g in range(n):
            k, x = 1, g
            while x != e:
                x = self.rows[x][g]
                k += 1
            orders.append(k)
        self.orders = orders

    def closure(self, gens) -> int:
        """The subgroup generated by gens, as a bitmask over element ids."""
        t = self.rows
        known = {self.e}
        frontier = [self.e]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = t[x][g]
                    if y not in known:
                        known.add(y)
                        nxt.append(y)
            frontier = nxt
        return sum(1 << x for x in known)

    def generators(self) -> list[int]:
        """A short generating set: a pair when one exists, else a greedy set."""
        full = (1 << self.n) - 1
        if self.n == 1:
            return []
        by_order = sorted(range(self.n), key=lambda g: -self.orders[g])
        for g in by_order:
            if self.closure([g]) == full:
                return [g]
        for g, h in itertools.combinations(by_order, 2):
            if self.closure([g, h]) == full:
                return [g, h]
        gens: list[int] = []
        have = 1 << self.e
        for g in by_order:
            if not have >> g & 1:
                gens.append(g)
                have = self.closure(gens)
                if have == full:
                    break
        return gens


# ---------------------------------------------------------------------------
# operators


def rb_defects(G: Group, ops: np.ndarray) -> np.ndarray:
    """For each row B of ops, whether B(g)B(h) = B(g B(g) h B(g)^-1) fails
    for some pair (g, h).  This is the weight-+1 identity as defined; it
    says that B is a homomorphism from the twisted product to G."""
    t = G.t
    return np.array([(t[B[:, None], B[None, :]] != B[twisted_table(G, B)]).any()
                     for B in np.asarray(ops, dtype=np.int64)], dtype=bool)


def twisted_table(G: Group, B) -> np.ndarray:
    """g . h = g B(g) h B(g)^-1, the product an operator induces."""
    t, inv = G.t, G.inv
    B = np.asarray(B, dtype=np.int64)
    g = np.arange(G.n)
    return t[t[t[g, B][:, None], g[None, :]], inv[B][:, None]]


def tilde_rows(G: Group, ops: np.ndarray) -> np.ndarray:
    """The mirror g -> g^-1 B(g^-1) of every row."""
    inv = G.inv
    ops = np.asarray(ops, dtype=np.int64)
    return G.t[inv[None, :], ops[:, inv]]


def splits(G: Group, ops: np.ndarray) -> np.ndarray:
    """Per row, whether B(g B(g)) = e for every g."""
    ops = np.asarray(ops, dtype=np.int64)
    g = np.arange(G.n)
    arg = G.t[g[None, :], ops]
    return (np.take_along_axis(ops, arg, axis=1) == G.e).all(axis=1)


def kernel_image(G: Group, B) -> tuple[tuple[int, ...], tuple[int, ...]]:
    B = np.asarray(B)
    return (tuple(int(x) for x in np.flatnonzero(B == G.e)),
            tuple(sorted({int(x) for x in B})))


def row_keys(ops: np.ndarray) -> set[bytes]:
    return {row.tobytes() for row in np.ascontiguousarray(ops, dtype=np.int64)}


# ---------------------------------------------------------------------------
# automorphisms, subgroups, factorizations


def automorphisms(G: Group) -> np.ndarray:
    """Every automorphism as a row of images, found by extending each choice
    of generator images along every edge of the Cayley graph."""
    gens = G.generators()
    if not gens:
        return np.zeros((1, 1), dtype=np.int64)
    t = G.rows
    cand = [[u for u in range(G.n) if G.orders[u] == G.orders[a]] for a in gens]
    out = []
    for choice in itertools.product(*cand):
        f = {G.e: G.e}
        queue = [G.e]
        ok = True
        i = 0
        while ok and i < len(queue):
            x = queue[i]
            i += 1
            for a, u in zip(gens, choice):
                y, fy = t[x][a], t[f[x]][u]
                prev = f.get(y)
                if prev is None:
                    f[y] = fy
                    queue.append(y)
                elif prev != fy:
                    ok = False
                    break
        if ok and len(f) == G.n and len(set(f.values())) == G.n:
            out.append([f[x] for x in range(G.n)])
    return np.array(out, dtype=np.int64)


def conjugate_rows(B, auts: np.ndarray) -> np.ndarray:
    """phi^-1 . B . phi for every automorphism phi (one row per phi)."""
    auts = np.asarray(auts, dtype=np.int64)
    inv = np.argsort(auts, axis=1)
    B = np.asarray(B, dtype=np.int64)
    return np.take_along_axis(inv, B[auts], axis=1)


def all_subgroups(G: Group) -> list[int]:
    """Every subgroup as a bitmask: every subgroup is reached from the
    trivial one by adjoining one element at a time."""
    trivial = 1 << G.e
    gens_of = {trivial: []}
    frontier = [trivial]
    while frontier:
        nxt = []
        for S in frontier:
            for g in range(G.n):
                if not S >> g & 1:
                    gens = gens_of[S] + [g]
                    J = G.closure(gens)
                    if J not in gens_of:
                        gens_of[J] = gens
                        nxt.append(J)
        frontier = nxt
    return sorted(gens_of)


def exact_factorization_count(G: Group) -> int:
    """Ordered pairs (H, L) of subgroups with |H| |L| = |G| and H & L = {e}."""
    subs = all_subgroups(G)
    sizes = {S: bin(S).count("1") for S in subs}
    e = 1 << G.e
    return sum(
        1 for H in subs for L in subs
        if sizes[H] * sizes[L] == G.n and H & L == e
    )


def elementary_abelian_endomorphisms(G: Group) -> np.ndarray:
    """All endomorphisms of an elementary abelian 2-group as k x k matrices
    over F2, written as image rows in G's element ids."""
    gens = G.generators()
    k = len(gens)
    if 2 ** k != G.n or any(G.orders[g] > 2 for g in range(G.n)):
        raise ValueError("not an elementary abelian 2-group")
    coords = {}
    for v in itertools.product((0, 1), repeat=k):
        x = G.e
        for bit, a in zip(v, gens):
            if bit:
                x = G.rows[x][a]
        coords[v] = x
    if len(set(coords.values())) != G.n:
        raise ValueError("generators are not a basis")
    rows = []
    for cols in itertools.product(list(coords), repeat=k):
        img = [0] * G.n
        for v, x in coords.items():
            w = tuple(sum(v[j] * cols[j][i] for j in range(k)) % 2 for i in range(k))
            img[x] = coords[w]
        rows.append(img)
    return np.array(rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# extension problems


def pair_closure(G: Group, gens, images):
    """The subgroup of G x G generated by the pairs (a u, u).

    Returns (kind, size, operator).  kind is "refuted" as soon as a
    nonidentity diagonal pair appears or the closure outgrows |G| (a
    diagonal-free closure embeds in G through x y^-1), "full" when it
    reaches exactly |G| pairs, and "partial" when it stops short of |G|.
    operator is the image array read off a full closure, else None.
    """
    t, inv = G.rows, G.inv.tolist()
    steps = []
    for a, u in zip(gens, images):
        au = t[a][u]
        steps.append((au, u))
        steps.append((inv[au], inv[u]))
    root = (G.e, G.e)
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for x, y in frontier:
            for dx, dy in steps:
                p = (t[x][dx], t[y][dy])
                if p in seen:
                    continue
                if p[0] == p[1] or len(seen) == G.n:
                    return "refuted", None, None
                seen.add(p)
                nxt.append(p)
        frontier = nxt
    if len(seen) < G.n:
        return "partial", len(seen), None
    B = [0] * G.n
    for x, y in seen:
        B[t[x][inv[y]]] = y
    return "full", G.n, B
