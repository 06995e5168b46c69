"""Finite groups as dense multiplication tables over 0-based element ids.

Every group in this library is a `FiniteGroup`: a Cayley table together
with the located identity and the inverse of each element, so downstream
algorithms never re-check the axioms.  `FiniteGroup._proved` is its one
constructor.  A table from outside (a group file, the corpus's literal
tables, a caller) goes through `from_cayley_table`, which validates it in
full and hands the validated integer array to `_proved`.  A table that a
theorem or a closure proves to be a group goes to `_proved` unchecked:
quotients, the direct, semidirect and wreath products, repacked
subgroups, permutation closures, pair closures, twisted groups and
opposite groups.  All but the quotients are gathers over the parent's
`np_table()`, as are `center` and `_normalizer`, which answers every
normality question as K <= N_G(N).  `_coset_quotient` stays a loop: a
census builds hundreds of quotients, most of order 4 or less, where
numpy's fixed cost outweighs a loop.

How an array becomes a group.  The rows are made once, as tuples.
CPython keeps one int object for each of -5..256, so up to order 256
`tolist()` already shares one object per id.  Above order 256 the rows
are read through an object array of range(n), a block of rows at a
time, so each cell refers to the one int made for its id: a table of
order n holds n ints, not up to n^2, also when it comes from outside:
an A7 group file (order 2520) leaves 2520 distinct ints, not 5.7M.
The identity is the row whose column-0 entry is 0, and the inverse of
g the column of the identity in row g; `FiniteGroup._proved` says when
numpy reads them.  The array is not kept.

Every product numbers its elements by one mixed-radix coding, `_digits`,
kept as `weights` and `coords` (a wreath product codes its base
functions so, with the top element as the leading digit); its `encode`,
`decode` and maps, and the operators of `constructions`, read those
arrays.

`from_cayley_table`, the products and permutation closures refuse,
with OrderCapExceeded and before allocating a table, any group above
`order_cap()` (2048, or the RBG_ORDER_CAP environment variable), and
`DirectProduct` refuses more factors than that limit.  Every other
proved table is no larger than a group that has passed the limit, so no
other function checks the order.  `direct_power` memoizes G^n on G and
checks the limit on every call, before it reads the memo; for |G| >= 2
the memoized tables hold at most 4/3 of the largest one.

How the axioms are decided.  `_validate_table` runs its checks in a
fixed order: ragged rows and out-of-range entries, every row a
permutation, every column a permutation, a two-sided identity,
associativity, two-sided inverses.  An outside table is read row by row
with int() for the first two; an integer array is checked as it is.
The Latin, associativity and inverse checks are array operations on the
n x n table.  Once the table is Latin, O(n) reads settle the identity.
Associativity is decided exactly by Light's test (Clifford and Preston,
The Algebraic Theory of Semigroups I, 1.2): it compares (x*s)*y with
x*(s*y) over all x, y for each s of a generating set chosen greedily
from the table, at most ceil(log2 n) of them, so it costs O(n^2 log n)
rather than the O(n^3) of a scan over all triples.  That scan
(`_check_associative`) runs only on a table Light's test has rejected,
to name the lexicographically first failing triple.
`GroupMap.hom_defect` checks a homomorphism on all pairs in one gather.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ActionNotHomomorphism,
    InvalidInput,
    NoIdentity,
    NotAssociative,
    NotHomomorphism,
    NotLatinSquare,
    NotNormal,
    OrderCapExceeded,
    SchemaViolation,
)

DEFAULT_ORDER_CAP = 2048

__all__ = [
    "DEFAULT_ORDER_CAP",
    "order_cap",
    "FiniteGroup",
    "GroupMap",
    "Subgroup",
    "PackedSubgroup",
    "DirectProduct",
    "SemidirectProduct",
    "WreathProduct",
    "from_cayley_table",
    "from_permutations",
    "opposite_group",
    "direct_product",
    "direct_power",
    "semidirect_product",
    "wreath_product",
    "subgroup_generated",
    "all_subgroups",
    "center",
    "is_normal",
    "normal_closure",
    "commutator_subgroup",
    "lower_central_series",
    "quotient",
    "is_simple",
    "automorphisms",
    "isomorphisms_all",
    "is_isomorphic",
    "all_homomorphisms",
    "fixed_point_free",
    "exact_factorizations",
]


# ---------------------------------------------------------------------------
# the order limit


def order_cap() -> int:
    """The largest group order the library builds: DEFAULT_ORDER_CAP, or
    the RBG_ORDER_CAP environment variable when it is set."""
    raw = os.environ.get("RBG_ORDER_CAP")
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SchemaViolation("RBG_ORDER_CAP", f"not an integer: {raw!r}")
    if cap < 1:
        raise SchemaViolation("RBG_ORDER_CAP", "cap must be positive")
    return cap


def _require_order(n: int, what: str) -> None:
    """Refuse a group of order n above `order_cap()`, naming it as `what`.

    `from_cayley_table`, `from_permutations` and the product constructors
    call this before they allocate anything of size n; every other group
    is no larger than one of theirs, so a group that exists has passed
    the limit.
    """
    cap = order_cap()
    if n > cap:
        raise OrderCapExceeded(f"{what} exceeds cap {cap}")


# ---------------------------------------------------------------------------
# table validation


def _table_rows(table) -> tuple[list[list[int]], np.ndarray]:
    """The table as rows of ints and as an n x n integer array, after the
    ragged-row and range checks.  An integer ndarray is checked as it is;
    any other table is read row by row with int()."""
    n = len(table)
    if n == 0:
        raise NotLatinSquare("empty table")
    if isinstance(table, np.ndarray) and table.ndim == 2 and table.dtype.kind in "iu":
        if table.shape[1] != n:
            raise NotLatinSquare(f"row 0 has length {table.shape[1]}, expected {n}")
        if table.min() < 0 or table.max() >= n:
            i, j = divmod(int(((table < 0) | (table >= n)).argmax()), n)
            raise NotLatinSquare(f"row {i} contains out-of-range entry {table[i, j]}")
        return table.tolist(), table
    rows = []
    for i, row in enumerate(table):
        row = list(map(int, row))
        if len(row) != n:
            raise NotLatinSquare(f"row {i} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            x = next(x for x in row if not 0 <= x < n)
            raise NotLatinSquare(f"row {i} contains out-of-range entry {x}")
        rows.append(row)
    return rows, np.array(rows, dtype=np.int32)


def _validate_table(table) -> np.ndarray:
    """Check the group axioms on a raw table; return it as an n x n
    integer array."""
    rows, t = _table_rows(table)
    n = len(rows)
    # where[0, i, v] is the column of v in row i, where[1, j, v] the row
    # of v in column j, and -1 where the row or column lacks v
    idx = np.arange(n)
    where = np.full((2, n, n), -1, dtype=np.int32)
    where[0, idx[:, None], t] = idx
    where[1, idx, t] = idx[:, None]
    latin = (where >= 0).all(axis=2)
    if not latin.all():
        which, i = divmod(int(latin.argmin()), n)
        kind = ("row", "column")[which]
        raise NotLatinSquare(f"{kind} {i} is not a permutation of 0..{n - 1}")

    # column 0 is a permutation, so only one row e has e*0 = 0, and only
    # that row can be the identity's: O(n) reads decide the identity
    identity = [row[0] for row in rows].index(0)
    full = list(range(n))
    if rows[identity] != full or [row[identity] for row in rows] != full:
        raise NoIdentity("no two-sided identity element")

    _check_light(rows, t, identity)

    # g*x = e for x = where[0, g, e], and y*g = e for y = where[1, g, e]
    one_sided = where[0, :, identity] != where[1, :, identity]
    if one_sided.any():
        raise NotAssociative(f"one-sided inverse at element {int(one_sided.argmax())}")
    return t


def _check_light(rows: list[list[int]], t: np.ndarray, identity: int) -> None:
    """Decide associativity of a Latin table with identity by Light's test;
    `rows` and `t` are the same table as lists and as an array.

    Let A be the set of elements a with (xa)y = x(ay) for all x, y.  A
    holds the identity and is closed under the product: for a, b in A,
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  The test
    checks that every generator s of `_greedy_generators` is in A,
    comparing the arrays t[t[:, s]] and t[:, t[s]], whose cells are
    (x*s)*y and x*(s*y) over all x, y.  Then A holds every left-normed
    word in the generators, and those words are exactly what closing
    the identity under right multiplication reaches: every element.  So
    A is everything and the table is associative.

    While the generators pass, the words reached are closed under the
    product and associative, so they form a group, and each further
    generator lies outside it and at least doubles it.  At most
    ceil(log2 n) generators are checked, each in O(n^2): O(n^2 log n) in
    all, on any table.  On the first failing generator the full scan
    names the first failing triple.
    """
    for s in _greedy_generators(rows, identity):
        if not (t[t[:, s]] == t[:, t[s]]).all():
            _check_associative(t)


def _check_associative(t: np.ndarray) -> None:
    """Scan every triple; raise NotAssociative naming the lexicographically
    first (a, b, c) with (a*b)*c != a*(b*c)."""
    for a in range(len(t)):
        lhs = t[t[a]]
        rhs = t[a][t]
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0].tolist()
            raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")


# the largest order whose ids CPython's small-int cache holds, and the
# cells `_id_rows` gathers at a time, which bound its object array
_SHARED_IDS = 256
_ROW_CELLS = 1 << 14
# `_proved` reads the identity and inverses of larger arrays by numpy
_NUMPY_READS = 24


def _id_rows(t: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The rows of an n x n array of ids as tuples, with one int object
    per id: above order 256 through an object array of range(n)."""
    n = len(t)
    if n <= _SHARED_IDS:
        return tuple(map(tuple, t.tolist()))
    ids = np.array(range(n), dtype=object)
    step = max(1, _ROW_CELLS // n)
    rows: list[tuple[int, ...]] = []
    for a in range(0, n, step):
        rows.extend(map(tuple, ids[t[a:a + step]].tolist()))
    return tuple(rows)


class FiniteGroup:
    """A finite group on elements 0..order-1 with a dense product table.

    Instances are immutable after construction and safe to share.  Build
    them with `from_cayley_table`, `from_permutations` or one of the
    product constructors.  Each of these, and every other table the
    library makes, ends in `_proved`, the one constructor: a table from
    outside reaches it only after `from_cayley_table` has validated it.
    """

    __slots__ = (
        "order",
        "table",
        "identity",
        "inverses",
        "name",
        "labels",
        "_np",
        "_orders",
        "_abelian",
        "_center",
        "_derived",
        "_powers",
    )

    @classmethod
    def _proved(cls, table, name: str = "",
                labels: Optional[Sequence[str]] = None) -> "FiniteGroup":
        """A table proved a group by a theorem, a closure or
        `from_cayley_table`'s checks, as rows or an integer array.  Nothing
        is checked: the identity is the one row e with e*0 = 0, and the
        inverse of g is the column of e in row g.

        Rows are read once, by `_id_rows`.  The identity and inverses of an
        array above order 24 are read by numpy: the argmin of column 0, and
        per row the argmax of table == e, taken from row e so that the
        inverses share its int objects.  Smaller arrays and list rows take
        the Python scans.  The two reads alone, best of 15: Z2 0.6 us by
        Python against 2.1 us by numpy, S3 0.9 against 2.3, S4 (order 24)
        3.7 against 3.5, A5 17.5 against 6.6, S3^3 (216) 189 against 29.
        The array is not kept as the `np_table()` cache: most proved tables
        never need it, and a caller holding many groups would hold both
        forms.
        """
        is_array = isinstance(table, np.ndarray)
        rows = _id_rows(table) if is_array else tuple(map(tuple, table))
        if is_array and len(rows) > _NUMPY_READS:
            e = int(table[:, 0].argmin())
            inverses = tuple(map(rows[e].__getitem__,
                                 (table == e).argmax(axis=1).tolist()))
        else:
            e = [row[0] for row in rows].index(0)
            inverses = tuple([row.index(e) for row in rows])
        out = cls.__new__(cls)
        out.table = rows
        out.order = len(rows)
        out.identity = e
        out.inverses = inverses
        out.name = name
        out.labels = tuple(labels) if labels is not None else None
        out._np = None
        out._orders = None
        out._abelian = None
        out._center = None
        out._derived = None
        out._powers = None
        return out

    def __repr__(self):
        tag = self.name or "unnamed"
        return f"FiniteGroup({tag}, order={self.order})"

    def elements(self) -> range:
        return range(self.order)

    def check_elements(self, elems: Iterable[int]) -> None:
        """Refuse any element id outside 0..order-1 with InvalidInput."""
        for x in elems:
            if not 0 <= x < self.order:
                raise InvalidInput(f"element {x} out of range for order {self.order}")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, g: int, by: int) -> int:
        """Return by * g * by^-1."""
        t = self.table
        return t[t[by][g]][self.inverses[by]]

    def comm(self, a: int, b: int) -> int:
        """Return the commutator a^-1 b^-1 a b."""
        t = self.table
        return t[t[t[self.inverses[a]][self.inverses[b]]][a]][b]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverses[a], -k
        acc = self.identity
        row = a
        while k:
            if k & 1:
                acc = self.table[acc][row]
            row = self.table[row][row]
            k >>= 1
        return acc

    def prod(self, elems: Iterable[int]) -> int:
        acc = self.identity
        for x in elems:
            acc = self.table[acc][x]
        return acc

    def element_order(self, a: int) -> int:
        return self.element_orders()[a]

    def element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            out = []
            for a in range(self.order):
                k, x = 1, a
                while x != self.identity:
                    x = self.table[x][a]
                    k += 1
                out.append(k)
            self._orders = tuple(out)
        return self._orders

    def order_profile(self) -> tuple[int, ...]:
        return tuple(sorted(self.element_orders()))

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            t = self.table
            self._abelian = all(
                t[a][b] == t[b][a]
                for a in range(self.order)
                for b in range(a + 1, self.order)
            )
        return self._abelian

    def np_table(self) -> np.ndarray:
        if self._np is None:
            self._np = np.array(self.table, dtype=np.int32)
        return self._np

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return str(a)


def from_cayley_table(
    table: Sequence[Sequence[int]],
    name: str = "",
    labels: Optional[Sequence[str]] = None,
) -> FiniteGroup:
    """Build a group from a full multiplication table, validating the axioms.

    The table is a sequence of rows, or an n x n integer ndarray."""
    _require_order(len(table), f"order {len(table)}")
    return FiniteGroup._proved(_validate_table(table), name=name, labels=labels)


def _perm_cycles(p: Sequence[int]) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def from_permutations(gens: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    """Close a set of permutations under composition and build the group.

    Permutations are tuples p with p[i] = image of i; composition applies
    the right factor first.  Elements are ordered by breadth-first
    discovery from the identity, so the ordering is deterministic in the
    generator order.  The generators are checked; their closure under
    composition is a group, built unchecked.
    """
    if not gens:
        raise InvalidInput("need at least one permutation")
    k = len(gens[0])
    gtuples = []
    for idx, p in enumerate(gens):
        p = tuple(int(x) for x in p)
        if len(p) != k or sorted(p) != list(range(k)):
            raise InvalidInput(f"generator {idx} is not a permutation of 0..{k - 1}")
        gtuples.append(p)

    # breadth first: right[j][i] is the id of elems[i] * gens[j], and
    # elems[c] is first reached as elems[a] * gens[j], parent[c] = (a, j)
    index = {tuple(range(k)): 0}
    elems = list(index)
    right: list[list[int]] = [[] for _ in gtuples]
    parent = [None]
    for i, p in enumerate(elems):
        for j, g in enumerate(gtuples):
            q = tuple(p[x] for x in g)
            c = index.get(q)
            if c is None:
                _require_order(len(elems) + 1, "permutation closure")
                c = index[q] = len(elems)
                elems.append(q)
                parent.append((i, j))
            right[j].append(c)

    # column c is column a times gens[j], built here as row c of cols
    n = len(elems)
    R = np.array(right, dtype=np.int32)
    cols = np.empty((n, n), dtype=np.int32)
    cols[0] = np.arange(n)
    for c, (a, j) in enumerate(parent[1:], 1):
        cols[c] = R[j][cols[a]]
    labels = [_perm_cycles(p) for p in elems]
    return FiniteGroup._proved(cols.T, name=name, labels=labels)


def opposite_group(G: FiniteGroup) -> FiniteGroup:
    """The same elements with the reversed product a*b := G.mul(b, a): the
    transposed table."""
    return FiniteGroup._proved(G.np_table().T, name=f"{G.name}^op" if G.name else "",
                               labels=G.labels)


# ---------------------------------------------------------------------------
# maps between groups


@dataclass(frozen=True, eq=False)
class GroupMap:
    """A total map between two groups, with optional verified flags."""

    domain: FiniteGroup
    codomain: FiniteGroup
    images: tuple[int, ...]
    homomorphism: bool = False
    bijective: bool = False

    def __post_init__(self):
        if len(self.images) != self.domain.order:
            raise InvalidInput("image list length does not match the domain")
        self.codomain.check_elements(self.images)

    @classmethod
    def _proved(cls, domain: FiniteGroup, codomain: FiniteGroup,
                images: tuple[int, ...], bijective: bool) -> "GroupMap":
        """A homomorphism proved by a theorem or a search, its images read
        off the tables of `codomain`: no range check."""
        out = object.__new__(cls)
        out.__dict__.update(domain=domain, codomain=codomain, images=images,
                            homomorphism=True, bijective=bijective)
        return out

    def __call__(self, g: int) -> int:
        return self.images[g]

    def __eq__(self, other):
        return (
            isinstance(other, GroupMap)
            and self.domain is other.domain
            and self.codomain is other.codomain
            and self.images == other.images
        )

    def __hash__(self):
        return hash((id(self.domain), id(self.codomain), self.images))

    @staticmethod
    def plain(domain: FiniteGroup, codomain: FiniteGroup,
              images: Sequence[int]) -> "GroupMap":
        return GroupMap(domain, codomain, tuple(images))

    @staticmethod
    def hom(domain: FiniteGroup, codomain: FiniteGroup,
            images: Sequence[int]) -> "GroupMap":
        """Build a map and verify it is a homomorphism."""
        return _checked_hom(domain, codomain, images)

    @staticmethod
    def automorphism(G: FiniteGroup, images: Sequence[int]) -> "GroupMap":
        m = GroupMap.hom(G, G, images)
        if not m.bijective:
            raise InvalidInput("homomorphism is not bijective")
        return m

    def hom_defect(self) -> Optional[tuple[int, int]]:
        """First pair in row-major order where f(ab) != f(a)f(b), or None,
        from one gather over the two tables as arrays."""
        fs = np.array(self.images, dtype=np.int32)
        bad = fs[self.domain.np_table()] != self.codomain.np_table()[fs[:, None], fs]
        if not bad.any():
            return None
        a, b = divmod(int(bad.argmax()), len(fs))
        return a, b

    def compose(self, other: "GroupMap") -> "GroupMap":
        """self after other (apply `other` first)."""
        if other.codomain is not self.domain:
            raise InvalidInput("composition domains do not line up")
        images = tuple(self.images[other.images[g]] for g in other.domain.elements())
        return GroupMap(
            other.domain,
            self.codomain,
            images,
            homomorphism=self.homomorphism and other.homomorphism,
            bijective=self.bijective and other.bijective,
        )

    def inverse(self) -> "GroupMap":
        if not self.bijective:
            raise InvalidInput("only bijective maps can be inverted")
        inv = [0] * self.codomain.order
        for g, fg in enumerate(self.images):
            inv[fg] = g
        return GroupMap(self.codomain, self.domain, tuple(inv),
                        homomorphism=self.homomorphism, bijective=True)


def _checked_hom(domain: FiniteGroup, codomain: FiniteGroup,
                 images: Sequence[int]) -> GroupMap:
    """`GroupMap.hom`: the map, checked on all pairs."""
    m = GroupMap(domain, codomain, tuple(images))
    w = m.hom_defect()
    if w is not None:
        a, b = w
        raise NotHomomorphism(f"not a homomorphism at pair ({a}, {b})")
    bij = len(set(m.images)) == codomain.order and domain.order == codomain.order
    return GroupMap(domain, codomain, m.images, homomorphism=True, bijective=bij)


def fixed_point_free(phi: GroupMap) -> bool:
    """True when an automorphism fixes only the identity."""
    if phi.domain is not phi.codomain:
        raise InvalidInput("fixed points need an endomap")
    e = phi.domain.identity
    return all(phi.images[g] != g for g in phi.domain.elements() if g != e)


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True, eq=False)
class PackedSubgroup:
    """A subgroup repacked as a standalone group, with id translations."""

    group: FiniteGroup
    to_parent: tuple[int, ...]
    from_parent: dict


class Subgroup:
    """A subgroup of a parent group, stored as sorted element ids.  The
    constructor checks elements from outside in full; `_proved` builds
    what a closure or a theorem proves, unchecked."""

    __slots__ = ("parent", "elements", "_set", "_packed")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int]):
        elems = tuple(sorted(set(int(x) for x in elements)))
        parent.check_elements(elems)
        eset = frozenset(elems)
        if parent.identity not in eset:
            raise InvalidInput("subgroup must contain the identity")
        for a in elems:
            if parent.inverses[a] not in eset:
                raise InvalidInput(f"subgroup not closed under inverse at {a}")
            row = parent.table[a]
            for b in elems:
                if row[b] not in eset:
                    raise InvalidInput(f"subgroup not closed at ({a}, {b})")
        self.parent = parent
        self.elements = elems
        self._set = eset
        self._packed = None

    @classmethod
    def _proved(cls, parent: FiniteGroup, elements: Iterable[int]) -> "Subgroup":
        """A subgroup proved by a closure or a theorem, its distinct ids
        read off the tables of `parent`: no coercion and no check."""
        out = cls.__new__(cls)
        out.parent = parent
        out.elements = tuple(sorted(elements))
        out._set = frozenset(out.elements)
        out._packed = None
        return out

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in self._set

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __repr__(self):
        return f"Subgroup(order={self.order}, elements={self.elements})"

    def as_set(self) -> frozenset[int]:
        return self._set

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def as_group(self) -> PackedSubgroup:
        """Repack as a standalone FiniteGroup on 0..order-1."""
        if self._packed is None:
            to_parent = self.elements
            from_parent = {g: i for i, g in enumerate(to_parent)}
            ids = np.array(to_parent)
            table = np.searchsorted(ids, self.parent.np_table()[np.ix_(ids, ids)])
            grp = FiniteGroup._proved(
                table, labels=[self.parent.label(g) for g in to_parent])
            self._packed = PackedSubgroup(grp, to_parent, from_parent)
        return self._packed


def subgroup_generated(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """The smallest subgroup containing the given elements."""
    gens = tuple(gens)
    G.check_elements(gens)
    return Subgroup._proved(G, _closure(G.table, G.identity, gens))


def _closure(table: Sequence[Sequence[int]], identity: int,
             gens: Sequence[int]) -> frozenset[int]:
    """Everything reached from the identity by right multiplication by gens."""
    known = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in known:
                    known.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(known)


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, sorted by (order, element tuple).

    A sweep by conjugacy classes.  One generator is kept per cyclic
    subgroup.  A queue holds one representative R of each class found,
    starting from the trivial subgroup, and R is joined with every cyclic
    subgroup not in R, closing from R's generators and the cyclic one's.
    A join not seen before is a new class: all its conjugates go into
    `seen` and it joins the queue as the class's representative.

    Why the sweep is complete.  Every subgroup K above the trivial one is
    <K', c> for a proper subgroup K' (a maximal one) and any c in K
    outside K'.  Suppose K' is seen, so K' = R^x = x^-1 R x for a
    representative R.  Conjugation by x^-1 is an automorphism, so
    <R, c^(x^-1)> = K^(x^-1) with c^(x^-1) = x c x^-1 outside R; the
    cyclic subgroup it generates is joined with R, so K^(x^-1) is seen,
    and with it its whole class, K included.  By induction on the order,
    every subgroup is seen; perfect subgroups are found too, which a
    cyclic-extension-only sweep would miss.
    """
    t, e, inv = G.table, G.identity, G.inverses
    cyclic: dict[frozenset[int], int] = {}
    for g in G.elements():
        cyclic.setdefault(_closure(t, e, (g,)), g)
    seen: set[frozenset[int]] = set()
    queue: list[tuple[frozenset[int], tuple[int, ...]]] = []

    def add_class(elems: frozenset[int], gens: tuple[int, ...]) -> None:
        # x K x^-1 depends only on the coset xK: one conjugation per coset
        covered: set[int] = set()
        for x in G.elements():
            if x not in covered:
                row, xi = t[x], inv[x]
                covered.update(row[k] for k in elems)
                seen.add(frozenset(t[row[k]][xi] for k in elems))
        queue.append((elems, gens))

    add_class(frozenset({e}), ())
    i = 0
    while i < len(queue):
        elems, gens = queue[i]
        i += 1
        for c in cyclic.values():
            if c not in elems:
                bigger = _closure(t, e, gens + (c,))
                if bigger not in seen:
                    add_class(bigger, gens + (c,))

    subs = [Subgroup._proved(G, elems) for elems in seen]
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


def center(G: FiniteGroup) -> Subgroup:
    if G._center is None:
        t = G.np_table()
        G._center = Subgroup._proved(G, np.flatnonzero((t == t.T).all(axis=1)).tolist())
    return G._center


def is_normal(S: Subgroup) -> bool:
    """Whether G normalizes S: N_G(S) is all of G."""
    G = S.parent
    return len(_normalizer(G.np_table(), G.inverses, S.elements)) == G.order


def _normalizer(t: np.ndarray, inverses: Sequence[int],
                elements: Sequence[int]) -> frozenset[int]:
    """N(S), the ids x with x S x^-1 = S, in the group with table t and the
    given inverses, for the subgroup S with the given elements: one gather
    of every x s x^-1.  A finite S is normal in K exactly when K <= N(S)."""
    ids = np.array(elements)
    inside = np.zeros(len(t), dtype=bool)
    inside[ids] = True
    keeps = inside[t[t[:, ids], np.array(inverses)[:, None]]].all(axis=1)
    return frozenset(np.flatnonzero(keeps).tolist())


def _require_subgroups_of(G: FiniteGroup, subs: Iterable[Subgroup]) -> None:
    """Refuse, with InvalidInput, any subgroup whose parent is not G."""
    if any(S.parent is not G for S in subs):
        raise InvalidInput("subgroup belongs to a different group")


def normal_closure(G: FiniteGroup, g: int) -> Subgroup:
    """Smallest normal subgroup containing g: generated by its conjugacy class."""
    G.check_elements((g,))
    cls = sorted({G.conj(g, x) for x in G.elements()})
    return subgroup_generated(G, cls)


def commutator_subgroup(G: FiniteGroup, A: Optional[Subgroup] = None,
                        B: Optional[Subgroup] = None) -> Subgroup:
    """Subgroup generated by all commutators [a, b], a in A, b in B."""
    _require_subgroups_of(G, (S for S in (A, B) if S is not None))
    a_elems = A.elements if A is not None else tuple(G.elements())
    b_elems = B.elements if B is not None else tuple(G.elements())
    gens = sorted({G.comm(a, b) for a in a_elems for b in b_elems})
    return subgroup_generated(G, gens)


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    if G._derived is None:
        G._derived = commutator_subgroup(G)
    return G._derived


def lower_central_series(G: FiniteGroup) -> list[Subgroup]:
    """The chain G = G_1 >= G_2 >= ... with G_{k+1} = [G, G_k], cut at the
    first repeated term.  Nilpotent groups end at the trivial subgroup."""
    whole = Subgroup._proved(G, G.elements())
    chain = [whole]
    while True:
        nxt = commutator_subgroup(G, whole, chain[-1])
        if nxt.elements == chain[-1].elements:
            return chain
        chain.append(nxt)


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupMap]:
    """The quotient G/N with its projection; N must be normal.  The
    quotient is a group and the projection a homomorphism by
    construction, so neither is checked."""
    _require_subgroups_of(G, (N,))
    if not is_normal(N):
        raise NotNormal(f"subgroup {N.elements} is not normal")
    Q, coset = _coset_quotient(G, G.elements(), N, f"{G.name}/N" if G.name else "")
    return Q, GroupMap._proved(G, Q, tuple(coset.values()), N.order == 1)


def _coset_quotient(G: FiniteGroup, elements: Iterable[int], N: Subgroup,
                    name: str = "") -> tuple[FiniteGroup, dict[int, int]]:
    """S/N in G's ids, for the subgroup S of G with the given elements and
    a normal subgroup N of S, which the caller ensures: Q and the coset map
    {s: coset id}, cosets numbered in the order of their least elements."""
    t = G.table
    key = {s: min(t[s][u] for u in N.elements) for s in elements}
    rank = {r: i for i, r in enumerate(sorted(set(key.values())))}
    coset = {s: rank[r] for s, r in key.items()}
    table = [[coset[t[a][b]] for b in rank] for a in rank]
    return FiniteGroup._proved(table, name=name), coset


def is_simple(G: FiniteGroup) -> bool:
    """True when G is nontrivial and has no proper nontrivial normal subgroup."""
    if G.order == 1:
        return False
    # the normal closure of g depends only on g's class: one per class
    seen = {G.identity}
    for g in G.elements():
        if g not in seen:
            if normal_closure(G, g).order != G.order:
                return False
            seen.update(G.conj(g, x) for x in G.elements())
    return True


# ---------------------------------------------------------------------------
# products


def _digits(orders: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(weights, coords) of the mixed-radix numbering over the given
    orders, first digit most significant: x = sum_i weights[i] coords[i, x]
    with 0 <= coords[i, x] < orders[i].  Every product codes its elements
    so.  Digits are taken by arithmetic: numpy's (un)ravel_index refuses more
    than 64 of them, which a product of trivial factors may have."""
    weights = np.ones(len(orders), dtype=np.int64)
    for i in range(len(orders) - 2, -1, -1):
        weights[i] = weights[i + 1] * orders[i + 1]
    coords = np.arange(math.prod(orders))[None, :] // weights[:, None]
    coords %= np.array(orders, dtype=np.int64)[:, None]
    weights.flags.writeable = coords.flags.writeable = False  # shared through memos
    return weights, coords


def _require_product(orders: Sequence[int]) -> None:
    """The limit on a product: first on the count of factors, since each
    costs a coordinate per element, then on the running order."""
    _require_order(len(orders), f"a product of {len(orders)} factors")
    for total in itertools.accumulate(orders, lambda a, b: a * b):
        _require_order(total, "product order")


def _product_table(tables: Sequence[np.ndarray]) -> np.ndarray:
    """The direct product of the factor tables, numbered as `_digits`."""
    out = np.zeros((1, 1), dtype=np.int32)
    for t in tables:
        n, m = len(out), len(t)
        out = (out[:, None, :, None] * m + t[None, :, None, :]).reshape(n * m, n * m)
    return out


class DirectProduct:
    """A direct product with componentwise coding and the canonical maps.

    `coords[i, x]` is the component in factor i of element x and
    `weights[i]` the place value of that component, so x is
    `weights @ coords[:, x]`; `encode` and `decode` read the same arrays
    one element at a time, and so are both maps.
    """

    def __init__(self, factors: Sequence[FiniteGroup], name: str = ""):
        orders = [F.order for F in factors]
        _require_product(orders)
        self.factors = tuple(factors)
        self.weights, self.coords = _digits(orders)
        table = _product_table([F.np_table() for F in factors])
        if not name and all(F.name for F in factors):
            name = "x".join(F.name for F in factors)
        self.group = FiniteGroup._proved(table, name=name)
        # homomorphisms by construction, bijective iff the other factors are
        # trivial; injection i moves the identity by g - e_i in place i
        P = self.group
        self.injections = tuple(
            GroupMap._proved(F, P, tuple((P.identity + w * (np.arange(F.order) - F.identity))
                                         .tolist()), F.order == P.order)
            for F, w in zip(self.factors, self.weights))
        self.projections = tuple(
            GroupMap._proved(P, F, tuple(c), F.order == P.order)
            for F, c in zip(self.factors, self.coords.tolist()))

    def encode(self, parts: Sequence[int]) -> int:
        return int(self.weights @ np.array(parts))

    def decode(self, x: int) -> tuple[int, ...]:
        return tuple(self.coords[:, x].tolist())


def direct_product(G: FiniteGroup, H: FiniteGroup) -> DirectProduct:
    return DirectProduct((G, H))


def direct_power(G: FiniteGroup, n: int) -> DirectProduct:
    """G^n, built once per (G, n) and memoized on G; the limit is checked
    on every call, before the memo is read."""
    if n < 1:
        raise InvalidInput("direct power needs n >= 1")
    _require_product([G.order] * n)
    if G._powers is None:
        G._powers = {}
    if n not in G._powers:
        G._powers[n] = DirectProduct((G,) * n, name=f"{G.name}^{n}" if G.name else "")
    return G._powers[n]


class SemidirectProduct:
    """H x| L for an action of L on H by automorphisms.

    Elements are pairs (h, l) with product (h1, l1)(h2, l2) =
    (h1 * act(l1)(h2), l1 l2); H embeds as a normal subgroup.  (h, l) is
    numbered by `_digits` over (|H|, |L|), kept as `weights` and `coords`.
    """

    def __init__(self, H: FiniteGroup, L: FiniteGroup,
                 action: Sequence[Sequence[int]], name: str = ""):
        total = H.order * L.order
        _require_order(total, "product order")
        if len(action) != L.order:
            raise ActionNotHomomorphism("need one automorphism per acting element")
        auts = []
        for l, images in enumerate(action):
            try:
                auts.append(GroupMap.automorphism(H, images))
            except (InvalidInput, NotHomomorphism) as exc:
                raise ActionNotHomomorphism(
                    f"action of element {l} is not an automorphism: {exc}"
                ) from exc
        # act(l1 l2) = act(l1) act(l2): one gather per side over all pairs
        acts = np.array([a.images for a in auts])
        bad = (acts[L.np_table()] != acts[:, acts]).any(axis=2)
        if bad.any():
            l1, l2 = divmod(int(bad.argmax()), L.order)
            raise ActionNotHomomorphism(f"action is not multiplicative at ({l1}, {l2})")
        self.H, self.L = H, L
        self.action = tuple(auts)
        self.weights, self.coords = _digits([H.order, L.order])
        # hpart[h1, l1, h2] = h1 * act(l1)(h2); cell ((h1, l1), (h2, l2))
        hpart = H.np_table()[:, acts]
        table = hpart[:, :, :, None] * L.order + L.np_table()[None, :, None, :]
        self.group = FiniteGroup._proved(table.reshape(total, total), name=name)

    def encode(self, h: int, l: int) -> int:
        return int(self.weights @ np.array((h, l)))

    def decode(self, x: int) -> tuple[int, int]:
        return tuple(self.coords[:, x].tolist())


def semidirect_product(H: FiniteGroup, L: FiniteGroup,
                       action: Sequence[Sequence[int]],
                       name: str = "") -> SemidirectProduct:
    return SemidirectProduct(H, L, action, name=name)


class WreathProduct:
    """H wr L: pairs (l, f) with f: L -> H, product twisting f by translation.

    The product is (l, f)(l', f') = (l l', x -> f(l' x) * f'(x)), so the
    base group of functions is normal and L permutes it by left shifts.
    The functions are numbered by `_digits` over |H| once per point of L,
    as `direct_power(H, |L|)` numbers its elements, and kept as `weights`
    and `coords`: the function numbered i has f(y) = `coords[y, i]`.
    (l, f) is l * base_size + i.  Only the base_size columns of the
    functions are kept: for a trivial H, coordinates of every element
    would take |L| + 1 cells per element, 32 MB at |L| = 2048.
    """

    def __init__(self, H: FiniteGroup, L: FiniteGroup, name: str = ""):
        base = H.order ** L.order
        total = base * L.order
        _require_order(total, f"wreath product order {total}")
        self.H, self.L = H, L
        self.base_size = base
        self.weights, self.coords = _digits([H.order] * L.order)
        # shifted[i, l'] numbers x -> f(l' x) for the function f numbered i,
        # so the base part of (l, f)(l', f') is base_table[shifted, f'].
        LT = L.np_table()
        shifted = self.coords.T[:, LT] @ self.weights
        base_table = _product_table([H.np_table()] * L.order)
        table = LT[:, None, :, None] * base + base_table[shifted][None]
        self.group = FiniteGroup._proved(table.reshape(total, total), name=name)

    def encode(self, l: int, f: Sequence[int]) -> int:
        return l * self.base_size + int(self.weights @ np.array(f))

    def decode(self, x: int) -> tuple[int, tuple[int, ...]]:
        l, i = divmod(x, self.base_size)
        return l, tuple(self.coords[:, i].tolist())


def wreath_product(H: FiniteGroup, L: FiniteGroup, name: str = "") -> WreathProduct:
    return WreathProduct(H, L, name=name)


# ---------------------------------------------------------------------------
# homomorphism search


def generating_sequence(G: FiniteGroup) -> tuple[int, ...]:
    """A short generating sequence found by a greedy sweep in id order."""
    return tuple(_greedy_generators(G.table, G.identity))


def _greedy_generators(table: Sequence[Sequence[int]], identity: int) -> Iterator[int]:
    """Yield, in id order, each element not reached from the identity by
    right multiplication by the ones yielded before, until all are reached.

    Reads only the table, so it also serves a table not yet known to be
    associative (`_check_light`); the closure is taken after each yield.
    """
    gens: list[int] = []
    have = {identity}
    for g in range(len(table)):
        if g not in have:
            gens.append(g)
            yield g
            have = _closure(table, identity, gens)
            if len(have) == len(table):
                return


# The search goes level by level.  Level k stands for the subgroup
# S_k = <g_1..g_k> of `generating_sequence(G)`, and a row at level k holds
# the images of S_k's elements under one homomorphism S_k -> H, in the
# columns `_level_plans` gives them.  A level's plan depends on G alone:
# the elements of S_k outside S_(k-1) in BFS layers from S_(k-1), each
# reached from a parent x as x g_j, and every other edge (x, j, x g_j)
# not checked at an earlier level.  `_level_rows` pairs each surviving
# row of level k-1 with each candidate image of g_k, a chunk at a time,
# and `_level_step` fills a layer with one gather f(x g_j) = f(x) f(g_j)
# and keeps the rows on which every edge holds.  Those are exactly the
# homomorphisms on S_k extending the rows: a map that respects
# x -> x g_j for every x in S_k and every generator is multiplicative on
# S_k.  A bijective search also drops a row that sends a new element to
# the identity, since a homomorphism is injective exactly when its
# kernel is trivial.  Rows stay in lexicographic order of the generator
# images, so the first survivor of the last level is the least such map.

# the rows of one step are cut into chunks of about this many edge cells
_CHUNK_CELLS = 1 << 14


@dataclass(frozen=True)
class _Level:
    """How level k extends a row from S_(k-1) to S_k."""

    start: int     # |S_(k-1)|, which is also the column of g_k
    size: int      # |S_k|
    layers: tuple[tuple[np.ndarray, np.ndarray, int], ...]  # x, column of g_j, end
    check: tuple[np.ndarray, np.ndarray, np.ndarray]        # x, column of g_j, x g_j
    edges: int     # tree and checked edges: the cells one row costs


def _level_plans(G: FiniteGroup, gens: Sequence[int]) -> tuple[list[_Level], list[int]]:
    """The plan of each level, and the column of each element of G."""
    t = G.table
    col = {G.identity: 0}
    order = [G.identity]
    gen_cols: list[int] = []
    plans = []
    for k in range(len(gens)):
        start = len(order)
        gen_cols.append(start)   # the first new element is e g_k
        frontier, steps = order[:], (k,)
        layers, checks = [], []
        while frontier:
            first, tree = len(order), []
            for x in frontier:
                row = t[x]
                for j in steps:
                    y = row[gens[j]]
                    if y in col:
                        checks.append((col[x], gen_cols[j], col[y]))
                    else:
                        col[y] = len(order)
                        order.append(y)
                        tree.append((col[x], gen_cols[j]))
            if tree:
                xs, gs = np.array(tree, dtype=np.intp).T
                layers.append((xs, gs, len(order)))
            frontier, steps = order[first:], range(k + 1)
        check = np.array(checks, dtype=np.intp).reshape(-1, 3).T
        plans.append(_Level(start, len(order), tuple(layers), tuple(check),
                            len(order) - start + len(checks)))
    return plans, [col[x] for x in G.elements()]


def _level_step(level: _Level, H: FiniteGroup, rows: np.ndarray,
                images: np.ndarray, bijective: bool) -> np.ndarray:
    """Row i of `rows` (a map on S_(k-1)) with g_k -> images[i], extended
    to S_k, for each i whose extension is a homomorphism, in order."""
    h, e = H.order, H.identity
    ht = H.np_table().ravel()
    f = np.empty((len(rows), level.size), dtype=np.int32)
    f[:, :level.start] = rows
    f[:, level.start] = images
    a = level.start
    for xs, gs, b in level.layers:
        f[:, a:b] = ht[f[:, xs] * h + f[:, gs]]
        a = b
    xs, gs, ys = level.check
    ok = (ht[f[:, xs] * h + f[:, gs]] == f[:, ys]).all(axis=1)
    if bijective:
        ok &= (f[:, level.start:] != e).all(axis=1)
    return f[ok]


def _level_rows(levels: list[_Level], cands: list[np.ndarray], H: FiniteGroup,
                bijective: bool, k: int, rows: np.ndarray) -> Iterator[np.ndarray]:
    """The homomorphisms on G extending `rows` (maps on S_(k-1)), as
    nonempty blocks of rows in lexicographic order of the generator images."""
    if k == len(levels):
        yield rows
        return
    level, c = levels[k], cands[k]
    total = len(rows) * len(c)
    step = max(1, _CHUNK_CELLS // level.edges)
    for a in range(0, total, step):
        i = np.arange(a, min(a + step, total))
        out = _level_step(level, H, rows[i // len(c)], c[i % len(c)], bijective)
        if len(out):
            yield from _level_rows(levels, cands, H, bijective, k + 1, out)


def _hom_search(G: FiniteGroup, H: FiniteGroup, bijective: bool,
                first_only: bool) -> list[GroupMap]:
    gens = generating_sequence(G)
    levels, cols = _level_plans(G, gens)
    orders = np.array(H.element_orders())
    cands = []
    for g in gens:
        og = G.element_order(g)
        cands.append(np.flatnonzero(orders == og if bijective else og % orders == 0))
    blocks = _level_rows(levels, cands, H, bijective, 0,
                         np.full((1, 1), H.identity, dtype=np.int32))
    found = list(itertools.islice(blocks, 1) if first_only else blocks)
    if not found:
        return []
    images = np.concatenate(found)[:1 if first_only else None, cols]
    bij = ((images == H.identity).sum(axis=1) == 1) & (G.order == H.order)
    # H's identity row holds each id once: gathering from it, the maps
    # share the table's int objects instead of each making its own
    ids = np.array(H.table[H.identity], dtype=object)
    return [GroupMap._proved(G, H, imgs, b)
            for imgs, b in sorted(zip(map(tuple, ids[images].tolist()), bij.tolist()))]


def automorphisms(G: FiniteGroup) -> list[GroupMap]:
    """All automorphisms of G, sorted by image tuple."""
    return _hom_search(G, G, bijective=True, first_only=False)


def isomorphisms_all(G: FiniteGroup, H: FiniteGroup) -> list[GroupMap]:
    """All isomorphisms G -> H (empty when none exists)."""
    if not _may_be_isomorphic(G, H):
        return []
    return _hom_search(G, H, bijective=True, first_only=False)


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> Optional[GroupMap]:
    """The isomorphism G -> H whose images on `generating_sequence(G)` are
    lexicographically least, or None."""
    if not _may_be_isomorphic(G, H):
        return None
    maps = _hom_search(G, H, bijective=True, first_only=True)
    return maps[0] if maps else None


def _may_be_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    """False when a cheap invariant tells G and H apart.  Equal tables
    are isomorphic, and skip the invariants."""
    if G.table == H.table:
        return True
    return G.order == H.order and _iso_invariants(G) == _iso_invariants(H)


def _iso_invariants(G: FiniteGroup):
    der = derived_subgroup(G)
    return (
        G.order,
        G.order_profile(),
        G.is_abelian,
        center(G).order,
        der.order,
    )


def all_homomorphisms(G: FiniteGroup, H: FiniteGroup) -> list[GroupMap]:
    """Every homomorphism G -> H, sorted by image tuple."""
    return _hom_search(G, H, bijective=False, first_only=False)


# ---------------------------------------------------------------------------
# factorizations


def exact_factorizations(G: FiniteGroup) -> list[tuple[Subgroup, Subgroup]]:
    """All ordered subgroup pairs (H, L) with |H| |L| = |G| and H i L = {e}.

    For finite groups this forces HL = G with unique expression g = h l.
    """
    subs = all_subgroups(G)
    by_order: dict[int, list[Subgroup]] = {}
    for s in subs:
        by_order.setdefault(s.order, []).append(s)
    out = []
    e = G.identity
    for H in subs:  # |H| divides |G|, by Lagrange
        for L in by_order.get(G.order // H.order, []):
            if H.as_set() & L.as_set() == {e}:
                out.append((H, L))
    out.sort(key=lambda p: (p[0].elements, p[1].elements))
    return out
