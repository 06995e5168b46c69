"""Acceptance suite: ten end-to-end checks, one per numbered criterion.

Each test records a PASS/FAIL line that the terminal summary prints, so
a full run ends with a ten-line scoreboard.  Timing limits are asserted
where a criterion carries one.
"""

import itertools
import json
import time
from pathlib import Path

import pytest

from _report import record
from rbgroups.constructions import (
    central_conjugation,
    enumerate_rb_matrices,
    is_k_abelian,
    power_map,
    power_product_rb,
    rb_matrix_check,
    split_algebra_rb_check,
    splitting_from_factorization,
)
from rbgroups.corpus import corpus_group, corpus_names
from rbgroups.derived import circle_word, derived_group, eval_word, structure_report
from rbgroups.enumeration import brute_force_enumerate, graph_enumerate
from rbgroups.extension import extend_generators, word_image, word_probe
from rbgroups.groups import (
    all_homomorphisms,
    automorphisms,
    direct_product,
    exact_factorizations,
    is_isomorphic,
    subgroup_generated,
)
from rbgroups.lie_ring import (
    graded_lie_ring,
    induced_rb,
    preserves_lower_central,
    verify_lie_rb,
)
from rbgroups.operators import conjugate, is_splitting, kernel, tilde, verify

GOLDENS = Path(__file__).parent / "goldens"

# censuses are shared across criteria; A5's timing feeds criterion 8
_CACHE = {}


def _census(name):
    if name not in _CACHE:
        G = corpus_group(name)
        start = time.perf_counter()
        census = graph_enumerate(G)
        _CACHE[name] = (census, time.perf_counter() - start)
    return _CACHE[name][0]


CENSUS_NAMES = (
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "Z4xZ2", "Z2xZ2xZ2",
    "S3", "D4", "Q8", "A4", "D6", "Heis3", "A5",
)

ABELIAN_NAMES = tuple(
    n for n in corpus_names() if corpus_group(n).is_abelian
)


def test_c01_brute_equals_graph():
    start = time.perf_counter()
    mismatches = []
    for name in ("Z2", "Z3", "Z4", "Z5", "Z6", "S3"):
        G = corpus_group(name)
        brute = set(brute_force_enumerate(G).image_tuples())
        graph = set(graph_enumerate(G).image_tuples())
        if brute != graph:
            mismatches.append(name)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    record("c1", ok, f"6 groups, {elapsed:.2f}s")
    assert not mismatches
    assert elapsed < 10.0


def test_c02_pointwise_facts_and_closure():
    violations = []
    for name in CENSUS_NAMES:
        G = corpus_group(name)
        census = _census(name)
        t, inv, e = G.table, G.inverses, G.identity
        images = {op.images for op in census.operators}
        auts = automorphisms(G)
        for op in census.operators:
            B = op.images
            if B[e] != e:
                violations.append((name, "identity", B))
            for g in G.elements():
                bg = B[g]
                # B(g) B(g^-1) = B(g B(g) g^-1 B(g)^-1)
                arg = t[t[t[g][bg]][inv[g]]][inv[bg]]
                if t[bg][B[inv[g]]] != B[arg]:
                    violations.append((name, "inverse-pair", g))
                # B(g) B(B(g)) = B(g B(g))
                if t[bg][B[bg]] != B[t[g][bg]]:
                    violations.append((name, "image-composition", g))
                # B(g)^-1 = B(B(g)^-1 g^-1 B(g))
                if inv[bg] != B[t[t[inv[bg]][inv[g]]][bg]]:
                    violations.append((name, "inverse-formula", g))
            for g in G.elements():
                if B[g] != e:
                    continue
                for h in G.elements():
                    if B[t[g][h]] != B[h]:
                        violations.append((name, "coset-constancy", (g, h)))
            tt = tilde(op)
            if tilde(tt).images != B or tt.images not in images:
                violations.append((name, "tilde", B))
            for phi in auts:
                if conjugate(op, phi).images not in images:
                    violations.append((name, "conjugation", B))
                    break
    total = sum(len(_census(n)) for n in CENSUS_NAMES)
    record("c2", not violations, f"{total} operators, {len(CENSUS_NAMES)} groups")
    assert not violations


def test_c03_splitting_equivalence():
    mismatches = []
    for name in CENSUS_NAMES:
        G = corpus_group(name)
        t, e = G.table, G.identity
        for op in _census(name).operators:
            B = op.images
            direct = all(B[t[g][B[g]]] == e for g in G.elements())
            sp = is_splitting(op)
            if bool(sp) != direct:
                mismatches.append((name, "condition", B))
                continue
            if sp:
                rebuilt = splitting_from_factorization(G, sp.kernel, sp.image)
                if rebuilt.images != B:
                    mismatches.append((name, "reconstruction", B))
    record("c3", not mismatches, "three-way equivalence over all censuses")
    assert not mismatches


def test_c04_structure_and_words(rng):
    bad = 0
    words = 0
    for name in ("S3", "D4"):
        G = corpus_group(name)
        ops = _census(name).operators
        for op in ops:
            structure_report(op)  # raises on any failed assertion
        for _ in range(500):
            op = rng.choice(ops)
            dg = derived_group(op)
            ct = dg.circle_table
            letters = [
                (rng.randrange(G.order), rng.choice([-3, -2, -1, 1, 2, 3]))
                for _ in range(rng.randrange(1, 7))
            ]
            w = circle_word(letters)
            got = eval_word(op, w)
            folded = G.identity
            for a, k in letters:
                base = a
                if k < 0:
                    base = next(
                        x for x in G.elements() if ct[a][x] == G.identity
                    )
                for _ in range(abs(k)):
                    folded = ct[folded][base]
            words += 1
            if got != folded:
                bad += 1
    record("c4", bad == 0, f"{words} random words, structure reports clean")
    assert words == 1000 and bad == 0


def test_c05_extension_reproductions(s3):
    start = time.perf_counter()

    first = extend_generators(s3, [1, 2], [1, 2])
    ok_i = (
        first.status == "extends"
        and first.operator.images == tuple(s3.inverses)
    )

    second = extend_generators(s3, [1, 2, 5], [1, 2, 4])
    ok_ii = second.status == "no_extension" and not second.cond
    if ok_ii:
        w1, w2 = second.witness
        gens, imgs = [1, 2, 5], [1, 2, 4]
        ok_ii = (
            word_probe(s3, gens, imgs, w1) == word_probe(s3, gens, imgs, w2)
            and word_image(s3, gens, imgs, w1) != word_image(s3, gens, imgs, w2)
        )

    third = extend_generators(s3, [1, 2], [1, 0])
    ok_iii = (
        third.status == "no_extension"
        and third.cond
        and third.closure_order == 4
    )
    if ok_iii:
        # the closure subgroup itself is Z2 x Z2
        prod = direct_product(s3, s3)
        pair_gens = [
            prod.encode((s3.mul(a, u), u)) for a, u in ((1, 1), (2, 0))
        ]
        closure = subgroup_generated(prod.group, pair_gens)
        pack = closure.as_group().group
        ok_iii = (
            closure.order == 4
            and is_isomorphic(pack, corpus_group("Z2xZ2")) is not None
        )
        # independent refutation straight from the census
        ok_iii = ok_iii and not any(
            op.images[1] == 1 and op.images[2] == 0
            for op in _census("S3").operators
        )

    elapsed = time.perf_counter() - start
    ok = ok_i and ok_ii and ok_iii and elapsed < 1.0
    record("c5", ok, f"three reproductions, {elapsed:.3f}s")
    assert ok_i and ok_ii and ok_iii
    assert elapsed < 1.0


def test_c06_matrix_operators(s3):
    start = time.perf_counter()
    matrices = enumerate_rb_matrices(3)
    bad = [
        m.entries
        for m in matrices
        if not verify(power_product_rb(s3, 3, m))
    ]
    with open(GOLDENS / "matrix_counts.json") as fh:
        golden = json.load(fh)
    census_ok = True
    for n in range(1, 5):
        found = len(enumerate_rb_matrices(n))
        oracle = 0
        slots = [(i, k) for i in range(n) for k in range(i, n)]
        for values in itertools.product((-1, 0, 1), repeat=len(slots)):
            rows = [[0] * n for _ in range(n)]
            for (i, k), v in zip(slots, values):
                rows[i][k] = v
            if split_algebra_rb_check(rows):
                oracle += 1
        if not (found == oracle == golden[str(n)]):
            census_ok = False
    elapsed = time.perf_counter() - start
    ok = not bad and census_ok and elapsed < 60.0
    record("c6", ok, f"{len(matrices)} operators on order 216, {elapsed:.1f}s")
    assert not bad
    assert census_ok
    assert elapsed < 60.0


def test_c07_lie_ring_induction():
    violations = []
    induced_count = 0
    for name in ("D4", "Q8", "Heis3"):
        G = corpus_group(name)
        ring = graded_lie_ring(G)
        for g in G.elements():
            op = central_conjugation(G, g)
            if op is None:
                violations.append((name, "central refused", g))
                continue
            ind = induced_rb(ring, op)
            for layer, m in zip(ring.layers, ind.layer_maps):
                if m != tuple(layer.quotient.inverses):
                    violations.append((name, "not negation", g))
            if not verify_lie_rb(ind):
                violations.append((name, "central invalid", g))
        for op in _census(name).operators:
            if not preserves_lower_central(op):
                continue
            induced_count += 1
            if not verify_lie_rb(induced_rb(ring, op)):
                violations.append((name, "census invalid", op.images))
    record("c7", not violations, f"{induced_count} induced operators")
    assert not violations


def test_c08_a5_census():
    G = corpus_group("A5")
    census = _census("A5")
    elapsed = _CACHE["A5"][1]
    inv_images = tuple(G.inverses)
    b0_images = (G.identity,) * G.order
    problems = []
    pairs = {(H.elements, L.elements) for H, L in exact_factorizations(G)}
    for op in census.operators:
        if kernel(op).order == 1 and op.images != inv_images:
            problems.append(("trivial kernel", op.images))
        if op.images in (inv_images, b0_images):
            continue
        sp = is_splitting(op)
        if not sp:
            problems.append(("non-splitting", op.images))
        elif (sp.kernel.elements, sp.image.elements) not in pairs:
            problems.append(("unlisted factorization", op.images))
    ok = not problems and elapsed < 600.0
    record("c8", ok, f"{len(census)} operators, {elapsed:.1f}s")
    assert not problems
    assert elapsed < 600.0


def test_c09_abelian_censuses_are_endomorphisms():
    mismatches = []
    for name in ABELIAN_NAMES:
        G = corpus_group(name)
        census = set(graph_enumerate(G).image_tuples())
        endos = {m.images for m in all_homomorphisms(G, G)}
        if census != endos:
            mismatches.append(name)
    record("c9", not mismatches, f"{len(ABELIAN_NAMES)} abelian groups")
    assert not mismatches


def test_c10_power_maps():
    mismatches = []
    checked = 0
    for name in corpus_names():
        G = corpus_group(name)
        for n in range(G.order + 1):
            checked += 1
            if bool(power_map(G, n)) != is_k_abelian(G, n + 1):
                mismatches.append((name, n))
    record("c10", not mismatches, f"{checked} (group, n) pairs")
    assert not mismatches
