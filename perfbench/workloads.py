"""The four workloads: their inputs, their jobs and their correctness checks.

A workload is three functions.  `build(rng)` makes fresh groups and
operators and returns the pass's job list; it is what set-up time
measures.  `summarize(job, result)` turns a job's answer into plain data
once timing is over.  `check(jobs, summaries)` compares the first pass's
answers with independent computations from `checks` and returns a list
of faults found.

Jobs call the library through module attributes (`enumeration.classify`
and so on), never through names bound at import, so the traced run sees
every call the benchmark makes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from rbgroups import constructions, corpus, derived, enumeration, extension, groups, lie_ring

import checks


@dataclass
class Job:
    """One question a `rbg` command would answer, on this pass's objects."""

    name: str
    run: Callable[[], object]
    ctx: dict


def fresh(name: str):
    """A new group object with the corpus group's table, so that nothing a
    previous pass cached on the group carries over."""
    G = corpus.corpus_group(name)
    return groups.from_cayley_table(G.table, name=G.name, labels=G.labels)


def warm(names) -> None:
    """Build the corpus groups once, before any set-up is timed."""
    for name in names:
        corpus.corpus_group(name)


def images_of(ops) -> np.ndarray:
    return np.array([op.images for op in ops], dtype=np.int64)


@functools.cache
def check_group(name: str) -> checks.Group:
    return checks.Group(corpus.corpus_group(name).table)


@functools.cache
def automorphisms_of(name: str) -> np.ndarray:
    return checks.automorphisms(check_group(name))


def _census_faults(name: str, rows: np.ndarray) -> list[str]:
    """Validity, no duplicates, closure under tilde and every automorphism."""
    G = check_group(name)
    out = []
    bad = checks.rb_defects(G, rows)
    if bad.any():
        out.append(f"{name}: {int(bad.sum())} census operators fail the identity")
    keys = checks.row_keys(rows)
    if len(keys) != len(rows):
        out.append(f"{name}: census has duplicates")
    if not checks.row_keys(checks.tilde_rows(G, rows)) <= keys:
        out.append(f"{name}: census is not closed under tilde")
    auts = automorphisms_of(name)
    for B in rows:
        if not checks.row_keys(checks.conjugate_rows(B, auts)) <= keys:
            out.append(f"{name}: census is not closed under automorphisms")
            break
    return out


# ---------------------------------------------------------------------------
# census: `rbg enumerate --splitting` on nine groups, each asked once

CENSUS_GROUPS = ("S3", "D4", "Q8", "Z2xZ2xZ2", "A4", "D6", "S4", "Heis3", "A5")


def _census_job(G):
    census = enumeration.graph_enumerate(G)
    return census, enumeration.splitting_report(census)


def build_census(rng) -> list[Job]:
    names = list(CENSUS_GROUPS)
    rng.shuffle(names)
    return [Job(f"census:{n}", (lambda G=fresh(n): _census_job(G)), {"group": n})
            for n in names]


def summarize_census(job: Job, result) -> dict:
    census, report = result
    return {
        "images": images_of(census.operators),
        "splitting": {int(i): (tuple(k), tuple(l)) for i, (k, l) in report.splitting.items()},
        "non_splitting": tuple(int(i) for i in report.non_splitting),
    }


def check_census(jobs: list[Job], summaries: dict) -> list[str]:
    out = []
    for job in jobs:
        s = summaries.get(job.name)
        if s is None:
            continue
        name = job.ctx["group"]
        G = check_group(name)
        rows = s["images"]
        out += _census_faults(name, rows)
        split = checks.splits(G, rows)
        if sorted(s["splitting"]) != [int(i) for i in np.flatnonzero(split)]:
            out.append(f"{name}: splitting report disagrees with B(gB(g)) = e")
        if sorted(list(s["splitting"]) + list(s["non_splitting"])) != list(range(len(rows))):
            out.append(f"{name}: splitting report does not cover the census")
        for i, key in s["splitting"].items():
            if key != checks.kernel_image(G, rows[i]):
                out.append(f"{name}: operator {i} reported with the wrong factorization")
                break
        if int(split.sum()) != checks.exact_factorization_count(G):
            out.append(f"{name}: splitting count differs from the exact factorizations")
        if name == "A5" and not split.all():
            out.append("A5: some operator does not split")
        if name == "Z2xZ2xZ2":
            endos = checks.elementary_abelian_endomorphisms(G)
            if len(endos) != 512 or checks.row_keys(endos) != checks.row_keys(rows):
                out.append("Z2xZ2xZ2: census differs from the 512 F2 matrices")
        if G.n <= 8:
            brute = enumeration.brute_force_enumerate(corpus.corpus_group(name))
            if checks.row_keys(images_of(brute.operators)) != checks.row_keys(rows):
                out.append(f"{name}: census differs from brute force")
    return out


# ---------------------------------------------------------------------------
# classify: `rbg classify` on censuses built during set-up

CLASSIFY_GROUPS = ("Z2xZ2xZ2", "S4", "A5")


def build_classify(rng) -> list[Job]:
    names = list(CLASSIFY_GROUPS)
    rng.shuffle(names)
    jobs = []
    for n in names:
        census = enumeration.graph_enumerate(fresh(n))
        jobs.append(Job(f"classify:{n}", (lambda c=census: enumeration.classify(c)),
                        {"group": n}))
    return jobs


def summarize_classify(job: Job, result) -> dict:
    return {
        "images": images_of(result.operators),
        "classes": tuple((tuple(c.representative), tuple(c.members))
                         for c in result.classes),
    }


def check_classify(jobs: list[Job], summaries: dict) -> list[str]:
    out = []
    for job in jobs:
        s = summaries.get(job.name)
        if s is None:
            continue
        name = job.ctx["group"]
        G = check_group(name)
        rows = s["images"]
        out += _census_faults(name, rows)
        index = {row.tobytes(): i for i, row in enumerate(rows)}
        auts = automorphisms_of(name)
        covered = []
        for rep, members in s["classes"]:
            B = np.array(rep, dtype=np.int64)
            both = np.vstack([B[None, :], checks.tilde_rows(G, B[None, :])])
            orbit = set()
            for row in both:
                orbit |= {index.get(r.tobytes(), -1)
                          for r in checks.conjugate_rows(row, auts)}
            if orbit != set(members):
                out.append(f"{name}: class of {rep} differs from its orbit")
            if rep != min(tuple(rows[i]) for i in members):
                out.append(f"{name}: class representative is not the least member")
            covered += members
        if sorted(covered) != list(range(len(rows))):
            out.append(f"{name}: classes do not partition the census")
    return out


# ---------------------------------------------------------------------------
# extend: `rbg extend` on seeded prescriptions for a generating sequence
#
# Per group: restrictions of census operators, split into those whose
# pair closure has full size (decided by the closure) and those whose
# closure is smaller (decided by the census fallback), and uniform random
# values, split into those a word refutes and those with a full closure.
# Fixing these counts keeps the work of a pass the same for every seed;
# the seed picks which operators and values fill them.  A5 has no
# fallback problem: one takes about 3 s, and a pass resting on a single
# job that long swings with the load of the machine.  D6 carries the
# most problems: its full closures all take about the same time, so the
# median job falls among them whichever problems the seed picks.

EXTEND_MIX = {
    #        restriction  restriction  random   random
    #        full         partial      refuted  full
    "S3":    (8, 0, 6, 2),
    "Q8":    (8, 0, 6, 2),
    "D4":    (6, 2, 6, 2),
    "A4":    (6, 2, 6, 2),
    "D6":    (48, 2, 25, 25),
    "S4":    (12, 4, 12, 4),
    "Heis3": (20, 0, 14, 6),
    "A5":    (12, 0, 8, 4),
}
MAX_DRAWS = 100_000


def _extend_job(G, gens, images):
    res = extension.extend_generators(G, gens, images)
    closure = extension.closure_group(G, gens, images) if res.cond else None
    return res, closure


def _prescriptions(name, G, census_rows, gens, rng):
    """(kind, images, predicted closure) triples filling EXTEND_MIX[name]."""
    CG = check_group(name)
    want_rf, want_rp, want_ur, want_uf = EXTEND_MIX[name]
    quota = {("restriction", "full"): want_rf, ("restriction", "partial"): want_rp,
             ("random", "refuted"): want_ur, ("random", "full"): want_uf}
    out = []
    order = list(range(len(census_rows)))
    rng.shuffle(order)
    for i in order:
        if quota[("restriction", "full")] == 0 and quota[("restriction", "partial")] == 0:
            break
        images = tuple(int(census_rows[i][a]) for a in gens)
        kind, size, B = checks.pair_closure(CG, gens, images)
        if quota.get(("restriction", kind), 0) > 0:
            quota[("restriction", kind)] -= 1
            out.append(("restriction", images, (kind, size, B)))
    seen = set()
    for _ in range(MAX_DRAWS):
        if quota[("random", "refuted")] == 0 and quota[("random", "full")] == 0:
            break
        images = tuple(rng.randrange(G.order) for _ in gens)
        if images in seen:
            continue
        seen.add(images)
        kind, size, B = checks.pair_closure(CG, gens, images)
        if quota.get(("random", kind), 0) > 0:
            quota[("random", kind)] -= 1
            out.append(("random", images, (kind, size, B)))
    if any(quota.values()):
        raise RuntimeError(f"{name}: could not fill the extension mix {quota}")
    return out


def build_extend(rng) -> list[Job]:
    jobs = []
    for name in EXTEND_MIX:
        G = fresh(name)
        gens = tuple(groups.generating_sequence(G))
        census_rows = images_of(enumeration.graph_enumerate(G).operators)
        for k, (kind, images, predicted) in enumerate(
                _prescriptions(name, G, census_rows, gens, rng)):
            jobs.append(Job(
                f"extend:{name}:{k}",
                (lambda G=G, gens=gens, images=images: _extend_job(G, gens, images)),
                {"group": name, "gens": gens, "images": images, "kind": kind,
                 "predicted": predicted, "census": census_rows},
            ))
    rng.shuffle(jobs)
    return jobs


def summarize_extend(job: Job, result) -> dict:
    res, closure = result
    return {
        "status": res.status,
        "via": res.via,
        "cond": bool(res.cond),
        "closure_order": int(res.closure_order),
        "operator": None if res.operator is None else tuple(res.operator.images),
        "witness": None if res.witness is None else tuple(tuple(w) for w in res.witness),
        "closure_group_order": None if closure is None else closure.group.order,
    }


def _word_pair(G: checks.Group, gens, images, word):
    """The pair a word reaches in G x G, stepping by (a u, u)^k."""
    t, inv = G.rows, G.inv.tolist()
    x = y = G.e
    for i, k in word:
        a, u = gens[i], images[i]
        dx, dy = t[a][u], u
        if k < 0:
            dx, dy = inv[dx], inv[dy]
        for _ in range(abs(k)):
            x, y = t[x][dx], t[y][dy]
    return x, y


def check_extend(jobs: list[Job], summaries: dict) -> list[str]:
    out = []
    for job in jobs:
        s = summaries.get(job.name)
        if s is None:
            continue
        c = job.ctx
        G = check_group(c["group"])
        kind, size, B = c["predicted"]
        tag = f"{job.name} {c['kind']} {c['images']}"
        matches = (c["census"][:, list(c["gens"])] == c["images"]).all(axis=1).any()
        if s["status"] == "extends":
            op = np.array(s["operator"], dtype=np.int64)
            if checks.rb_defects(G, op[None, :]).any():
                out.append(f"{tag}: extension fails the identity")
            if any(op[a] != u for a, u in zip(c["gens"], c["images"])):
                out.append(f"{tag}: extension loses a prescribed value")
            if not matches:
                out.append(f"{tag}: extends, but no census operator matches")
        elif s["status"] == "no_extension":
            if matches:
                out.append(f"{tag}: refuted, but a census operator matches")
        else:
            out.append(f"{tag}: status {s['status']}")
        if c["kind"] == "restriction" and s["status"] != "extends":
            out.append(f"{tag}: restriction of a census operator did not extend")
        if kind == "refuted":
            if s["status"] != "no_extension" or s["cond"]:
                out.append(f"{tag}: a diagonal pair was missed")
            elif s["witness"] is not None:
                x, y = _word_pair(G, c["gens"], c["images"], s["witness"][0])
                if x != y or x == G.e:
                    out.append(f"{tag}: witness word does not reach the diagonal")
        else:
            if not s["cond"] or s["closure_order"] != size:
                out.append(f"{tag}: closure order {s['closure_order']} != {size}")
            if s["closure_group_order"] != size:
                out.append(f"{tag}: closure group order differs from {size}")
        if kind == "full" and s["operator"] != tuple(B):
            out.append(f"{tag}: extension differs from the closure's operator")
    return out


# ---------------------------------------------------------------------------
# construct: the paper's general constructions, with no census


def _power_job(S3, m):
    return constructions.power_product_rb(S3, 3, m)


def _wreath_job(Z2, S3):
    return constructions.wreath_rb(groups.wreath_product(Z2, S3), "inverse_base")


def _splitting_job(G, H, L):
    op = constructions.splitting_from_factorization(G, H, L)
    return op, derived.derived_group(op), derived.structure_report(op)


def _central_job(G):
    """Every central conjugation of G pushed down to its graded Lie ring,
    as the acceptance test c7 asks of the class-2 corpus groups."""
    ring = lie_ring.graded_lie_ring(G)
    out = []
    for g in G.elements():
        op = constructions.central_conjugation(G, g)
        induced = lie_ring.induced_rb(ring, op)
        out.append((op, induced, lie_ring.verify_lie_rb(induced)))
    return out


def build_construct(rng) -> list[Job]:
    S3, Z2 = fresh("S3"), fresh("Z2")
    jobs = [Job(f"power:{k}", (lambda m=m: _power_job(S3, m)), {"kind": "power"})
            for k, m in enumerate(constructions.enumerate_rb_matrices(3))]
    jobs.append(Job("cascade", lambda: constructions.cascade_rb(S3, 3), {"kind": "cascade"}))
    jobs.append(Job("wreath", lambda: _wreath_job(Z2, S3), {"kind": "wreath"}))
    for name in ("S4", "A5"):
        G = fresh(name)
        for k, (H, L) in enumerate(groups.exact_factorizations(G)):
            jobs.append(Job(f"split:{name}:{k}", (lambda H=H, L=L, G=G: _splitting_job(G, H, L)),
                            {"kind": "split", "group": name,
                             "H": H.elements, "L": L.elements}))
    for name in ("D4", "Q8", "Heis3"):
        jobs.append(Job(f"central:{name}", (lambda G=fresh(name): _central_job(G)),
                        {"kind": "central", "group": name}))
    rng.shuffle(jobs)
    return jobs


_tables: dict = {}


def summarize_construct(job: Job, result) -> dict:
    kind = job.ctx["kind"]
    if kind in ("power", "cascade", "wreath"):
        table = result.group.table
        return {"images": np.array(result.images, dtype=np.int64),
                "table": _tables.setdefault(table, table)}
    if kind == "split":
        op, dg, rep = result
        return {"images": np.array(op.images, dtype=np.int64),
                "twisted": np.array(dg.group.table, dtype=np.int64),
                "report": (rep.kernel_b.elements, rep.image_b.elements,
                           rep.quotient_order)}
    return {"conjugations": tuple(
        (np.array(op.images, dtype=np.int64),
         tuple((layer.quotient.table, m)
               for layer, m in zip(induced.ring.layers, induced.layer_maps)),
         bool(verdict))
        for op, induced, verdict in result)}


def _central_faults(name: str, G: checks.Group, conjugations) -> list[str]:
    out = []
    if len(conjugations) != G.n:
        out.append(f"{name}: {len(conjugations)} conjugations for {G.n} elements")
    for g, (B, layers, valid) in enumerate(conjugations):
        if checks.rb_defects(G, B[None, :]).any():
            out.append(f"{name}:{g}: operator fails the identity")
        if not np.array_equal(B, G.t[G.t[G.inv[g], G.inv], g]):
            out.append(f"{name}:{g}: images are not x -> g^-1 x^-1 g")
        if not valid:
            out.append(f"{name}:{g}: induced Lie-ring operator is invalid")
        if any(checks.Group(q).inv.tolist() != list(m) for q, m in layers):
            out.append(f"{name}:{g}: induced map does not negate every layer")
    return out


def check_construct(jobs: list[Job], summaries: dict) -> list[str]:
    out = []
    by_kind: dict = {}
    tables: dict = {}
    for job in jobs:
        s = summaries.get(job.name)
        if s is None:
            continue
        c = job.ctx
        by_kind.setdefault(c["kind"], []).append(s)
        if c["kind"] == "central":
            out += _central_faults(job.name, check_group(c["group"]), s["conjugations"])
            continue
        if "table" in s:
            key = id(s["table"])
            if key not in tables:
                tables[key] = checks.Group(s["table"])
            G = tables[key]
        else:
            G = check_group(c["group"])
        B = s["images"]
        if checks.rb_defects(G, B[None, :]).any():
            out.append(f"{job.name}: operator fails the identity")
        if c["kind"] == "power" and G.n != 216:
            out.append(f"{job.name}: acts on a group of order {G.n}")
        if c["kind"] == "wreath" and (G.n != 384 or not checks.splits(G, B[None, :])[0]):
            out.append(f"{job.name}: base inversion on order {G.n} does not split")
        if c["kind"] == "split":
            if checks.kernel_image(G, B) != (c["H"], c["L"]):
                out.append(f"{job.name}: kernel and image are not the factorization")
            if not np.array_equal(s["twisted"], checks.twisted_table(G, B)):
                out.append(f"{job.name}: derived group table is not the twisted product")
            if s["report"][:2] != (c["H"], c["L"]):
                out.append(f"{job.name}: structure report has the wrong kernel or image")
    powers = by_kind.get("power", [])
    if len(powers) != 2 ** 3 * math.factorial(3):
        out.append(f"{len(powers)} sign-matrix operators, expected 48")
    if len(checks.row_keys(np.array([s["images"] for s in powers]))) != len(powers):
        out.append("sign-matrix operators are not distinct")
    return out


WORKLOADS = {
    "census": (build_census, summarize_census, check_census),
    "classify": (build_classify, summarize_classify, check_classify),
    "extend": (build_extend, summarize_extend, check_extend),
    "construct": (build_construct, summarize_construct, check_construct),
}

GROUPS_USED = {
    "census": CENSUS_GROUPS,
    "classify": CLASSIFY_GROUPS,
    "extend": tuple(EXTEND_MIX),
    "construct": ("S3", "Z2", "S4", "A5", "D4", "Q8", "Heis3"),
}
