"""Command line front end.

Exit codes: 0 for an answered question (JSON on stdout, including
negative answers), 1 for a principled refusal (structured JSON with the
error class and message), 2 for malformed input (message on stderr).
The RBG_ORDER_CAP environment variable (default 2048) bounds the order
of every group a command builds, read from a file, taken from the corpus
or constructed; a larger one is refused with OrderCapExceeded (exit 1),
and a value that is not a positive integer is malformed input (exit 2)
once a group is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .constructions import (
    affine_map_check,
    cascade_rb,
    central_conjugation,
    hom_to_abelian,
    power_map,
    splitting_from_factorization,
)
from .corpus import corpus_group, corpus_names
from .derived import circle_word, eval_word, structure_report
from .enumeration import (
    Census,
    brute_force_enumerate,
    classify,
    graph_enumerate,
    is_rb_elementary,
    splitting_report,
)
from .errors import InvalidInput, RBGroupsError, SchemaViolation
from .extension import _extend_with_closure
from .groups import FiniteGroup, Subgroup, subgroup_generated
from .lie_ring import bracket_nonzero_count, graded_lie_ring, induced_rb, verify_lie_rb
from .operators import RBOperator, elementary, is_splitting, verify, weight_convert
from .serialization import (
    census_to_json,
    dumps,
    extension_to_json,
    group_to_json,
    operator_to_json,
    parse_group,
    parse_operator,
    ring_to_json,
    structure_to_json,
)

__all__ = ["main"]


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaViolation(path, f"cannot read: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaViolation(path, f"invalid JSON: {exc}")
    except RecursionError:
        raise SchemaViolation(path, "invalid JSON: nested too deeply")


def _load_group(args) -> FiniteGroup:
    if getattr(args, "corpus", None):
        if getattr(args, "group", None):
            raise SchemaViolation("--group", "give either --group or --corpus")
        return corpus_group(args.corpus)
    if not getattr(args, "group", None):
        raise SchemaViolation("--group", "a group file or corpus name is required")
    return parse_group(_read_json(args.group))


def _csv_ints(raw: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in raw.split(",")] if raw else []
    except ValueError:
        raise SchemaViolation(flag, f"expected comma-separated integers, got {raw!r}")


def _load_operator(args, G: FiniteGroup) -> RBOperator:
    if getattr(args, "operator", None):
        return parse_operator(_read_json(args.operator), G)
    if getattr(args, "images", None) is None:
        raise SchemaViolation("--operator", "an operator file or --images is required")
    images = _csv_ints(args.images, "--images")
    if len(images) != G.order or any(not 0 <= x < G.order for x in images):
        raise SchemaViolation("--images", f"need {G.order} in-range images")
    return RBOperator(G, images, weight=getattr(args, "weight", 1))


def _subgroup(G: FiniteGroup, raw: str, flag: str) -> Subgroup:
    ids = _csv_ints(raw, flag)
    if any(not 0 <= x < G.order for x in ids):
        raise SchemaViolation(flag, "element out of range")
    return subgroup_generated(G, ids)


def _emit(payload: dict) -> int:
    print(dumps(payload), flush=True)
    return 0


def cmd_verify(args) -> int:
    G = _load_group(args)
    op = _load_operator(args, G)
    v = verify(op)
    out = {
        "group": G.name,
        "weight": op.weight,
        "valid": bool(v),
        "witness": None if v else list(v.witness),
    }
    return _emit(out)


def _census(G: FiniteGroup, method: str, weight: int):
    if weight == 1:
        if method == "brute":
            return brute_force_enumerate(G)
        return graph_enumerate(G)
    if method == "brute":
        return brute_force_enumerate(G, weight=-1)
    plus = graph_enumerate(G)
    ops = sorted((weight_convert(op) for op in plus.operators),
                 key=lambda o: o.images)
    return Census(G, "graph+convert", tuple(ops), weight=-1)


def cmd_enumerate(args, always_classify: bool = False) -> int:
    G = _load_group(args)
    census = _census(G, args.method, args.weight)
    want_classes = always_classify or args.classify
    want_elem = always_classify or getattr(args, "elementary", False)
    if (want_classes or want_elem) and census.weight != 1:
        raise InvalidInput("classification is defined for weight +1 censuses")
    if args.splitting and census.weight != 1:
        raise InvalidInput("the splitting report needs a weight +1 census")
    if want_classes:
        census = classify(census)
    splitting = splitting_report(census) if args.splitting else None
    elem = is_rb_elementary(G, census) if want_elem else None
    return _emit(census_to_json(census, splitting=splitting, elementary=elem))


def cmd_classify(args) -> int:
    args.classify = True
    return cmd_enumerate(args, always_classify=True)


def cmd_construct(args) -> int:
    G = _load_group(args)
    fam = args.family
    if fam == "elementary":
        op = elementary(G, args.variant)
        return _emit({"operator": operator_to_json(op), "valid": True})
    if fam == "splitting":
        H = _subgroup(G, args.kernel, "--kernel")
        L = _subgroup(G, args.image, "--image")
        op = splitting_from_factorization(G, H, L)
        sp = is_splitting(op)
        return _emit({
            "operator": operator_to_json(op), "valid": True,
            "kernel": list(sp.kernel.elements), "image": list(sp.image.elements),
        })
    if fam == "hom":
        if args.map is None:
            raise SchemaViolation("--map", "the hom family needs image values")
        op = hom_to_abelian(G, _csv_ints(args.map, "--map"), mode=args.mode)
        return _emit({"operator": operator_to_json(op), "valid": True})
    if fam == "power":
        res = power_map(G, args.n)
        if res:
            return _emit({"operator": operator_to_json(res.operator), "valid": True})
        return _emit({"operator": None, "valid": False,
                      "witness": list(res.witness)})
    if fam == "central":
        if args.element is None:
            raise SchemaViolation("--element", "the central family needs an element")
        op = central_conjugation(G, args.element)
        if op is None:
            return _emit({"operator": None, "valid": False})
        return _emit({"operator": operator_to_json(op), "valid": True})
    if fam == "affine":
        op = affine_map_check(G, args.a, args.b)
        if op is None:
            return _emit({"operator": None, "valid": False})
        return _emit({"operator": operator_to_json(op), "valid": True})
    if fam == "cascade":
        op = cascade_rb(G, args.n, args.variant_cascade)
        return _emit({"operator": operator_to_json(op), "valid": True,
                      "base": G.name, "copies": args.n})
    raise SchemaViolation("--family", f"unknown family {fam!r}")


def _parse_word(raw: str) -> list[tuple[int, int]]:
    out = []
    if not raw:
        return out
    for part in raw.split(","):
        try:
            if ":" in part:
                a, k = part.split(":")
                out.append((int(a), int(k)))
            else:
                out.append((int(part), 1))
        except ValueError:
            raise SchemaViolation("--word", f"bad syllable {part!r}")
    return out


def cmd_derived(args) -> int:
    G = _load_group(args)
    op = _load_operator(args, G)
    rep = structure_report(op)
    out = {
        "group": G.name,
        "order": rep.derived.group.order,
        "structure": structure_to_json(rep),
    }
    if args.word is not None:
        out["word_value"] = eval_word(op, circle_word(_parse_word(args.word)))
    if args.table:
        out["circle_table"] = rep.derived.group.np_table().tolist()
    return _emit(out)


def cmd_extend(args) -> int:
    G = _load_group(args)
    gens = _csv_ints(args.gens, "--gens")
    images = _csv_ints(args.images, "--images")
    res, closure = _extend_with_closure(G, gens, images)
    return _emit(extension_to_json(res, closure.group if closure else None))


def cmd_lie_ring(args) -> int:
    G = _load_group(args)
    ring = graded_lie_ring(G)
    induced = verdict = None
    if args.operator or args.images:
        op = _load_operator(args, G)
        induced = induced_rb(ring, op)
        verdict = verify_lie_rb(induced)
    return _emit(ring_to_json(ring, bracket_nonzero_count(ring),
                              induced=induced, verdict=verdict))


def cmd_corpus(args) -> int:
    if args.name is None:
        return _emit({"names": corpus_names()})
    return _emit(group_to_json(corpus_group(args.name)))


def _add_group_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-g", "--group", help="group JSON file")
    p.add_argument("--corpus", help="built-in corpus group name")


def _add_operator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("-B", "--operator", help="operator JSON file")
    p.add_argument("--images", help="comma-separated operator images")
    p.add_argument("--weight", type=int, default=1, choices=(1, -1))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rbg",
        description="Rota-Baxter operators on finite groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check one operator")
    _add_group_args(p)
    _add_operator_args(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("enumerate", help="list all operators")
    _add_group_args(p)
    p.add_argument("--method", choices=("brute", "graph"), default="graph")
    p.add_argument("--weight", type=int, default=1, choices=(1, -1))
    p.add_argument("--classify", action="store_true")
    p.add_argument("--splitting", action="store_true")
    p.add_argument("--elementary", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("classify", help="enumerate and group into classes")
    _add_group_args(p)
    p.add_argument("--method", choices=("brute", "graph"), default="graph")
    p.add_argument("--weight", type=int, default=1, choices=(1, -1))
    p.add_argument("--splitting", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("construct", help="build an operator from a recipe")
    _add_group_args(p)
    p.add_argument("--family", required=True,
                   choices=("elementary", "splitting", "hom", "power",
                            "central", "affine", "cascade"))
    p.add_argument("--variant", choices=("b0", "b_minus1"), default="b0")
    p.add_argument("--kernel", default="", help="generators of the kernel factor")
    p.add_argument("--image", default="", help="generators of the image factor")
    p.add_argument("--map", help="comma-separated images of the homomorphism")
    p.add_argument("--mode", choices=("hom", "antihom"), default="hom")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--element", type=int)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--variant-cascade", choices=("plain", "tilde"),
                   default="plain", dest="variant_cascade")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("derived", help="twisted group and structure report")
    _add_group_args(p)
    _add_operator_args(p)
    p.add_argument("--word", help="syllables index:exp, e.g. 1:2,0:-1")
    p.add_argument("--table", action="store_true",
                   help="include the twisted product table")
    p.set_defaults(fn=cmd_derived)

    p = sub.add_parser("extend", help="decide extension of generator images")
    _add_group_args(p)
    p.add_argument("--gens", required=True, help="comma-separated generators")
    p.add_argument("--images", required=True,
                   help="comma-separated prescribed values")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("lie-ring", help="graded ring of the lower central series")
    _add_group_args(p)
    _add_operator_args(p)
    p.set_defaults(fn=cmd_lie_ring)

    p = sub.add_parser("corpus", help="list or emit built-in groups")
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=cmd_corpus)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        try:
            return args.fn(args)
        except SchemaViolation as exc:
            print(str(exc), file=sys.stderr)
            return 2
        except RBGroupsError as exc:
            _emit({"error": type(exc).__name__, "message": str(exc)})
            return 1
    except BrokenPipeError:
        # Point stdout at the null device so the final flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
