import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import counting
from rbgroups import corpus, derived, extension
from rbgroups.cli import main
from rbgroups.corpus import corpus_group, corpus_names
from rbgroups.groups import FiniteGroup
from rbgroups.serialization import dumps, group_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err or out
    return json.loads(out)


def test_verify_valid(capsys):
    j = run_json(capsys, "verify", "--corpus", "S3", "--images", "0,1,1,0,0,1")
    assert j == {"group": "S3", "weight": 1, "valid": True, "witness": None}


def test_verify_invalid_witness(capsys):
    j = run_json(capsys, "verify", "--corpus", "S3", "--images", "0,1,2,3,4,5")
    assert j["valid"] is False and j["witness"] == [1, 2]


def test_verify_weight_minus_one(capsys):
    j = run_json(capsys, "verify", "--corpus", "S3",
                 "--images", "0,1,2,3,4,5", "--weight", "-1")
    assert j["valid"] is True


def test_group_file_input(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(dumps(group_to_json(corpus_group("Z4"))))
    j = run_json(capsys, "enumerate", "--group", str(path))
    assert j["count"] == 4


def test_enumerate_s3(capsys):
    j = run_json(capsys, "enumerate", "--corpus", "S3")
    assert j["count"] == 8 and j["method"] == "graph"
    assert [0, 1, 1, 0, 0, 1] in j["operators"]


def test_enumerate_weight_minus_one(capsys):
    j = run_json(capsys, "enumerate", "--corpus", "S3", "--weight", "-1")
    assert j["count"] == 8 and j["method"] == "graph+convert"
    assert [0, 1, 2, 3, 4, 5] in j["operators"]


def test_enumerate_brute(capsys):
    j = run_json(capsys, "enumerate", "--corpus", "Z4", "--method", "brute")
    assert j["method"] == "brute" and j["count"] == 4


def test_classify_with_reports(capsys):
    j = run_json(capsys, "classify", "--corpus", "S3", "--splitting")
    assert sorted(len(c["members"]) for c in j["classes"]) == [2, 6]
    assert j["non_splitting"] == []
    assert j["elementary_verdict"]["elementary"] is False


def test_classification_rejected_at_minus_one(capsys):
    code, out, err = run(capsys, "classify", "--corpus", "S3", "--weight", "-1")
    assert code == 1
    j = json.loads(out)
    assert j["error"] == "InvalidInput"


def test_construct_elementary(capsys):
    j = run_json(capsys, "construct", "--corpus", "Q8",
                 "--family", "elementary", "--variant", "b_minus1")
    assert j["valid"] is True
    assert j["operator"]["images"] == list(corpus_group("Q8").inverses)


def test_construct_splitting(capsys):
    j = run_json(capsys, "construct", "--corpus", "S3", "--family", "splitting",
                 "--kernel", "3", "--image", "1")
    assert j["operator"]["images"] == [0, 1, 1, 0, 0, 1]
    assert j["kernel"] == [0, 3, 4] and j["image"] == [0, 1]


def test_construct_power_refusal_is_answer(capsys):
    j = run_json(capsys, "construct", "--corpus", "S3", "--family", "power",
                 "--n", "1")
    assert j == {"operator": None, "valid": False, "witness": [1, 2]}


def test_construct_power_accepted(capsys):
    j = run_json(capsys, "construct", "--corpus", "Z6", "--family", "power",
                 "--n", "3")
    assert j["valid"] is True
    assert j["operator"]["images"] == [0, 3, 0, 3, 0, 3]


def test_construct_central(capsys):
    j = run_json(capsys, "construct", "--corpus", "D4", "--family", "central",
                 "--element", "1")
    assert j["valid"] is True
    j = run_json(capsys, "construct", "--corpus", "S3", "--family", "central",
                 "--element", "1")
    assert j == {"operator": None, "valid": False}


def test_construct_affine(capsys):
    j = run_json(capsys, "construct", "--corpus", "Z6", "--family", "affine",
                 "--a", "2", "--b", "4")
    assert j["valid"] is True
    j = run_json(capsys, "construct", "--corpus", "Z6", "--family", "affine",
                 "--a", "2", "--b", "3")
    assert j["valid"] is False


def test_construct_hom(capsys):
    j = run_json(capsys, "construct", "--corpus", "S3", "--family", "hom",
                 "--map", "0,1,1,0,0,1")
    assert j["valid"] is True


def test_construct_cascade(capsys):
    j = run_json(capsys, "construct", "--corpus", "Z2", "--family", "cascade",
                 "--n", "2")
    assert j["copies"] == 2
    assert len(j["operator"]["images"]) == 4


def test_derived_structure_and_word(capsys):
    j = run_json(capsys, "derived", "--corpus", "S3",
                 "--images", "0,1,1,0,0,1", "--word", "1:1,3:-1")
    assert j["order"] == 6
    assert j["structure"]["kernel"] == [0, 3, 4]
    assert j["word_value"] == 2


def test_derived_word_with_huge_exponent(capsys):
    # a circle power takes log k products, so k = 10**18 answers at
    # once, and as a power in a group of order 6 it equals k mod 6
    k = 10**18
    argv = ("derived", "--corpus", "S3", "--images", "0,1,1,0,0,1", "--word")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, f"1:{k}")
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert elapsed < 1.0
    reduced = run_json(capsys, *argv, f"1:{k % 6}")
    assert json.loads(out)["word_value"] == reduced["word_value"]


def test_derived_table(capsys):
    j = run_json(capsys, "derived", "--corpus", "Z4",
                 "--images", "0,2,0,2", "--table")
    assert len(j["circle_table"]) == 4


def test_derived_builds_twisted_group_once(monkeypatch, capsys):
    # the reported order and table are those of the twisted group the
    # structure report was checked in; the report's two quotient tables
    # are built too, so only the twisted table, named S3_B, is counted
    calls = {"derived_group": 0, "table": 0}
    monkeypatch.setattr(derived, "derived_group",
                        counting(calls, "derived_group", derived.derived_group))
    proved = FiniteGroup._proved

    def counted(table, name="", labels=None):
        calls["table"] += name == "S3_B"
        return proved(table, name=name, labels=labels)

    monkeypatch.setattr(FiniteGroup, "_proved", counted)
    j = run_json(capsys, "derived", "--corpus", "S3",
                 "--images", "0,1,1,0,0,1", "--table")
    assert j["order"] == 6 and len(j["circle_table"]) == 6
    assert calls == {"derived_group": 1, "table": 1}


def test_order_cap_bounds_constructed_groups(monkeypatch, capsys):
    # RBG_ORDER_CAP bounds every group a command builds, not only files:
    # S3^3 has order 216
    monkeypatch.setenv("RBG_ORDER_CAP", "10")
    code, out, err = run(capsys, "construct", "--corpus", "S3",
                         "--family", "cascade", "--n", "3")
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "OrderCapExceeded"


def test_order_cap_bounds_factor_count(monkeypatch, capsys):
    # Z1^100000 has order 1, but its 100000 factors exceed the limit: the
    # refusal comes before any table or matrix is built
    monkeypatch.delenv("RBG_ORDER_CAP", raising=False)
    code, out, err = run(capsys, "construct", "--corpus", "Z1",
                         "--family", "cascade", "--n", "100000")
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": "OrderCapExceeded",
                               "message": "a product of 100000 factors exceeds cap 2048"}


def test_bad_order_cap_is_malformed_input(tmp_path, monkeypatch, capsys):
    # the limit is read where a group is built: from a group file, and
    # from the corpus when the group is not cached yet
    path = tmp_path / "g.json"
    path.write_text(dumps(group_to_json(corpus_group("S3"))))
    monkeypatch.setattr(corpus, "_cached", corpus._cached.__wrapped__)
    monkeypatch.setenv("RBG_ORDER_CAP", "abc")
    for source in (("--group", str(path)), ("--corpus", "S3")):
        code, out, err = run(capsys, "enumerate", *source)
        assert code == 2 and out == ""
        assert "RBG_ORDER_CAP" in err and "Traceback" not in err


def test_deeply_nested_json_is_malformed_input(tmp_path, capsys):
    # JSON nested past the interpreter's recursion limit is refused as
    # malformed input, from a group file and from an operator file.  A
    # fresh `rbg` parses 480 levels; the test's own stack leaves it fewer.
    leaf = dumps(group_to_json(corpus_group("Z2")))

    def nested(depth):
        doc = leaf
        for _ in range(depth):
            doc = '{"name": "P", "kind": "direct", "factors": [' + doc + ']}'
        return doc

    files = {"shallow": nested(400), "deep": nested(3000), "brackets": "[" * 100000}
    for key, doc in files.items():
        (tmp_path / f"{key}.json").write_text(doc)
    assert run_json(capsys, "enumerate", "-g", str(tmp_path / "shallow.json"))["count"] == 2
    brackets = str(tmp_path / "brackets.json")
    for argv in (("enumerate", "-g", str(tmp_path / "deep.json")),
                 ("enumerate", "-g", brackets),
                 ("verify", "--corpus", "S3", "--operator", brackets)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "nested too deeply" in err and "Traceback" not in err


def test_extend_census_refutation(capsys):
    j = run_json(capsys, "extend", "--corpus", "S3",
                 "--gens", "1,2", "--images", "1,0")
    assert j["status"] == "no_extension"
    assert j["cond"] is True and j["via"] == "search"
    assert j["gbar"]["order"] == 4
    # with the condition holding, gbar is a full group payload
    assert j["gbar"]["kind"] == "table"
    assert len(j["gbar"]["table"]) == 4


def test_extend_collision(capsys):
    j = run_json(capsys, "extend", "--corpus", "S3",
                 "--gens", "1,2,5", "--images", "1,2,4")
    assert j["status"] == "no_extension" and j["cond"] is False
    assert j["witness"]["words"] == [[[0, 1], [2, -1]], []]
    # no quotient group exists here, so gbar stays an order-only stub
    assert "table" not in j["gbar"]


def test_extend_success(capsys):
    j = run_json(capsys, "extend", "--corpus", "S3",
                 "--gens", "1,2", "--images", "1,2")
    assert j["status"] == "extends"
    assert j["extension"]["images"] == [0, 1, 2, 4, 3, 5]


def test_extend_undecided(monkeypatch, capsys):
    monkeypatch.setattr(extension, "SEARCH_BUDGET", 0)
    j = run_json(capsys, "extend", "--corpus", "S3",
                 "--gens", "1,2", "--images", "1,0")
    assert j["status"] == "undecided"


SMALL_ORDERS = {n: corpus_group(n).order for n in corpus_names()
                if corpus_group(n).order <= 12}


@st.composite
def _extend_argv(draw):
    """`rbg extend` on a small corpus group, each of --gens and --images
    either a comma-separated list of ids (mostly in range, some negative
    or past the order) or arbitrary text over digits, signs, separators
    and letters."""
    name = draw(st.sampled_from(sorted(SMALL_ORDERS)))
    ids = st.integers(min_value=-1, max_value=SMALL_ORDERS[name])
    values = []
    for _ in range(2):
        if draw(st.integers(0, 3)) == 0:
            values.append(draw(st.text(alphabet="0123456789,-+ _x.", max_size=12)))
        else:
            values.append(",".join(map(str, draw(st.lists(ids, max_size=4)))))
    return ["extend", "--corpus", name, f"--gens={values[0]}",
            f"--images={values[1]}"]


@settings(max_examples=200, deadline=None)
@given(argv=_extend_argv())
def test_extend_answers_or_refuses(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        event(json.loads(out.getvalue())["status"])
    else:
        event(f"exit {code}")


def test_extend_builds_closure_once(monkeypatch, capsys):
    # the decision and the reported closure group share one coset
    # closure, whose group table is built once; only a refutation by a
    # word walks the closure again, to spell the word.  On S4: extended
    # by the closure, refuted by the search below it, refuted by a word
    for images, status, via, walks, tables in (("0,0,0", "extends", "closure", 0, 1),
                                               ("5,11,5", "no_extension", "search", 0, 1),
                                               ("4,18,2", "no_extension", "closure", 1, 0)):
        calls = {"closure": 0, "walk": 0, "table": 0}
        monkeypatch.setattr(extension, "_pair_closure",
                            counting(calls, "closure", extension._pair_closure))
        monkeypatch.setattr(extension, "_closure_pairs",
                            counting(calls, "walk", extension._closure_pairs))
        monkeypatch.setattr(FiniteGroup, "_proved",
                            counting(calls, "table", FiniteGroup._proved))
        j = run_json(capsys, "extend", "--corpus", "S4",
                     "--gens", "1,2,3", "--images", images)
        assert j["status"] == status and j["via"] == via and j["cond"] is (walks == 0)
        assert calls == {"closure": 1, "walk": walks, "table": tables}
        if status == "extends":
            assert j["gbar"]["order"] == 24 and len(j["gbar"]["table"]) == 24
        monkeypatch.undo()


def test_lie_ring(capsys):
    j = run_json(capsys, "lie-ring", "--corpus", "Heis3")
    assert j["series_orders"] == [27, 3, 1]
    assert j["bracket_nonzeros"] == 432


def test_lie_ring_with_operator(capsys):
    d4 = corpus_group("D4")
    j = run_json(capsys, "lie-ring", "--corpus", "D4",
                 "--images", ",".join(str(d4.inverses[g]) for g in d4.elements()))
    assert j["induced"]["valid"] is True


def test_corpus_listing(capsys):
    j = run_json(capsys, "corpus")
    assert "Heis3" in j["names"] and len(j["names"]) == 27
    j = run_json(capsys, "corpus", "Q8")
    assert j["kind"] == "table" and len(j["table"]) == 8


def test_error_exit_codes(capsys):
    # domain errors: JSON on stdout, exit 1
    code, out, err = run(capsys, "construct", "--corpus", "S3",
                         "--family", "splitting", "--kernel", "3", "--image", "4")
    assert code == 1
    j = json.loads(out)
    assert j["error"] == "NotExactFactorization" and err == ""
    # malformed input: message on stderr, exit 2
    code, out, err = run(capsys, "verify", "--corpus", "S3", "--images", "0,1")
    assert code == 2 and out == "" and "--images" in err
    code, out, err = run(capsys, "derived", "--corpus", "S3",
                         "--images", "0,1,1,0,0,1", "--word", "x:y")
    assert code == 2 and out == "" and "syllable" in err


def test_missing_group_is_schema_error(capsys):
    code, out, err = run(capsys, "enumerate")
    assert code == 2 and err != ""


@pytest.mark.parametrize("args", [
    ("--family", "central", "--element", "99"),
    ("--family", "central", "--element", "-1"),
    ("--family", "affine", "--a", "99"),
    ("--family", "affine", "--a", "1", "--b", "99"),
    ("--family", "affine", "--a", "-1"),
    ("--family", "hom", "--map", "0,0,0,0,0,9"),
    ("--family", "hom", "--map", "0,0,0,0,0,-1"),
])
def test_construct_refuses_out_of_range_element(capsys, args):
    code, out, err = run(capsys, "construct", "--corpus", "S3", *args)
    assert code == 1 and err == ""
    j = json.loads(out)
    assert j["error"] == "InvalidInput" and "out of range" in j["message"]


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [
    ["enumerate", "--corpus", "S4"],
    ["construct", "--corpus", "S3", "--family", "splitting",
     "--kernel", "3", "--image", "4"],
])
def test_closed_pipe_exits_1_quietly(tmp_path, monkeypatch, capsys, argv):
    # as in `rbg enumerate --corpus S4 | head -c 20`, for an answer and
    # for a refusal: exit 1 without a traceback, with the descriptor
    # moved to the null device so the final flush cannot raise again
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        assert main(argv) == 1
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""
