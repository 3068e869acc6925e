from __future__ import annotations

import io
import json
import tracemalloc
from importlib import resources

import pytest

from f2cover.bounds import bundled_search_anchors
from f2cover.cli import build_parser, run
from f2cover.constructions import gv_random_cover
from f2cover.solver import solve_g


def _out(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


def _feed(monkeypatch, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run(["solve", "--what"]) == 2


def test_the_shared_parser_keeps_no_state_between_runs(capsys):
    assert build_parser() is build_parser()
    smax = ["construct", "--family", "smax", "--n", "4", "--k", "3"]
    assert run(smax) == 0
    first = capsys.readouterr().out
    assert run(["bogus"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(["verify"]) == 2
    assert "--k" in capsys.readouterr().err
    assert run(smax) == 0
    assert capsys.readouterr().out == first
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: f2cover")


def test_construct_and_verify_pipe(capsys, monkeypatch):
    assert run(["construct", "--family", "diag", "--k", "5"]) == 0
    doc, err = _out(capsys)
    assert doc["n"] == 5 and len(doc["entries"]) > 0
    assert "size=11" in err

    _feed(monkeypatch, doc)
    assert run(["verify", "--k", "5"]) == 0
    report, err = _out(capsys)
    assert report["origin_count"] == 1
    assert "is a (k=5, d=1)-cover" in err


def test_verify_negative_exit(capsys, monkeypatch):
    assert run(["construct", "--family", "gv", "--n", "3", "--k", "2"]) == 0
    doc, _ = _out(capsys)
    _feed(monkeypatch, doc)
    assert run(["verify", "--k", "4"]) == 1
    _, err = _out(capsys)
    assert "is NOT" in err


def test_construct_regime_failure_is_negative(capsys):
    # thma needs k >= 4 at (n=5, d=2), l31 k >= 2, diag k >= 4
    assert run(["construct", "--family", "thma", "--n", "5", "--k", "2", "--d", "2"]) == 1
    assert run(["construct", "--family", "l31", "--n", "4", "--k", "1"]) == 1
    assert run(["construct", "--family", "diag", "--k", "3"]) == 1


@pytest.mark.parametrize("family", ["smax", "thma", "l31", "diag", "gv"])
def test_construct_k_below_one_is_usage(capsys, family):
    # k < 1 is out of range for every family, before any family's own range
    argv = ["construct", "--family", family, "--k", "0"]
    assert run(argv if family == "diag" else argv + ["--n", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "need k >= 1, got 0" in err


def test_construct_missing_params_is_usage(capsys):
    assert run(["construct", "--family", "l31"]) == 2
    assert run(["construct", "--family", "diag", "--k", "5", "--n", "4"]) == 2


@pytest.mark.parametrize("flags", [
    ["--family", "diag", "--k", "5", "--d", "3"],
    ["--family", "golay", "--n", "5"],
    ["--family", "golay", "--k", "3"],
    ["--family", "golay", "--d", "2"],
    ["--family", "smax", "--n", "4", "--k", "2", "--seed", "7"],
    ["--family", "diag", "--k", "5", "--seed", "0"],
])
def test_construct_flag_the_family_ignores_is_usage(capsys, flags):
    assert run(["construct", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err


def test_construct_flags_that_agree_with_the_family(capsys):
    assert run(["construct", "--family", "golay", "--n", "12", "--k", "8"]) == 0
    assert run(["construct", "--family", "gv", "--n", "4", "--k", "2", "--seed", "3"]) == 0


def test_golay_code_pipeline(capsys, monkeypatch):
    assert run(["code", "golay"]) == 0
    code_doc, _ = _out(capsys)
    assert code_doc["dim"] == 12 and code_doc["length"] == 24

    _feed(monkeypatch, code_doc)
    assert run(["code", "mindist"]) == 0
    dist_doc, _ = _out(capsys)
    assert dist_doc["min_distance"] == 8

    _feed(monkeypatch, code_doc)
    assert run(["code", "to-cover"]) == 0
    cover_doc, _ = _out(capsys)

    _feed(monkeypatch, cover_doc)
    assert run(["verify", "--k", "8"]) == 0
    report, _ = _out(capsys)
    assert report["origin_count"] == 0

    _feed(monkeypatch, cover_doc)
    assert run(["code", "from-cover"]) == 0
    code_again, _ = _out(capsys)
    assert sorted(code_again["rows"]) == sorted(code_doc["rows"])


def test_golay_code_refuses_an_input(tmp_path, capsys):
    # code golay reads nothing, so a --in it would ignore is a usage error
    assert run(["code", "golay", "--in", str(tmp_path / "missing.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--in" in err


def test_restrict_pipe(capsys, monkeypatch):
    C = gv_random_cover(4, 2, seed=9)
    _feed(monkeypatch, C.to_json())
    assert run(["restrict", "--normal", "0x3"]) == 0
    doc, err = _out(capsys)
    assert doc["n"] == 3
    assert "restricted to n=3" in err


def test_restrict_zero_normal_is_negative(capsys, monkeypatch):
    C = gv_random_cover(4, 2, seed=9)
    _feed(monkeypatch, C.to_json())
    assert run(["restrict", "--normal", "0x0"]) == 1


def test_restrict_to_nothing_names_the_empty_restriction(capsys, monkeypatch):
    # the one entry x.1 = 1 misses the hyperplane x.1 = 0
    _feed(monkeypatch, {"n": 2, "d": 1, "entries": [
        {"subspace": {"normals": ["0x1"], "rhs": "0b1", "n": 2}, "mult": 3}
    ]})
    assert run(["restrict", "--normal", "0x1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "is empty" in captured.err


def test_bound_cell_report(capsys):
    assert run(["bound", "--n", "6", "--k", "3"]) == 0
    doc, err = _out(capsys)
    assert doc["lo"] == 9 and doc["hi"] == 9
    tags = {r["tag"] for r in doc["rules"]}
    assert "ThmC" in tags and "Construction(l31)" in tags
    assert "lo=9 hi=9" in err


def test_bound_single_rule_and_not_applicable(capsys):
    assert run(["bound", "--n", "3", "--k", "2", "--rule", "ThmA"]) == 0
    doc, _ = _out(capsys)
    assert doc["rules"] == [{"tag": "ThmA", "side": "both", "value": 4}]
    assert run(["bound", "--n", "8", "--k", "2", "--rule", "ThmA"]) == 1
    capsys.readouterr()
    # with --s the rows searched are the g rows at s, and the message says which s
    assert run(["bound", "--n", "3", "--k", "2", "--s", "1", "--rule", "ThmA"]) == 1
    _, err = capsys.readouterr()
    assert "not applicable at n=3 k=2 d=1 s=1" in err


def test_bound_fixed_origin_rules(capsys):
    assert run(["bound", "--n", "5", "--k", "4", "--s", "2"]) == 0
    doc, _ = _out(capsys)
    tags = {r["tag"]: r["value"] for r in doc["rules"]}
    assert tags["RestrictionDescent"] == 10
    # the code-length row is exact-s: it reads 10 at s=1, above RestrictionDescent
    assert run(["bound", "--n", "5", "--k", "4", "--s", "1"]) == 0
    doc, _ = _out(capsys)
    assert {"tag": "CodeLength", "side": "lo", "value": 10} in doc["rules"]
    assert (doc["lo"], doc["s"]) == (10, 1)
    # g(5,5,1;1) is at least f(5,5,1): the AtLeastF row lifts lo to the
    # solver's root floor
    assert run(["bound", "--n", "5", "--k", "5", "--s", "1"]) == 0
    doc, _ = _out(capsys)
    assert {"tag": "AtLeastF", "side": "lo", "value": 11} in doc["rules"]
    assert doc["lo"] == 11 == solve_g(5, 5, 1, 1, max_nodes=0).proof_lo
    # s out of range is a usage error, not a negative answer
    assert run(["bound", "--n", "5", "--k", "4", "--s", "4"]) == 2


def test_bound_at_s_is_the_solver_root_floor(capsys):
    for d in (1, 2):
        for n in range(d, 7):
            for k in range(1, 9):
                for s in range(k):
                    argv = ["bound", "--n", str(n), "--k", str(k), "--d", str(d), "--s", str(s)]
                    assert run(argv) == 0
                    doc, _ = _out(capsys)
                    assert doc["lo"] == solve_g(n, k, d, s, max_nodes=0).proof_lo, argv


@pytest.mark.parametrize(
    "argv,value",
    [(["--n", "30", "--k", "3", "--d", "26"], 201_326_594),
     (["--n", "1000000000", "--k", "3"], 1_000_000_003)],
)
def test_bound_builds_no_big_integer(capsys, argv, value):
    # Theorems A and B compare bit lengths, not 2^(2^d k - d - k + 1) or
    # 2^(n-d-1), and Griesmer's sum counts its tail of ones
    tracemalloc.start()
    try:
        code = run(["bound", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc, _ = _out(capsys)
    assert (code, doc["lo"], doc["hi"]) == (0, value, value)
    assert peak < 1 << 20


def test_table_formats(capsys):
    assert run(["table", "--nmax", "4", "--kmax", "4", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "n\\k,1,2,3,4"
    assert "anchors" in captured.err

    assert run(["table", "--nmax", "4", "--kmax", "4", "--format", "json"]) == 0
    doc, _ = _out(capsys)
    assert doc["version"] == 1 and len(doc["cells"]) == 16

    assert run(["table", "--nmax", "4", "--kmax", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("| n\\k |")


def test_table_empty_rectangle_is_usage(capsys):
    assert run(["table", "--nmax", "4", "--kmax", "0"]) == 2
    assert "empty rectangle" in capsys.readouterr().err


def test_table_anchor_file_and_contradiction(tmp_path, capsys):
    good = tmp_path / "extra.json"
    good.write_text(json.dumps({"anchors": [
        {"n": 4, "k": 2, "d": 1, "value": 5, "source": "byhand"}
    ]}))
    assert run(["table", "--nmax", "4", "--kmax", "2", "--anchors", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"anchors": [
        {"n": 4, "k": 2, "d": 1, "hi": 3, "source": "wrong"}
    ]}))
    assert run(["table", "--nmax", "4", "--kmax", "2", "--anchors", str(bad)]) == 1
    _, err = capsys.readouterr()
    assert "contradiction" in err


def test_solve_emits_result_json(capsys):
    assert run(["solve", "--n", "3", "--k", "3"]) == 0
    doc, err = _out(capsys)
    assert doc["status"] == "optimal" and doc["value"] == 6
    assert "f(3,3,1)" in err


def test_solve_fixed_origin_flags(capsys):
    assert run(["solve", "--n", "4", "--k", "2", "--s-max"]) == 0
    doc, _ = _out(capsys)
    assert doc["value"] == 6  # n + 2k - 2
    # --s-max means --s k-1: the same document
    assert run(["solve", "--n", "4", "--k", "2", "--s", "1"]) == 0
    assert _out(capsys)[0] == doc
    assert run(["solve", "--n", "4", "--k", "2", "--s", "0"]) == 0
    doc, _ = _out(capsys)
    assert doc["value"] == 5


def test_solve_stopped_by_a_budget_exits_3_with_its_best_cover(capsys):
    # f(6,4,1) = 11 is met by a seed, and proving it takes more than 1,000 nodes
    assert run(["solve", "--n", "6", "--k", "4", "--budget-nodes", "1000"]) == 3
    doc, err = _out(capsys)
    assert doc["status"] == "feasible" and doc["value"] == 11 and doc["nodes"] == 1001
    assert doc["certificate"]["entries"] and "feasible value=11" in err


def test_decide_exit_codes(capsys):
    assert run(["decide", "--n", "3", "--k", "3", "--size", "6"]) == 0
    capsys.readouterr()
    assert run(["decide", "--n", "3", "--k", "3", "--size", "5"]) == 1
    capsys.readouterr()


def test_parameter_errors_are_usage(capsys):
    # out-of-range n, k, d, s or size is a usage error, not a negative answer
    assert run(["solve", "--n", "3", "--k", "3", "--s", "7"]) == 2
    assert run(["solve", "--n", "3", "--k", "3", "--d", "4"]) == 2
    assert run(["decide", "--n", "3", "--k", "0", "--size", "3"]) == 2
    assert run(["decide", "--n", "3", "--k", "3", "--size", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "need k >= 1" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("F2COVER_MAX_NODES", "0")
    assert run(["solve", "--n", "3", "--k", "3", "--s", "0"]) == 3
    doc, _ = _out(capsys)
    assert doc["status"] == "unknown"
    # explicit flag beats the environment
    monkeypatch.setenv("F2COVER_MAX_NODES", "0")
    assert run(["solve", "--n", "3", "--k", "3", "--s", "0",
                "--budget-nodes", "100000"]) == 0


@pytest.mark.parametrize("flags,env", [
    (["--budget-nodes", "-5"], {}),
    (["--budget-seconds", "-1"], {}),
    (["--budget-seconds", "nan"], {}),
    (["--budget-seconds", "inf"], {}),
    ([], {"F2COVER_MAX_NODES": "abc"}),
    ([], {"F2COVER_MAX_NODES": "-1"}),
    ([], {"F2COVER_MAX_SECONDS": "nan"}),
    ([], {"F2COVER_MAX_SECONDS": "-0.5"}),
])
def test_malformed_budget_is_usage(capsys, monkeypatch, flags, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert run(["solve", "--n", "3", "--k", "3", "--s", "0", *flags]) == 2
    assert run(["decide", "--n", "3", "--k", "3", "--size", "5", *flags]) == 2
    assert capsys.readouterr().out == ""


def test_assume_high_origin_excludes_fixed_s(capsys):
    assert run(["solve", "--n", "3", "--k", "3", "--s", "1", "--assume-high-origin"]) == 2
    assert run(["solve", "--n", "3", "--k", "3", "--s-max", "--assume-high-origin"]) == 2
    assert run(["solve", "--n", "3", "--k", "3", "--assume-high-origin"]) == 0


def test_a_conditional_optimum_says_so_on_stderr(capsys):
    assert run(["solve", "--n", "5", "--k", "4", "--assume-high-origin"]) == 0
    doc, err = _out(capsys)
    assert doc["assumptions"] == ["origin_count >= k-2"]
    assert err == "f(5,4,1): optimal value=10 nodes=0 proof_lo=10 assuming origin_count >= k-2\n"
    # an unconditional run prints no label
    assert run(["solve", "--n", "5", "--k", "4"]) == 0
    doc, err = _out(capsys)
    assert doc["assumptions"] == []
    assert err == "f(5,4,1): optimal value=10 nodes=533 proof_lo=9\n"


def test_seed_cover_file(tmp_path, capsys):
    C = gv_random_cover(4, 2, seed=4)
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(C.to_json()))
    assert run(["decide", "--n", "4", "--k", "2", "--size", str(C.size),
                "--seed-cover", str(path)]) == 0


def test_bad_json_input_is_usage(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    assert run(["verify", "--k", "2"]) == 2


def test_missing_file_is_usage(capsys):
    assert run(["verify", "--k", "2", "--in", "/nonexistent/cover.json"]) == 2


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "cover.json"
    assert run(["construct", "--family", "smax", "--n", "4", "--k", "2",
                "--out", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc["n"] == 4


def test_decide_at_the_top_origin_count(capsys):
    # g(4,2,1;1) = n + 2k - 2 = 6
    assert run(["decide", "--n", "4", "--k", "2", "--size", "6", "--s-max"]) == 0
    doc, _ = _out(capsys)
    assert doc["status"] == "feasible" and doc["value"] == 6
    # --s-max means --s k-1: the same document
    assert run(["decide", "--n", "4", "--k", "2", "--size", "6", "--s", "1"]) == 0
    assert _out(capsys)[0] == doc
    assert run(["decide", "--n", "4", "--k", "2", "--size", "5", "--s-max"]) == 1
    doc, _ = _out(capsys)
    assert doc["status"] == "infeasible"


def test_construct_lemma31(capsys, monkeypatch):
    # n + 2k - 3 hyperplanes with origin count k-2
    assert run(["construct", "--family", "l31", "--n", "5", "--k", "3"]) == 0
    doc, err = _out(capsys)
    assert doc["tag"] == {"name": "Lemma31", "n": 5, "k": 3, "d": 1}
    assert "size=8 s=1 min_nonzero=3" in err
    _feed(monkeypatch, doc)
    assert run(["verify", "--k", "3"]) == 0


def test_table_markdown_to_a_file(tmp_path, capsys):
    # the file holds what stdout would show
    assert run(["table", "--nmax", "4", "--kmax", "4"]) == 0
    shown = capsys.readouterr().out
    target = tmp_path / "table.md"
    assert run(["table", "--nmax", "4", "--kmax", "4", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == shown and shown.startswith("| n\\k |")
    assert shown.endswith(" |\n") and not shown.endswith("\n\n")
    assert run(["table", "--nmax", "4", "--kmax", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out.endswith("\n4,4,5*,7*,8\n")


def test_verify_k_below_one_is_usage(capsys, monkeypatch):
    _feed(monkeypatch, gv_random_cover(3, 2, seed=1).to_json())
    assert run(["verify", "--k", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "need k >= 1, got 0" in err


def test_verify_refuses_a_size_past_the_count_limit(capsys, monkeypatch):
    # a multiplicity of 2^32 would carry out of its point's 32-bit count
    doc = gv_random_cover(3, 2, seed=1).to_json()
    doc["entries"][0]["mult"] = 1 << 32
    _feed(monkeypatch, doc)
    assert run(["verify", "--k", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "2^32 - 1" in err


def test_unparsable_normal_is_usage(capsys, monkeypatch):
    _feed(monkeypatch, gv_random_cover(4, 2, seed=9).to_json())
    assert run(["restrict", "--normal", "zz"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--normal" in err


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "smax", "--n", "25", "--k", "2"],
    ["solve", "--n", "30", "--k", "3"],
    ["decide", "--n", "30", "--k", "3", "--size", "40"],
    # past the point-loop limit of 20, below the vector width of 24
    ["construct", "--family", "smax", "--n", "21", "--k", "2"],
    ["solve", "--n", "21", "--k", "3"],
    ["decide", "--n", "21", "--k", "3", "--size", "40"],
])
def test_dimension_above_the_cap_is_usage(capsys, argv):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "ambient dimension" in err


@pytest.mark.parametrize("argv,limit", [
    (["decide", "--n", "9", "--k", "3", "--d", "4", "--size", "60", "--s", "0"], "would pass 512 MiB"),
    (["decide", "--n", "9", "--k", "3", "--d", "3", "--size", "40", "--s", "0"], "exceeds the limit of 2000000"),
])
def test_a_search_the_solver_refuses_is_usage(capsys, argv, limit):
    # nothing was proved, so the exit is 2, not decide's infeasible 1
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and limit in err


def test_bound_takes_any_dimension(capsys):
    # the closed forms hold for every n; Theorem C meets Lemma 3.1 here
    assert run(["bound", "--n", "30", "--k", "3"]) == 0
    doc, _ = _out(capsys)
    assert (doc["lo"], doc["hi"]) == (33, 33)


def test_non_integer_document_fields_are_negative(tmp_path, capsys, monkeypatch):
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps({"anchors": [
        {"n": 5, "k": 4, "d": 1, "value": 9.9, "source": "byhand"}
    ]}))
    assert run(["table", "--nmax", "5", "--kmax", "4", "--anchors", str(anchors)]) == 1
    assert "must be an integer" in capsys.readouterr().err

    doc = gv_random_cover(3, 2, seed=1).to_json()
    doc["entries"][0]["mult"] = 2.9
    _feed(monkeypatch, doc)
    assert run(["verify", "--k", "2"]) == 1
    assert "must be an integer" in capsys.readouterr().err


def _line(n, mult=1):
    return {"version": 1, "n": n, "d": 1, "entries": [
        {"subspace": {"normals": ["0x1"], "rhs": "0b1", "n": n}, "mult": mult}]}


# the 21 hyperplanes x_i = 1, a 1-cover of F_2^21
_COORDINATES_21 = {"version": 1, "n": 21, "d": 1, "entries": [
    {"subspace": {"normals": [hex(1 << i)], "rhs": "0b1", "n": 21}, "mult": 1} for i in range(21)]}
_VERIFY = ["verify", "--k", "1", "--in"]


@pytest.mark.parametrize(
    "argv,doc,message",
    [
        (_VERIFY, [], "a document must be a JSON object, not list"),
        (_VERIFY, {"n": 3, "d": 1, "entries": 5}, "'entries' must be a list"),
        (_VERIFY, {**_line(2), "tag": 5}, "malformed document"),
        (["table", "--nmax", "3", "--kmax", "3", "--anchors"], {"anchors": 5},
         "'anchors' must be a list"),
        (["table", "--nmax", "3", "--kmax", "3", "--anchors"], {"version": 99, "anchors": []},
         "unsupported anchor document version 99"),
        (["table", "--nmax", "3", "--kmax", "3", "--anchors"],
         {"anchors": [{"n": 3, "k": 2, "d": 1, "value": 5, "source": None}]},
         "'source' must be a string"),
        (_VERIFY,
         {**_line(2), "entries": [{"subspace": {"normals": "0x1", "rhs": "0b1", "n": 2}, "mult": 1}]},
         "'normals' must be a list"),
        (_VERIFY, _line(2, 0), "multiplicity 0 below 1"),
        (_VERIFY, _line(2, -2), "multiplicity -2 below 1"),
        (_VERIFY, _line(25), "ambient dimension 25 outside 1..24"),
        (_VERIFY, _line(0), "ambient dimension 0 outside 1..24"),
        (_VERIFY, _COORDINATES_21, "ambient dimension 21 above the point-loop limit 20"),
    ],
    ids=["list", "entries", "tag", "anchors", "anchor-version", "anchor-source", "normals",
         "mult0", "mult-2", "n25", "n0", "n21"],
)
def test_documents_of_the_wrong_shape_are_negative(tmp_path, capsys, argv, doc, message):
    # A wrong JSON type anywhere in a document is one error line and exit 1,
    # not a traceback, and a string of normals is not read one character
    # at a time.  So is a value out of range: a multiplicity below 1 or a
    # dimension outside 1..24, and a well-formed cover past the 2^20
    # points that verify walks, refused before the walk.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(argv + [str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: " + message) and err.count("\n") == 1


def test_the_bundled_f_6_11_1_cover_verifies(capsys):
    # The anchor f(6,11,1) <= 23 names this cover; ThmC gives lo 23.
    (anchor,) = [a for a in bundled_search_anchors() if (a.n, a.k, a.d) == (6, 11, 1)]
    assert (anchor.lo, anchor.hi, anchor.source) == (None, 23, "data/cover_6_11_1.json")
    path = resources.files("f2cover").joinpath(anchor.source)
    assert run(["verify", "--k", "11", "--in", str(path)]) == 0
    report, err = _out(capsys)
    assert (report["origin_count"], report["min_nonzero"]) == (3, 11)
    assert report["profile_checksum"] == "99ed864081d86d40"
    assert "size=23 " in err


@pytest.mark.parametrize(
    "argv,doc",
    [
        (["verify", "--k", "1"],
         {"version": 1, "n": 2, "d": 1, "entries": [
             {"subspace": {"normals": [1], "rhs": "0b1", "n": 2}, "mult": 1}]}),
        (["code", "mindist"], {"version": 1, "dim": 3, "length": 1, "rows": [5]}),
    ],
    ids=["verify", "mindist"],
)
def test_integer_masks_in_documents_are_negative(capsys, monkeypatch, argv, doc):
    # masks are written as strings ("0x1"); a JSON number is a malformed document
    _feed(monkeypatch, doc)
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: a mask must be a string")
