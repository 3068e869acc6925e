from __future__ import annotations

import io
import json

import pytest

from f2cover.cli import run
from f2cover.constructions import gv_random_cover


def _out(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


def _feed(monkeypatch, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run(["solve", "--what"]) == 2


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
    # thma needs k >= 4 at (n=5, d=2)
    assert run(["construct", "--family", "thma", "--n", "5", "--k", "2", "--d", "2"]) == 1


def test_construct_missing_params_is_usage(capsys):
    assert run(["construct", "--family", "l31"]) == 2
    assert run(["construct", "--family", "diag", "--k", "5", "--n", "4"]) == 2


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


def test_bound_fixed_origin_rules(capsys):
    assert run(["bound", "--n", "5", "--k", "4", "--s", "2"]) == 0
    doc, _ = _out(capsys)
    tags = {r["tag"]: r["value"] for r in doc["rules"]}
    assert tags["RestrictionDescent"] == 10
    # s out of range is a usage error, not a negative answer
    assert run(["bound", "--n", "5", "--k", "4", "--s", "4"]) == 2


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
    assert run(["solve", "--n", "4", "--k", "2", "--s", "0"]) == 0
    doc, _ = _out(capsys)
    assert doc["value"] == 5


def test_decide_exit_codes(capsys):
    assert run(["decide", "--n", "3", "--k", "3", "--size", "6"]) == 0
    capsys.readouterr()
    assert run(["decide", "--n", "3", "--k", "3", "--size", "5"]) == 1
    capsys.readouterr()


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("F2COVER_MAX_NODES", "0")
    assert run(["solve", "--n", "3", "--k", "3", "--s", "0"]) == 3
    doc, _ = _out(capsys)
    assert doc["status"] == "unknown"
    # explicit flag beats the environment
    monkeypatch.setenv("F2COVER_MAX_NODES", "0")
    assert run(["solve", "--n", "3", "--k", "3", "--s", "0",
                "--budget-nodes", "100000"]) == 0


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
