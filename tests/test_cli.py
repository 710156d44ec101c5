import argparse
import gc
import json

import pytest

from braidmf.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_snake_table_passes(capsys):
    code, out = _run(capsys, "verify", "snake-table")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_json_report_schema(capsys):
    code, out = _run(capsys, "verify", "snake-table", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["command"] == "verify snake-table"
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_reports_are_byte_identical_for_same_seed(capsys):
    args = ("verify", "nonconj", "--b", "1", "--d", "1",
            "--trials", "200", "--seed", "5", "--json")
    code1, out1 = _run(capsys, *args)
    code2, out2 = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["seed"] == 5 and rep["trials"] == 200


def test_verify_s7(capsys):
    code, out = _run(capsys, "verify", "s7", "--b", "1", "--d", "1",
                     "--trials", "200", "--json")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["checks"]) == 5
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_verify_cluster(capsys):
    code, out = _run(capsys, "verify", "cluster", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["params"]["max_depth"] == 6
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_bmf_counts(capsys):
    code, out = _run(capsys, "bmf", "counts", "--a", "3", "--b", "3",
                     "--c", "3", "--d", "3", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["counts"]["m"] == 72 and rep["counts"]["k"] == 216


def test_bmf_gen(capsys):
    code, out = _run(capsys, "bmf", "gen", "--a", "1", "--b", "2",
                     "--c", "2", "--d", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["toy"] is True
    assert doc["census"]["by_type"]["cusp"] == 60


def test_bmf_distinguish(capsys):
    code, out = _run(capsys, "bmf", "distinguish",
                     "--a", "2", "--b", "3", "--c", "4", "--d", "3",
                     "--a2", "3", "--b2", "3", "--c2", "3", "--d2", "3",
                     "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "distinguished"


def test_arf_with_oracle(capsys):
    code, out = _run(capsys, "arf", "--a", "2", "--c", "2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["arf"] == 0
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["arf oracle"] == "pass"


def test_arf_oracle_runs_up_to_its_cap(capsys):
    # dim 22 lies under ARF_ORACLE_MAX_DIM = 24, so the oracle must run
    code, out = _run(capsys, "arf", "--a", "3", "--c", "4", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["params"]["dim"] == 22
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["arf oracle"] == "pass"


def test_arf_oracle_skipped_beyond_cap(capsys):
    code, out = _run(capsys, "arf", "--a", "5", "--c", "5", "--json")
    assert code == 0
    rep = json.loads(out)
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["arf oracle"] == "skipped"
    assert names["arf parity"] == "pass"


def test_classify_and_obstruct(capsys):
    code, out = _run(capsys, "classify", "--a", "2", "--c", "3", "--json")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "full_symplectic"
    code, out = _run(capsys, "obstruct", "--a", "2", "--c", "4",
                     "--a2", "3", "--c2", "3", "--json")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "obstructed"


def test_braid_eq_exit_codes(capsys):
    code, _ = _run(capsys, "braid", "eq", "--strands", "3",
                   "--word1", "1,2,1", "--word2", "2,1,2")
    assert code == 0
    code, _ = _run(capsys, "braid", "eq", "--strands", "3",
                   "--word1", "1", "--word2", "2")
    assert code == 1  # failed check


@pytest.mark.parametrize("word1, letter", [("-3", "(3,-1)"), ("0", "(0,-1)")])
def test_bad_letter_is_spelt_index_sign(capsys, word1, letter):
    code = main(["braid", "eq", "--strands", "3", f"--word1={word1}", "--word2", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err == f"error: bad letter {letter} on 3 strands\n"


def test_parser_is_built_once_per_process(capsys):
    # A parser built per call is cyclic garbage after it: under
    # DEBUG_SAVEALL the collector would keep its objects in gc.garbage.
    argv = ["verify", "s7", "--b", "1", "--d", "1", "--trials", "10", "--json"]
    main(argv)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, (
            argparse.ArgumentParser, argparse.Action, argparse._ArgumentGroup))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert leaked == []


def test_usage_error_exit_code(capsys):
    # b = 0 is rejected by the domain layer -> exit 2
    code = main(["verify", "nonconj", "--b", "0", "--d", "1", "--trials", "1"])
    assert code == 2


def test_hurwitz_act_roundtrip(tmp_path, capsys):
    doc = {"group": "s4", "elements": [[2, 1, 3, 4], [1, 2, 4, 3]]}
    path = tmp_path / "fact.json"
    path.write_text(json.dumps(doc))
    code, out = _run(capsys, "hurwitz", "act", "--file", str(path), "--moves", "1")
    assert code == 0
    moved = json.loads(out)
    # commuting transpositions: the forward move just swaps the slots
    assert moved["elements"] == [[1, 2, 4, 3], [2, 1, 3, 4]]


def test_hurwitz_search_braid_group(tmp_path, capsys):
    doc = {
        "group": "braid",
        "strands": 3,
        "start": [[1, 2, -1], [1]],
        "target": [[1], [2]],
    }
    path = tmp_path / "search.json"
    path.write_text(json.dumps(doc))
    code, out = _run(capsys, "hurwitz", "search", "--file", str(path),
                     "--max-depth", "3", "--json")
    assert code == 0
    assert json.loads(out)["checks"][0]["status"] == "pass"


def test_missing_file_exit_code(capsys):
    code = main(["hurwitz", "act", "--file", "/nonexistent.json", "--moves", "1"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "s7", "--b", "1", "--d", "1", "--trials", "-3"),
    ("verify", "nonconj", "--b", "1", "--d", "1", "--trials", "0"),
])
def test_trials_below_one_is_usage_error(capsys, argv):
    # no trials is no evidence: it must not print PASS
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith("error: trials must be >= 1")


def test_hurwitz_act_move_out_of_range(tmp_path, capsys):
    path = tmp_path / "fact.json"
    path.write_text(json.dumps({"group": "s4", "elements": [[2, 1, 3, 4]] * 2}))
    code = main(["hurwitz", "act", "--file", str(path), "--moves", "5"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "move index 5 out of range" in err


@pytest.mark.parametrize("sub", ["act", "search"])
def test_factorization_file_must_be_an_object(tmp_path, capsys, sub):
    path = tmp_path / "fact.json"
    path.write_text(json.dumps([[2, 1, 3, 4]]))
    extra = ["--moves", "1"] if sub == "act" else []
    code = main(["hurwitz", sub, "--file", str(path), *extra])
    assert code == 2
    assert "expected a JSON object" in capsys.readouterr().err


def test_resource_limit_exit_code(monkeypatch, capsys):
    from braidmf.braid import LetterCapExceeded

    def over_cap(w1, w2):
        raise LetterCapExceeded("automorphism over cap 5")

    monkeypatch.setattr("braidmf.cli.braid_equal", over_cap)
    code = main(["braid", "eq", "--strands", "3", "--word1", "1", "--word2", "2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and err == "error: automorphism over cap 5\n"


@pytest.mark.parametrize("sub, doc, key", [
    ("act", {"elements": [[2, 1, 3, 4]]}, "group"),
    ("search", {"group": "s4", "target": [[2, 1, 3, 4]]}, "start"),
    ("search", {"group": "s4", "start": [[2, 1, 3, 4]]}, "target"),
    ("act", {"group": "braid", "elements": [[1]]}, "strands"),
])
def test_missing_key_names_file_and_key(tmp_path, capsys, sub, doc, key):
    path = tmp_path / "fact.json"
    path.write_text(json.dumps(doc))
    extra = ["--moves", "1"] if sub == "act" else []
    code = main(["hurwitz", sub, "--file", str(path), *extra])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err == f"error: {path}: missing key '{key}'\n"


def test_bad_json_names_file(tmp_path, capsys):
    path = tmp_path / "fact.json"
    path.write_text('{"group": "s4", "elements": [[2, 1, 3, 4]')
    code = main(["hurwitz", "search", "--file", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith(f"error: {path}: Expecting ',' delimiter")


@pytest.mark.parametrize("sub", ["act", "search"])
@pytest.mark.parametrize("doc, key", [
    ({"group": "s4", "elements": 5}, "elements"),
    ({"group": "s4", "elements": [["x"]]}, "elements"),
    ({"group": "braid", "strands": 4, "elements": [1]}, "elements"),
    ({"group": "braid", "strands": "4", "elements": [[1]]}, "strands"),
])
def test_malformed_elements_name_file_and_key(tmp_path, capsys, sub, doc, key):
    doc = dict(doc)
    extra = ["--moves", "1"]
    if sub == "search":  # the same list as start and target
        items = doc.pop("elements")
        doc.update(start=items, target=items)
        key = "start" if key == "elements" else key
        extra = []
    path = tmp_path / "fact.json"
    path.write_text(json.dumps(doc))
    code = main(["hurwitz", sub, "--file", str(path), *extra])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith(f"error: {path}: '{key}' must be")
