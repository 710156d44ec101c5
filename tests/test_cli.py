import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from braidmf.cli import COMMANDS, _table_args, build_parser, main


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


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_bmf_gen_over_the_factor_cap_exits_3(monkeypatch, capsys, json_flag):
    # a=b=c=d=53 has 201,400 factors, just above the cap: refused from the
    # closed-form count, before any block is built
    def build(*args):
        raise AssertionError("blocks built")

    monkeypatch.setattr("braidmf.bmf._side", build)
    code = main(["bmf", "gen", "--a", "53", "--b", "53", "--c", "53",
                 "--d", "53", *json_flag])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == "error: factorization of 201400 factors exceeds cap 200000\n"


def test_bmf_gen_json_streams(tmp_path, capsys, monkeypatch):
    # the report goes out part by part: at a=b=c=d=24, 5.7 MB of JSON, the
    # text is json_text() and one newline, and writing it to a file peaks
    # under 2 MB, where print(json_text()) peaked at 11.5 MB
    from braidmf.bmf import SurfaceParams, generate_bmf

    argv = ["bmf", "gen", "--a", "24", "--b", "24", "--c", "24", "--d", "24",
            "--json"]
    code, out = _run(capsys, *argv)
    assert code == 0
    assert out == generate_bmf(SurfaceParams(24, 24, 24, 24)).json_text() + "\n"
    path = tmp_path / "gen.json"
    with open(path, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 2 << 20, peak
    assert path.read_text() == out


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


@pytest.mark.parametrize("command", ["arf", "classify"])
def test_cross_space_over_the_dimension_cap_exits_3(capsys, command):
    # a + c = 252 gives dimension 1002, just above CROSS_MAX_DIM = 1000
    code = main([command, "--a", "126", "--c", "126", "--json"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == "error: cross space dimension 1002 exceeds cap 1000\n"


@pytest.mark.parametrize("command", ["nonconj", "s7"])
@pytest.mark.parametrize("b", ["25000", "99999999999999999999"])
def test_verify_over_the_slot_cap_exits_3(monkeypatch, capsys, command, b):
    # 4(b+d) slots above TAU_MAX_SLOTS = 100,000 are refused before any
    # factorization is built, however large the int
    def build(*args):
        raise AssertionError("a factorization was built")

    monkeypatch.setattr("braidmf.s4orbit.TauFactorization", build)
    code = main(["verify", command, "--b", b, "--d", "1", "--json"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and "Traceback" not in err
    slots = 4 * (int(b) + 1)  # 100004 at b = 25000, just above the cap
    assert err == f"error: factorization of {slots} slots exceeds cap 100000\n"


def test_braid_eq_on_a_huge_strand_count(capsys):
    # the coordinates grow only with the strands the letters touch
    code = main(["braid", "eq", "--strands", "99999999999999999999",
                 "--word1", "1", "--word2", "1"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert "PASS    braid equality — words are equal as braids" in out


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


@pytest.mark.parametrize("flag, text", [
    ("--word1", "1,,2"), ("--word1", "1,2,"), ("--word1", ","),
    ("--word2", " , "), ("--word2", "1,x"), ("--word2", "1;2"),
])
def test_malformed_word_list_is_bad_input(capsys, flag, text):
    # an empty item is an error, not skipped: 1,,2 must not read as 1,2
    words = {"--word1": "1,2", "--word2": "1,2", flag: text}
    argv = ["braid", "eq", "--strands", "3"]
    code = main(argv + [f"{k}={v}" for k, v in words.items()])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err == (
        f"error: {flag} must be a comma-separated list of integers; it is {text!r}\n"
    )


def test_only_a_blank_word_list_is_the_empty_word(capsys):
    code, out = _run(capsys, "braid", "eq", "--strands", "3",
                     "--word1=", "--word2= ", "--json")
    assert code == 0
    assert json.loads(out)["params"] == {"strands": 3, "word1": [], "word2": []}


def test_braid_eq_memory_does_not_grow_with_strands(capsys):
    # over the 10**6-letter cap of the Artin images, which hold one free
    # generator per strand; the coordinates hold at most 2n + 1 pairs for
    # n letters, whatever the strands or the highest index (10**20 is no
    # list length)
    equal = "PASS    braid equality — words are equal as braids"
    differ = "FAIL    braid equality — words differ as braids"
    for strands, word2, code_want, line in [
        (1000001, "", 0, equal),
        (1000001, 1000000, 1, differ),
        (10**22, 10**20, 1, differ),
    ]:
        argv = ["braid", "eq", f"--strands={strands}", "--word1=", f"--word2={word2}"]
        assert _table_args(argv) is not None  # no parser is built inside the peak
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == code_want and err == ""
        assert line in out
        # a pointer per strand alone would be 8 MB
        assert peak < 100_000, word2


# Values that argparse reads in ways a table parse could get wrong: negative
# numbers, an empty string, underscores and non-ASCII digits in an int, an
# "=" inside a value, and option strings as values.
_ODD_VALUES = ["-3", "-1,2", "", "x", "5_0", "\u0663", "a=b", "--json", "-h"]


def _draw_argv(rng):
    """A seeded argv for one COMMANDS row: its flags in any order, spelt
    exactly, abbreviated or as --flag=value, some left out or repeated,
    a digit or one of _ODD_VALUES, and now and then an unknown flag."""
    row = rng.choice(list(COMMANDS))
    options = COMMANDS[row][0]
    argv = [*filter(None, row)]
    for flag, kind, *default in rng.sample(options, len(options)):
        if rng.random() < (0.3 if default else 0.03):
            continue
        for _ in range(1 + (rng.random() < 0.05)):
            spelt = rng.choice([flag] * 3 + [flag[: rng.randrange(3, len(flag) + 1)]])
            value = str(rng.randrange(10))
            if rng.random() < 0.3:
                value = rng.choice(_ODD_VALUES)
            if kind is bool:
                argv += [spelt] if rng.random() < 0.9 else [f"{spelt}={value}"]
            elif rng.random() < 0.3:
                argv.append(f"{spelt}={value}")
            else:
                argv += [spelt, value]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(2, len(argv) + 1), "--nope")
    return argv


def test_table_parse_matches_argparse_where_it_accepts():
    # The table reads a subset of argv; wherever it gives a namespace, it
    # must be argparse's, attribute for attribute and in argparse's order
    # (the text reports print params in that order).
    rng = random.Random(37)
    parser, accepted = build_parser(), set()
    for _ in range(20_000):
        argv = _draw_argv(rng)
        got = _table_args(argv)
        if got is not None:
            want = parser.parse_args(argv)
            assert list(vars(got).items()) == list(vars(want).items()), argv
            accepted.add((got.command, getattr(got, "subcommand", None)))
    assert accepted == set(COMMANDS)


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


@pytest.mark.parametrize("command", ["nonconj", "s7"])
@pytest.mark.parametrize("trials", ["1000001", "100000000000000000000"])
def test_trials_over_the_cap_exit_3(monkeypatch, capsys, command, trials):
    # more than TRIALS_MAX = 1,000,000 trials is refused before anything is
    # built, so a huge --trials no longer runs until killed
    def build(*args):
        raise AssertionError("a factorization was built")

    monkeypatch.setattr("braidmf.s4orbit.TauFactorization", build)
    monkeypatch.setattr("braidmf.s4orbit.HatBits", build)
    code = main(["verify", command, "--b", "1", "--d", "1", "--trials", trials])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and err == f"error: {trials} trials exceed cap 1000000\n"


def test_trials_cap_admits_its_value():
    from braidmf.s4orbit import TRIALS_MAX, _check_trials

    assert TRIALS_MAX == 1_000_000
    assert _check_trials(TRIALS_MAX) is None


def test_hurwitz_act_move_out_of_range(tmp_path, capsys):
    path = tmp_path / "fact.json"
    path.write_text(json.dumps({"group": "s4", "elements": [[2, 1, 3, 4]] * 2}))
    code = main(["hurwitz", "act", "--file", str(path), "--moves", "5"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "move index 5 out of range" in err


@pytest.mark.parametrize("elements", [[], [[2, 1, 3, 4]]], ids=["empty", "one"])
def test_hurwitz_act_without_moves_to_make(tmp_path, capsys, elements):
    path = tmp_path / "fact.json"
    path.write_text(json.dumps({"group": "s4", "elements": elements}))
    code = main(["hurwitz", "act", "--file", str(path), "--moves", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == (
        f"error: move index 1: a factorization of length {len(elements)}"
        " has no moves\n"
    )


@pytest.mark.parametrize("moves, code, tail", [
    ("1,,1", 2, "error: --moves must be a comma-separated list of integers;"
                " it is '1,,1'\n"),
    ("-1,", 2, "error: --moves must be a comma-separated list of integers;"
               " it is '-1,'\n"),
    ("1,one", 2, "error: --moves must be a comma-separated list of integers;"
                 " it is '1,one'\n"),
    ("", 0, ""),
], ids=["empty-item", "trailing-comma", "non-integer", "no-moves"])
def test_hurwitz_act_move_list(tmp_path, capsys, moves, code, tail):
    doc = {"group": "s4", "elements": [[2, 1, 3, 4], [1, 3, 2, 4]]}
    path = tmp_path / "fact.json"
    path.write_text(json.dumps(doc))
    assert main(["hurwitz", "act", "--file", str(path), f"--moves={moves}"]) == code
    out, err = capsys.readouterr()
    assert err == tail
    if code == 0:  # no moves: the factorization comes back as it was
        assert json.loads(out)["elements"] == doc["elements"]
    else:
        assert out == ""


def _braid_act(tmp_path, repeats):
    # three strands, the moves 1,-2 repeated: the factors' letters grow
    # exponentially, about 2.6-fold per repeat
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(
        {"group": "braid", "strands": 3, "elements": [[1], [2], [1]]}
    ))
    return path, ",".join(["1,-2"] * repeats)


def test_hurwitz_act_braid_output_is_unchanged_under_the_letter_cap(
    tmp_path, capsys
):
    from braidmf.braid import BraidWord
    from braidmf.hurwitz import hurwitz_move
    from braidmf.perm import _indented_json

    path, moves = _braid_act(tmp_path, 12)
    code, out = _run(capsys, "hurwitz", "act", "--file", str(path),
                     "--moves", moves)
    f = (BraidWord(3, [1]), BraidWord(3, [2]), BraidWord(3, [1]))
    for k in map(int, moves.split(",")):
        f = hurwitz_move(f, k)
    doc = {"group": "braid", "elements": [list(w.letters) for w in f],
           "strands": 3}
    assert code == 0
    assert out == _indented_json(doc) + "\n"
    assert len(out) == 1_089_031


def test_hurwitz_act_braid_letter_cap_exits_3_within_its_memory(tmp_path):
    # 40 moves would make factors of billions of letters: the run stops
    # at the first move past braid.LETTER_CAP letters in all, under a
    # 512 MiB address space, where it used to end in a MemoryError
    path, moves = _braid_act(tmp_path, 20)
    limit = 512 << 20
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "braidmf.cli", "hurwitz", "act",
         "--file", str(path), "--moves", moves],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "error: acted factors of 1271247 letters exceed cap 1000000\n"
    )


def test_hurwitz_act_letter_cap_is_read_when_it_runs(tmp_path, capsys,
                                                     monkeypatch):
    # checked after each move: (1, 2, 1) has 3 letters, move 1 makes 5
    monkeypatch.setattr("braidmf.braid.LETTER_CAP", 4)
    path, _ = _braid_act(tmp_path, 1)
    code = main(["hurwitz", "act", "--file", str(path), "--moves", "1,-1"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "error: acted factors of 5 letters exceed cap 4\n"
    monkeypatch.setattr("braidmf.braid.LETTER_CAP", 5)
    assert main(["hurwitz", "act", "--file", str(path), "--moves", "1,-1"]) == 0
    assert json.loads(capsys.readouterr().out)["elements"] == [[1], [2], [1]]


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

    monkeypatch.setattr("braidmf.braid.braid_equal", over_cap)
    code = main(["braid", "eq", "--strands", "3", "--word1", "1", "--word2", "2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and err == "error: automorphism over cap 5\n"


def test_a_key_error_is_a_bug_not_bad_input(monkeypatch):
    # only an out-of-range move (an IndexError) is a lookup error of bad input
    def broken(a, c):
        raise KeyError("x")

    monkeypatch.setattr("braidmf.f2sym.classify_cross", broken)
    with pytest.raises(KeyError, match="x"):
        main(["classify", "--a", "3", "--c", "3"])


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
    for text, message in (
        ('{"group": "s4", "elements": [[2, 1, 3, 4]', "Expecting ',' delimiter"),
        # too deep for the parser: a usage error, not a resource limit
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ):
        path.write_text(text)
        for sub in (["search"], ["act", "--moves", "1"]):
            code = main(["hurwitz", *sub, "--file", str(path)])
            out, err = capsys.readouterr()
            assert code == 2
            assert out == "" and err.startswith(f"error: {path}: {message}")


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


@pytest.mark.parametrize("doc, tail", [
    ({"group": "braid", "strands": 3, "elements": [[True], [2]]},
     "'elements' must be a list of integer lists; element 1 is [true]"),
    ({"group": "braid", "strands": True, "elements": [[1], [2]]},
     "'strands' must be an integer"),
    ({"group": "s4", "elements": [[2, 1, 3, 4], [False, 1, 3, 4]]},
     "'elements' must be a list of integer lists; element 2 is [false, 1, 3, 4]"),
    ({"group": "s4", "elements": [[2, 1, 3, 4, 5], [1, 3, 2, 4, 5]]},
     "'elements' must be a list of permutations of 1..4;"
     " element 1 is [2, 1, 3, 4, 5]"),
    ({"group": "braid", "strands": 1, "elements": [[], []]},
     "'strands' must be at least 2; it is 1"),
    ({"group": "braid", "strands": 3, "elements": [[1], [5]]},
     "'elements' must be a list of braid words on 3 strands; element 2 is [5]"),
    ({"group": "braid", "strands": 3, "elements": [[1, 0], [2]]},
     "'elements' must be a list of braid words on 3 strands; element 1 is [1, 0]"),
    ({"group": "braid", "strands": 4, "elements": [[2], [1, -4, 4]]},
     "'elements' must be a list of braid words on 4 strands;"
     " element 2 is [1, -4, 4]"),
], ids=["braid-bool-letter", "bool-strands", "s4-bool-point", "s4-degree-5",
        "one-strand", "letter-past-strands", "letter-zero", "cancelling-bad-pair"])
def test_bad_element_names_file_key_and_element(tmp_path, capsys, doc, tail):
    # a JSON boolean is no integer, an s4 element permutes exactly 1..4, a
    # braid needs two strands and letters +-1..+-(strands-1), checked as
    # written, before any cancellation
    path = tmp_path / "fact.json"
    path.write_text(json.dumps(doc))
    code = main(["hurwitz", "act", "--file", str(path), "--moves", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err == f"error: {path}: {tail}\n"


@pytest.mark.parametrize("sub", ["verify cluster", "hurwitz search"])
def test_negative_max_depth_is_bad_input(tmp_path, capsys, sub):
    path = tmp_path / "search.json"
    items = [[2, 1, 3, 4], [1, 2, 4, 3]]
    path.write_text(json.dumps({"group": "s4", "start": items, "target": items}))
    extra = ["--file", str(path)] if sub == "hurwitz search" else []
    code = main([*sub.split(), *extra, "--max-depth", "-1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err == "error: max depth -1 is negative\n"
    # depth 0 is a valid (if short) search
    code, out = _run(capsys, *sub.split(), *extra, "--max-depth", "0")
    assert code == (1 if sub == "verify cluster" else 0)


# A fresh interpreter imports the package, then the CLI (the benchmark's
# set-up probe), then every layer, and reports which braidmf submodules,
# and which of some costly modules, are loaded after each stage.
_IMPORT_STAGES = """
import json, sys

def loaded():
    subs = sorted(m for m in sys.modules if m.startswith("braidmf."))
    costly = ("dataclasses", "inspect", "numpy", "random", "typing")
    return {"modules": subs, "costly": [m for m in costly if m in sys.modules]}

import braidmf
out = {"public": [n for n in vars(braidmf) if not n.startswith("_")],
       "version": braidmf.__version__, "root": loaded()}
import braidmf.cli
braidmf.cli.build_parser()
out["cli"] = loaded()
import braidmf.braid, braidmf.hurwitz, braidmf.s4orbit, braidmf.bmf, braidmf.f2sym
out["core"] = loaded()
print(json.dumps(out))
"""


def _import_stages(*flags):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _IMPORT_STAGES],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_names_have_one_import_path():
    # The package root re-exports nothing, so each name is imported from
    # its module.  The benchmark's set-up probe imports braidmf.cli and
    # builds its parser, which loads no other braidmf module; every layer
    # then loads without numpy, and no stage loads dataclasses or inspect
    # either.
    out = _import_stages()
    assert out["public"] == [] and out["version"]
    assert out["root"]["modules"] == []
    assert out["cli"]["modules"] == ["braidmf.cli"]
    every = ["bmf", "braid", "cli", "f2sym", "hurwitz", "perm", "s4orbit"]
    assert out["core"]["modules"] == [f"braidmf.{m}" for m in every]
    for stage in ("root", "cli", "core"):
        assert not {"dataclasses", "inspect", "numpy"} & set(out[stage]["costly"])
    # Without the site module no .pth file preloads typing or random, so
    # the package's own imports show: none of the costly modules.
    bare = _import_stages("-S")
    for stage in ("root", "cli", "core"):
        assert bare[stage] == {"modules": out[stage]["modules"], "costly": []}


# A fresh interpreter runs one command and prints its exit code, the
# braidmf modules loaded by then and whether argparse is among them.
_COMMAND_MODULES = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from braidmf.cli import main

with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # a usage error
        code = exc.code
braidmf = sorted(m for m in sys.modules if m.startswith("braidmf."))
print(json.dumps([code, braidmf, "argparse" in sys.modules]))
"""


def _command_modules(argv):
    root = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", _COMMAND_MODULES, *argv.split()],
        capture_output=True, text=True, cwd=root / "golden",
        env={**os.environ, "PYTHONPATH": str(root.parent / "src")}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules, argparse_loaded = json.loads(proc.stdout)
    return code, {m.removeprefix("braidmf.") for m in modules}, argparse_loaded


S4_LAYERS = {"braid", "hurwitz", "perm", "s4orbit"}
BMF_LAYERS = {"bmf", "braid", "hurwitz", "perm"}
F2_LAYERS = {"f2sym", "perm"}
WORD_LAYERS = {"braid", "hurwitz", "perm"}
# Per COMMANDS row: cheap arguments and the layers the command loads.  A
# row missing here fails, and so does a top-level import added to cli.py.
LOADED_BY = {
    ("verify", "snake-table"): ("--json", S4_LAYERS),
    ("verify", "nonconj"): ("--b 1 --d 1 --trials 5 --json", S4_LAYERS),
    ("verify", "s7"): ("--b 1 --d 1 --trials 5 --json", S4_LAYERS),
    ("verify", "cluster"): ("--json", BMF_LAYERS),
    ("bmf", "gen"): ("--a 1 --b 2 --c 2 --d 1 --json", BMF_LAYERS),
    ("bmf", "counts"): ("--a 1 --b 2 --c 2 --d 1 --json", BMF_LAYERS),
    ("bmf", "distinguish"): (
        "--a 2 --b 3 --c 4 --d 3 --a2 3 --b2 3 --c2 3 --d2 3 --json", BMF_LAYERS
    ),
    ("arf", None): ("--a 5 --c 5 --json", F2_LAYERS),
    ("classify", None): ("--a 3 --c 3 --json", F2_LAYERS),
    ("obstruct", None): ("--a 3 --c 3 --a2 3 --c2 3 --json", F2_LAYERS),
    ("braid", "eq"): ("--strands 3 --word1 1,2,1 --word2 2,1,2 --json", WORD_LAYERS),
    ("hurwitz", "act"): ("--file fixtures/act_s4.json --moves 1,-2,2", WORD_LAYERS),
    ("hurwitz", "search"): ("--file fixtures/search_s4.json --json", WORD_LAYERS),
}


@pytest.mark.parametrize("row", COMMANDS, ids=lambda r: " ".join(filter(None, r)))
def test_each_command_loads_only_its_layers(row):
    args, layers = LOADED_BY[row]
    argv = " ".join(filter(None, (*row, args)))
    # well-formed argv is read from COMMANDS: argparse is never imported
    assert _command_modules(argv) == (0, {"cli", *layers}, False)


def test_a_usage_error_loads_only_the_cli():
    assert _command_modules("classify --a 3") == (2, {"cli"}, True)


_NUMPY_FREE = """
import io, sys
from contextlib import redirect_stdout
from braidmf.cli import main

for argv in sys.argv[1:]:
    with redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0, argv
    assert "numpy" not in sys.modules, argv
import numpy
assert "numpy" in sys.modules
"""


def test_no_command_loads_numpy():
    # Every COMMANDS row runs without importing numpy, and so does `arf`
    # at dimensions 10 and 22, where it runs the zero-count oracle; the
    # explicit import at the end shows that the check can see numpy
    # being loaded.
    argvs = [" ".join(filter(None, (*row, LOADED_BY[row][0]))) for row in COMMANDS]
    argvs += ["arf --a 2 --c 2", "arf --a 3 --c 4"]
    root = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE, *argvs],
        capture_output=True, text=True, cwd=root / "golden",
        env={**os.environ, "PYTHONPATH": str(root.parent / "src")}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
