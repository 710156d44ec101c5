"""The benchmark uses braidmf by name: the tracer wraps functions by
dotted name, and the workloads call the CLI and the public API.

A renamed function is silently left unwrapped, and its per-layer metric
reads zero; a deleted one fails the benchmark run.  These tests load
``bench/tracer.py`` and ``bench/workloads.py`` by file path, without
installing them, and check that every name the tracer lists still
resolves to a function it can wrap and that every kind of workload
verdict still runs.
"""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from braidmf import cli
from braidmf.bmf import SurfaceParams, cusp_cluster_factorization, generate_bmf
from braidmf.braid import BraidWord, LetterCapExceeded, artin_rep
from braidmf.f2sym import group_closure
from braidmf.hurwitz import orbit_search
from oracles import identity_operator

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"


def _load(filename):
    name = f"bench_{Path(filename).stem}"
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod  # dataclasses look their module up by name
    spec.loader.exec_module(mod)
    return mod


tracer = _load("tracer.py")
workloads = _load("workloads.py")


def _summary_names():
    """The string arguments of calls_of/time_of in Tracer.summary."""
    summary = inspect.getsource(tracer.Tracer.summary)
    return set(re.findall(r'(?:calls_of|time_of)\("([^"]+)"\)', summary))


def _listed_names():
    perm = [f"perm.Perm.{m}" for m in (*tracer.PERM_METHODS, "__mul__", "__eq__")]
    names = {*tracer.COUNT_ONLY, *tracer.UNWRAPPED, *tracer._HOOKS, *perm}
    return sorted(names | _summary_names())


def test_summary_names_are_found():
    # guards the pattern above: summary() times or counts eleven names
    assert len(_summary_names()) >= 10


@pytest.mark.parametrize("name", _listed_names())
def test_tracer_name_resolves_to_a_function(name):
    layer, *attrs = name.split(".")
    assert layer in tracer.LAYERS
    mod = importlib.import_module(f"braidmf.{layer}")
    if len(attrs) == 1:
        # install() wraps only functions defined in the layer's own module
        obj = getattr(mod, attrs[0], None)
        assert inspect.isfunction(obj) and obj.__module__ == mod.__name__
    else:
        cls_name, method = attrs
        raw = vars(getattr(mod, cls_name)).get(method)
        if isinstance(raw, classmethod):
            raw = raw.__func__
        assert inspect.isfunction(raw)


def test_tracer_hooks_read_real_results():
    # Each hook reads the return value of the function it is named after;
    # a changed return type would break only traced benchmark runs.
    hooks = tracer._HOOKS
    assert sorted(hooks) == [
        "bmf.generate_bmf",
        "braid.artin_rep",
        "f2sym.group_closure",
        "hurwitz.orbit_search",
    ]
    counts = tracer.Tracer().counts
    hooks["braid.artin_rep"](counts, artin_rep(BraidWord(3, [1, 2])), None, 0)
    assert counts["braid.image_letters_max"] > 3
    hooks["braid.artin_rep"](counts, None, LetterCapExceeded("over cap"), 0)
    assert counts["braid.cap_exceeded"] == 1

    start, target, _ = cusp_cluster_factorization()
    found = orbit_search(start, target, max_depth=8)
    counts["hurwitz.move_calls"] = 7  # as the count wrapper would leave it
    hooks["hurwitz.orbit_search"](counts, found, None, 2)
    assert found.found and counts["hurwitz.search_nodes"] == found.visited > 0
    assert counts["hurwitz.search_moves"] == 5

    for gens in ([identity_operator(2)], []):
        hooks["f2sym.group_closure"](counts, group_closure(gens), None, 0)
    assert counts["f2sym.closure_elements"] == 1

    bmf = generate_bmf(SurfaceParams(1, 1, 1, 1))
    hooks["bmf.generate_bmf"](counts, bmf, None, 0)
    assert counts["bmf.factors_generated"] == len(bmf.factors) > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_verdicts_run(tmp_path, name):
    # Seed 1's prologue and round 0, and the first verdict of each kind
    # run and judged, round first: verdicts marked long and the census
    # prologue's realize at a=b=c=d=24 are left out.  A name the workloads
    # use that the package no longer has raises here.
    workload = workloads.WORKLOADS[name]
    verdicts = workload.build_round(1, 0, tmp_path)
    verdicts += workload.build_prologue(1, tmp_path)
    judged = {}
    for v in verdicts:
        if not v.long and v.kind not in judged:
            judged[v.kind] = v.check(v.run())
    assert len(judged) >= 3


def test_workload_argv_take_the_table_parse(tmp_path, monkeypatch):
    # Every CLI verdict of seeds 1-3, each with its prologue and rounds
    # 0-2, is read straight from cli.COMMANDS, not by argparse: among them
    # braid eq's --word1=..., hurwitz search's --file and verify s7's
    # --seed.  So no benchmark run builds an argparse parser.
    argvs = []
    monkeypatch.setattr(cli, "main", lambda argv: argvs.append(argv) or 0)
    for workload in workloads.WORKLOADS.values():
        for seed in (1, 2, 3):
            verdicts = workload.build_prologue(seed, tmp_path)
            for r in range(3):
                verdicts += workload.build_round(seed, r, tmp_path)
            for v in verdicts:
                if v.via_cli:
                    v.run()
    parsed = [cli._table_args(a) for a in argvs]
    assert [a for a, ns in zip(argvs, parsed) if ns is None] == []
    rows = {(ns.command, getattr(ns, "subcommand", None)) for ns in parsed}
    assert rows == set(cli.COMMANDS) - {("hurwitz", "act")}


# The traced tests run in a fresh interpreter, as a benchmark worker does:
# braidmf is imported, the tracer installed, then the body runs with the
# round's work directory in sys.argv[1] and prints one JSON object.
_TRACED_HEADER = """
import json, sys
from pathlib import Path
import workloads
from tracer import Tracer

tracer = Tracer()
tracer.install()
"""


def _traced(body, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH)])}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_HEADER + body, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# One census realize verdict.
_TRACED_REALIZE = """
verdicts = workloads.WORKLOADS["census"].build_round(1, 0, Path(sys.argv[1]))
verdict = next(v for v in verdicts if v.kind == "realize")
tracer.active = True
outcome = verdict.run()
tracer.active = False
assert verdict.check(outcome)
print(json.dumps(tracer.summary()))
"""


def test_traced_census_realize_counts_moves_and_products(tmp_path):
    # bench/test_trace.py asserts these counters are non-zero on census.
    # The realize verdict reaches hurwitz_move and Perm.__mul__ only while
    # the S4 move tables are built, so that must happen on first use in the
    # traced verdict, not at import.  The tracer maps act_word's and
    # realize's spans to census: realize must act through act_word.
    layers = _traced(_TRACED_REALIZE, tmp_path)
    assert layers["hurwitz.move_calls"] > 0
    assert layers["perm.mul_calls"] > 0
    assert layers["hurwitz.act_word_s"] > 0
    assert layers["bmf.realize_s"] > 0


# One nonconj and one s7 verdict of orbit round 0.
_TRACED_ORBIT = """
verdicts = workloads.WORKLOADS["orbit"].build_round(1, 0, Path(sys.argv[1]))
tracer.active = True
for kind in ("nonconj", "s7"):
    verdict = next(v for v in verdicts if v.kind == kind)
    assert verdict.check(verdict.run()), verdict.label
tracer.active = False
print(json.dumps(tracer.summary()))
"""


def test_traced_orbit_verdicts_count_layer_calls(tmp_path):
    # bench/test_trace.py asserts these counters are non-zero on orbit: the
    # verdicts must still send their entry states through the traced
    # Perm-level functions, not only through the HatBits walk.
    layers = _traced(_TRACED_ORBIT, tmp_path)
    for name in (
        "s4orbit.generator_steps",
        "s4orbit.in_hat_orbit_calls",
        "s4orbit.invariant_M_calls",
        "perm.eq_calls",
    ):
        assert layers[name] > 0, name


# The fibre round is built after the tracer is installed, so its vectors go
# through the installed f2sym.F2Vec and F2Vec.basis.
_TRACED_FIBRE = """
verdicts = workloads.WORKLOADS["fibre"].build_round(1, 0, Path(sys.argv[1]))
kinds = {}
tracer.active = True
for verdict in verdicts:
    if verdict.kind in ("chain-closure", "sp4-closure"):
        assert verdict.check(verdict.run()), verdict.label
        kinds[verdict.kind] = kinds.get(verdict.kind, 0) + 1
tracer.active = False
print(json.dumps({"kinds": kinds, "layers": tracer.summary()}))
"""


def test_traced_fibre_closures_build_vectors_through_f2vec(tmp_path):
    # The tracer wraps every public module-level function, and its wrapper
    # has no attributes: a function-shaped F2Vec would lose F2Vec.basis.
    out = _traced(_TRACED_FIBRE, tmp_path)
    assert out["kinds"] == {"chain-closure": 2, "sp4-closure": 2}
    assert out["layers"]["f2sym.closure_calls"] == 4
