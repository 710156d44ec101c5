"""The benchmark's own test: each per-layer metric is non-zero on the
workload it is mapped to, and the traced run leaves outputs unchanged.

    python3 -m pytest bench/test_trace.py

Takes a few minutes: one traced run and one untraced reference run per
workload, each the fixed prologue plus the rounds for 50 verdicts.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"

# layer metric -> the workload whose end-to-end metrics it should move
MAPPED = {
    "perm.mul_calls": "census",
    "perm.eq_calls": "orbit",
    "perm.self_s": "orbit",
    "s4orbit.generator_steps": "orbit",
    "s4orbit.in_hat_orbit_calls": "orbit",
    "s4orbit.checks_per_step": "orbit",
    "s4orbit.invariant_M_calls": "orbit",
    "s4orbit.self_s": "orbit",
    "braid.artin_rep_calls": "braid",
    "braid.artin_rep_s": "braid",
    "braid.braid_equal_s": "braid",
    "braid.image_letters_max": "braid",
    "braid.cap_exceeded": "braid",
    "hurwitz.search_calls": "braid",
    "hurwitz.search_nodes": "braid",
    "hurwitz.search_s": "braid",
    "hurwitz.search_useful_ratio": "braid",
    "hurwitz.move_calls": "census",
    "hurwitz.act_word_s": "census",
    "f2sym.closure_calls": "fibre",
    "f2sym.closure_elements": "fibre",
    "f2sym.closure_s": "fibre",
    "f2sym.preserves_q_calls": "fibre",
    "f2sym.preserves_q_s": "fibre",
    "f2sym.arf_oracle_s": "fibre",
    "f2sym.self_s": "fibre",
    "bmf.factors_generated": "census",
    "bmf.generate_s": "census",
    "bmf.census_s": "census",
    "bmf.realize_s": "census",
    "cli.calls": "census",
    "cli.self_s": "census",
    "cli.output_bytes": "census",
}


def traced(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
        timeout=180,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["orbit", "fibre", "braid", "census"])
def test_mapped_layer_metrics_nonzero(workload):
    result = traced(workload)
    metrics = result["metrics"]
    assert result["correct"]
    assert metrics["trace.overhead_ratio"]["value"] > 0
    for name, home in MAPPED.items():
        assert name in metrics
        if home == workload:
            assert metrics[name]["value"] > 0, name
    if workload == "orbit":
        # cli metrics also map to orbit's verdict_p50_s
        for name in ("cli.calls", "cli.self_s", "cli.output_bytes"):
            assert metrics[name]["value"] > 0, name
