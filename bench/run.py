"""braidmf verdict benchmark.

    python3 bench/run.py --workload orbit --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (it needs ``src/braidmf``).  Workloads:
orbit, fibre, braid, census (see bench/README.md for why each exists).

* ``--trace 0`` prints the end-to-end metrics: setup_s, verdicts_per_s,
  verdict_p50_s, verdict_p90_s, peak_rss_mb and verdicts_ok.
* ``--trace 1`` prints the per-layer metrics from a traced run, plus
  trace.overhead_ratio against an untraced run of the same verdicts.

Each workload runs in its own fresh interpreter, so peak_rss_mb is that
workload's own; setup_s is measured in further fresh interpreters.  Times
are seconds at the host's quiet speed: each is divided by how much slower
than nominal a fixed reference task ran at the time, and the two long
verdicts keep their best raw time (see worker.py); the info line also
gives the raw wall-clock figures.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("orbit", "fibre", "braid", "census")
SETUP_PROBES = 12
CHILD_TIMEOUT_S = 170

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(argv):
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: child {argv[:2]} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def run_worker(args, *extra):
    argv = [str(BENCH / "worker.py"), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    return json.loads(run_child(argv))


def p90(samples):
    """Nearest-rank 90th percentile; with n >= 100 samples at least ten
    lie beyond it."""
    ordered = sorted(samples)
    rank = -(-9 * len(ordered) // 10)  # ceil(0.9 n)
    return ordered[rank - 1], len(ordered) - rank


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tallies(res):
    total = {"ok": 0, "error": 0, "wrong": 0}
    for counts in res["kinds"].values():
        for key in total:
            total[key] += counts[key]
    return total


def timing_metrics(times):
    p90_value, beyond = p90(times)
    return {
        "verdicts_per_s": len(times) / sum(times),
        "verdict_p50_s": statistics.median(times),
        "verdict_p90_s": p90_value,
    }, beyond


def end_to_end(res):
    t = tallies(res)
    attempted = sum(t.values())
    timings, beyond = timing_metrics(res["times"])
    metrics = {
        "setup_s": statistics.median(norm for _, norm in res["setup"]),
        **timings,
        "peak_rss_mb": res["peak_rss_mb"],
        "verdicts_ok": t["ok"] / attempted,
    }
    # the same figures from raw wall-clock times, for comparison
    raw, _ = timing_metrics(res["raw_times"])
    raw["setup_s"] = statistics.median(r for r, _ in res["setup"])
    info = {
        "setup_samples": len(res["setup"]),
        "verdicts": len(res["times"]),
        "passes": res["passes"],
        "samples_beyond_p90": beyond,
        "verdicts_failed": (t["error"] + t["wrong"]) / attempted,
        "host_factors": [round(f, 4) for f in res["host_factors"]],
        "raw_wall_clock": raw,
        "wall_s": res["wall_s"],
    }
    return metrics, info


def per_layer(args, res):
    reference = run_worker(args, "--fixed")
    if reference["digest"] != res["digest"]:
        raise SystemExit("error: traced and untraced outputs differ")
    metrics = dict(res["layers"])
    metrics["trace.overhead_ratio"] = sum(res["times"]) / sum(reference["times"])
    info = {"spans": res["spans"], "verdicts": len(res["times"])}
    return metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "braidmf" / "cli.py").is_file():
        print(f"error: no braidmf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # metric names, order and units come from BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        res = run_worker(args, "--fixed", "--trace", "1")
        values, info = per_layer(args, res)
        wanted = spec["per_layer"]
    else:
        res = run_worker(args, "--setup-probes", str(SETUP_PROBES))
        values, info = end_to_end(res)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit("error: measured metrics differ from BENCHMARK.json")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}
    t = tallies(res)

    machine = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine))
    print(
        "loop: closed, one client, single-threaded, no queues "
        "(time waiting for a layer is zero and not reported)"
    )
    for kind, counts in sorted(res["kinds"].items()):
        print(f"verdicts {kind}: " + json.dumps(counts))
    print(f"digest sha256 {res['digest']} (first pass)")
    print("info " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": t["wrong"] == 0,
                "attempted": sum(t.values()),
                "failed": t["error"] + t["wrong"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
