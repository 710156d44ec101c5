"""One workload in one fresh interpreter: the closed verdict loop.

Started by run.py; prints a single JSON line with the raw results.  One
client, no threads: the next verdict starts only when the last returned.
Only the verdict itself is timed; building the inputs and judging outputs
against the oracles happen between verdicts, off the clock.

A run builds one fixed verdict set, the prologue plus the fewest rounds
that give MIN_VERDICTS verdicts, and runs it in whole passes until
``--seconds`` of wall time have passed and at least MIN_PASSES passes are
done.  A verdict's output must be the same on every pass.  A workload
whose prologue is too slow to repeat (fibre's Sp(6,2) enumeration, about
half a minute) runs it in the first pass only.

Host speed.  The host is shared, and its speed drifts by a third and more
in phases that last from seconds to minutes; a slow phase can cover a
whole run.  Before each verdict the worker times a reference task: fixed
interpreter work written here, which calls nothing in braidmf, so that no
change to the program moves it.  A pass's host factor is the median of
its reference times divided by REF_NOMINAL_S, the reference time of this
machine type in a quiet phase.  Each timing is divided by the factor of
its pass, which gives seconds at the quiet host speed, and a verdict's
time is the median of these over the passes.  A verdict that the
workload marks long (braid's letter-cap word, about 2 s; fibre's Sp(6,2)
enumeration, about 25 s and run once) is timed by its best raw time over
the passes instead.  The reference runs before and after such
a verdict, not during it, and its time did not follow its pass's factor:
over six braid runs the cap word's best raw time spread 0.12, its
median divided time 0.17; over six fibre runs, dividing the Sp(6,2) time
by its pass's factor tripled the spread of verdicts_per_s (0.10 to 0.36).
The raw wall-clock times are reported beside them.

With ``--setup-probes N`` the worker also times the CLI's set-up N times:
at evenly spaced points of the window it starts a fresh interpreter that
imports ``braidmf.cli`` and builds its parser, waits for it, and keeps
the time that interpreter reports, divided by the host factor of nine
reference tasks timed just before it.  The probes are off the verdict
clock and do not count against the window.

``--fixed`` runs one pass over the prologue plus the rounds for
TRACE_VERDICTS verdicts, for the traced run and its untraced reference,
so that both do identical work.

The digest covers the first pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

MIN_VERDICTS = 100
# A verdict's time is its median over at least this many passes.
MIN_PASSES = 3
# The traced run carries fewer verdicts, so that it and its reference
# finish within the time limit.
TRACE_VERDICTS = 50
STATUSES = ("ok", "error", "wrong")

# Fresh interpreter: time the import of the CLI plus building its parser,
# which a CLI user pays on every invocation.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import braidmf.cli
braidmf.cli.build_parser()
print(repr(time.perf_counter() - t0))
"""


# The reference task composes permutations held as tuples, counts them in a
# dict and runs an integer loop: the kinds of work braidmf does.  It takes
# REF_NOMINAL_S on this machine type (2 vCPUs, Xeon at 2.0 GHz, Python
# 3.11) in a quiet phase; a slow phase takes it up to 0.6 ms.
REF_NOMINAL_S = 0.00032
_REF_PERMS = [tuple(random.Random(i).sample(range(32), 32)) for i in range(8)]


def reference_task():
    """Wall time of one run of the fixed reference work, GC held off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts = {}
        p = _REF_PERMS[0]
        for k in range(150):
            q = _REF_PERMS[k & 7]
            p = tuple([q[i] for i in p])
            counts[p] = counts.get(p, 0) + 1
        x = 0
        for i in range(800):
            x = (x * 1103515245 + i) & 0xFFFFFFFF
        return time.perf_counter() - t0
    finally:
        gc.enable()


def host_factor(ref_times):
    return statistics.median(ref_times) / REF_NOMINAL_S


def verdict_time(verdict, runs, factors):
    """A verdict's time from its (pass, wall time) runs: the median over
    the passes at the quiet host speed, or for a long verdict its best
    raw time."""
    if verdict.long:
        return min(t for _, t in runs)
    return statistics.median(t / factors[p] for p, t in runs)


def setup_probe():
    """One set-up time from a fresh interpreter (same environment), raw
    and divided by the host factor just before it."""
    factor = host_factor([reference_task() for _ in range(9)])
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    raw = float(proc.stdout.strip().splitlines()[-1])
    return raw, raw / factor


def min_rounds(prologue_len, round_len, verdicts):
    """Fewest whole rounds that, with the prologue, give ``verdicts``."""
    return max(1, math.ceil((verdicts - prologue_len) / round_len))


def run_verdict(verdict):
    t0 = time.perf_counter()
    try:
        outcome, error = verdict.run(), None
    except Exception as exc:  # a verdict that raises counts as failed
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return outcome, error, elapsed


def judge(verdict, outcome, error):
    """"ok", "error" (raised or exited >= 2) or "wrong" (oracle disagrees)."""
    if error is not None or outcome.code not in (0, 1):
        return "error"
    try:
        return "ok" if verdict.check(outcome) else "wrong"
    except (ValueError, KeyError, TypeError, IndexError):
        return "wrong"


def digest_record(verdict, outcome, error):
    if error is not None:
        body = f"raised {error}\n"
    else:
        body = f"exit {outcome.code}\n{outcome.stdout}\n{outcome.stderr}\n"
    return f"{verdict.label}\n{body}".encode()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--fixed", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probes", type=int, default=0)
    args = ap.parse_args(argv)

    import numpy
    import workloads  # imports braidmf

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # Relative path: reports name their input files, and must not depend on
    # where the checkout lives.
    workdir = Path(".bench_work") / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    kinds, setup = {}, []
    probe_every = args.seconds / args.setup_probes if args.setup_probes else 0
    probe_s = 0.0  # wall time spent in probes, excluded from the window
    cli_bytes = 0
    digest = hashlib.sha256()
    try:
        verdicts = workload.build_prologue(args.seed, workdir)
        once = len(verdicts) if not workload.repeat_prologue else 0
        first_round = workload.build_round(args.seed, 0, workdir)
        rounds = min_rounds(
            len(verdicts),
            len(first_round),
            TRACE_VERDICTS if args.fixed else MIN_VERDICTS,
        )
        verdicts += first_round
        for k in range(1, rounds):
            verdicts += workload.build_round(args.seed, k, workdir)
        # per verdict, (pass, wall time) of each of its runs
        runs = [[] for _ in verdicts]
        ref_times = []  # per pass, the reference times taken in it
        records = [None] * len(verdicts)
        passes = 0
        t_start = time.perf_counter()
        while True:
            ref_times.append([])
            for i, verdict in enumerate(verdicts):
                if passes and i < once:
                    continue
                loop_s = time.perf_counter() - t_start - probe_s
                if len(setup) < args.setup_probes and (
                    loop_s >= len(setup) * probe_every
                ):
                    t0 = time.perf_counter()
                    setup.append(setup_probe())
                    probe_s += time.perf_counter() - t0
                ref_times[passes].append(reference_task())
                if tracer:
                    tracer.active = True
                outcome, error, elapsed = run_verdict(verdict)
                if tracer:
                    tracer.active = False
                runs[i].append((passes, elapsed))
                status = judge(verdict, outcome, error)
                record = digest_record(verdict, outcome, error)
                if records[i] is None:
                    records[i] = record
                    digest.update(record)
                    if verdict.via_cli and outcome is not None:
                        cli_bytes += len(outcome.stdout.encode())
                elif record != records[i]:
                    status = "wrong"  # the same input gave another output
                tally = kinds.setdefault(
                    verdict.kind, {**dict.fromkeys(STATUSES, 0), "time_s": 0.0}
                )
                tally[status] += 1
                tally["time_s"] += elapsed
            passes += 1
            if args.fixed:
                break
            loop_s = time.perf_counter() - t_start - probe_s
            if loop_s >= args.seconds and passes >= MIN_PASSES:
                break
        wall = time.perf_counter() - t_start - probe_s
        while len(setup) < args.setup_probes:  # a run shorter than planned
            setup.append(setup_probe())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another workload's files are still there
            pass

    factors = [host_factor(ref) for ref in ref_times]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "times": [
            verdict_time(v, r, factors) for v, r in zip(verdicts, runs)
        ],
        "raw_times": [statistics.median(t for _, t in r) for r in runs],
        "host_factors": factors,
        "kinds": kinds,
        "setup": setup,
        "passes": passes,
        "digest": digest.hexdigest(),
        "wall_s": wall,
        "numpy": numpy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracer.summary() | {"cli.output_bytes": cli_bytes}
        result["spans"] = len(tracer.span_start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
