#!/usr/bin/env python3
"""Benchmark of verified aggregation rounds and coalition audits in ppdfl.

    python3 perfbench/run.py --workload {dense_ref,sparse_1k,audit_ref}
        [--seed N] [--seconds S] [--trace 0|1] [--deadline S]

Run from a checkout of the repository: the program is imported from its
``src/`` and the configs are read from its ``configs/``.

One client in this one process runs operations back to back (a closed
loop): whole passes over the workload's operations, each after a burst of
timed set-ups, until --seconds have passed. An operation is one
aggregation round (dense_ref, sparse_1k) or one coalition audit of one
coordinate (audit_ref). Each operation runs under a deadline; an
operation fails on an exception, on passing the deadline, or on a failed
exactness check, and a failed operation counts as the deadline or its
wall time, whichever is longer. Exactness checks run outside the timed
spans; a failed check, or an exactness error the program raises
itself, also makes the result's ``correct`` false.

Set-ups and completed operations are timed in seconds scaled to a reference
host speed, which hostspeed.py samples all through the run; a ``wall`` line
gives the same metrics unscaled.

With --trace 0 the last line of stdout carries the end-to-end metrics; with
--trace 1 layer functions are wrapped and it carries the per-layer metrics.
The lines before it give provenance, the check record of each operation
(once per round or coordinate), and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
# Before every pass, set-up runs at least this many times and for at least
# this long; setup_s is the median over all of them. The first set-ups of a
# process pay for warm-up, so a few quick set-ups would leave the median on
# a warm-up time, and the host's speed drifts over seconds, so set-ups are
# spread over the run as the operations are.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0

END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> span name; median over all operations of the time
# inside that span (self time for *_self_s) during one operation. A failed
# operation's spans end at its deadline.
OP_SPANS = {
    "sharing.interp_weights_s": "sharing.interp_weights",
    "sharing.share_gen_s": "sharing.share_gen",
    "seeding.derive_s": "seeding.derive",
    "fixedpoint.s": "fixedpoint",
    "protocol.round_self_s": "protocol.round",
    "protocol.masking_s": "protocol.masking",
    "consensus.k_select_s": "consensus.k_select",
    "topology.lambda2_s": "topology.lambda2",
    "topology.mh_weights_s": "topology.mh_weights",
    "consensus.averaging_s": "consensus.averaging",
    "field.rref_s": "field.rref",
    "field.reduce_s": "field.reduce",
    "privacy.build_view_self_s": "privacy.build_view",
    "protocol.transcript_read_s": "protocol.transcript_read",
}
# Measured during set-up; median over the set-up repetitions.
SETUP_SPANS = {
    "topology.generate_s": "topology.generate",
    "protocol.transcript_write_s": "protocol.transcript_write",
}
# Exact counts of the first completed operation; counts of failed operations
# are left out, as how far a stuck operation got depends on speed.
COUNTS = [
    "sharing.inversions", "sharing.share_gen_calls", "seeding.derive_calls",
    "consensus.norm_probes", "consensus.eigensolves", "field.rref_calls",
    "field.rref_cells", "field.reduce_calls", "privacy.unknowns", "privacy.rows",
    "privacy.infer_calls",
]
# Values of the first completed round, as its check recorded them.
RECORD = {
    "consensus.k": ("k", "steps"),
    "consensus.rounding_margin": ("rounding_margin", "residue"),
    "protocol.share_msgs": ("share_msgs", "count"),
    "protocol.share_elems": ("share_elems", "count"),
    "protocol.state_msgs": ("state_msgs", "count"),
    "protocol.state_elems": ("state_elems", "count"),
}
PHASES = ("weights", "shares", "masking", "averaging", "readback")

PER_LAYER = {
    **{name: "s" for name in OP_SPANS},
    **{name: "s" for name in SETUP_SPANS},
    **{name: "count" for name in COUNTS},
    **{name: unit for name, (_, unit) in RECORD.items()},
    "protocol.transcript_bytes": "B",
    **{f"protocol.phase.{p}_s": "s" for p in PHASES},
    "trace.run_s": "s",
    "trace.op_p50_s": "s",
    "failed_frac": "fraction",
}


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def _cap_blas_threads() -> int:
    """Cap BLAS threads at nproc and at 2; must run before numpy is imported."""
    n = max(1, min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _timed(fn, key, deadline: float):
    """(seconds, output, error) of fn(key) under a SIGALRM deadline.

    error is None or (exception type, description). The exception itself is
    not kept: its traceback would keep the operation's arrays alive into the
    next operation and inflate peak_rss_mb.
    """
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            out = fn(key)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return time.perf_counter() - start, None, (DeadlineExceeded,
                                                   f"deadline of {deadline} s passed")
    except Exception as exc:  # the run goes on with the next operation
        return time.perf_counter() - start, None, (type(exc), traceback.format_exc())
    return time.perf_counter() - start, out, None


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own config seed)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", type=float, default=None,
                    help="per-operation deadline in seconds (default: per workload)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    blas_threads = _cap_blas_threads()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy as np
        import hostspeed
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(workloads.ppdfl.__file__).resolve().is_relative_to(src):
        print(f"error: ppdfl was imported from {workloads.ppdfl.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    WORKDIR.mkdir(exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, ROOT, WORKDIR,
                            tracer.span if tracer else nullcontext)
    except KeyError:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deadline = args.deadline if args.deadline is not None else wl.deadline_s

    print("provenance " + json.dumps({
        "workload": args.workload, "seed": wl.seed, "seconds": args.seconds,
        "trace": args.trace, "deadline_s": deadline,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
        "python": platform.python_version(), "numpy": np.__version__,
        "ppdfl": workloads.ppdfl.__version__, "commit": _git_commit(),
    }), flush=True)

    if tracer:
        workloads.install_layers(tracer)
    host = hostspeed.HostSpeed()
    try:
        signal.signal(signal.SIGALRM, _on_alarm)
        host.start()
        setup_times, setup_info = [], {}
        op_times, pass_times = [], []
        wall = {"setup_s": [], "op": [], "pass": []}
        completed = []  # (op id, check record, counter deltas)
        failed = 0
        correct = True
        reported = set()
        loop_start = time.perf_counter()
        while True:
            burst, burst_mark = [], host.mark()
            while len(burst) < SETUP_MIN_REPEATS or sum(burst) < SETUP_MIN_SECONDS:
                if tracer:
                    tracer.begin(f"setup{len(setup_times) + len(burst)}")
                mark = host.mark()
                setup_info = wl.setup()
                burst.append(host.net(mark))
                if tracer:
                    tracer.end()
            scale = host.factor(burst_mark)
            if not setup_times:
                wl.check_setup()
            wall["setup_s"] += burst
            setup_times += [seconds * scale for seconds in burst]
            pass_time = pass_wall = 0.0
            for key in wl.keys:
                op = len(op_times)
                before = Counter(tracer.counts) if tracer else None
                if tracer:
                    tracer.begin(op)
                mark = host.mark()
                seconds, out, error = _timed(wl.run, key, deadline)
                scaled = host.net(mark) * host.factor(mark)
                if tracer:
                    tracer.end()
                if error is None:
                    try:
                        record = wl.check(key, out)
                    except workloads.CheckFailed as exc:
                        error = (type(exc), f"check failed: {exc}")
                if error is not None and issubclass(error[0], workloads.INEXACT):
                    correct = False
                if error is None:
                    completed.append((op, record, tracer.counts - before if tracer else None))
                else:
                    failed += 1
                    seconds = scaled = max(seconds, deadline)
                if (key, error is None) not in reported:  # once per key and outcome
                    reported.add((key, error is None))
                    if error is None:
                        print("record " + json.dumps(record), flush=True)
                    else:
                        print(f"op {op} ({key}) failed after {seconds:.3f} s: {error[1]}",
                              file=sys.stderr, flush=True)
                op_times.append(scaled)
                wall["op"].append(seconds)
                pass_time += scaled
                pass_wall += seconds
            pass_times.append(pass_time)
            wall["pass"].append(pass_wall)
            if time.perf_counter() - loop_start >= args.seconds:
                break
    finally:
        host.stop()
        if tracer:
            tracer.restore()

    run_s = _median(pass_times)
    op_p50_s = _median(op_times)
    if tracer:
        metrics, undefined = _per_layer(tracer, setup_info, completed, len(op_times),
                                        run_s, op_p50_s, failed / len(op_times))
        if undefined:
            print("undefined (printed as 0): " + " ".join(undefined))
        units = PER_LAYER
        tracer.dump(WORKDIR / f"spans-{args.workload}-seed{wl.seed}.jsonl")
    else:
        metrics = {
            "setup_s": _median(setup_times),
            "run_s": run_s,
            "op_p50_s": op_p50_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    print(f"samples ops={len(op_times)} passes={len(pass_times)} "
          f"setups={len(setup_times)} failed={failed} failed_frac={failed / len(op_times)!r}")
    print(f"wall setup_s={_median(wall['setup_s'])!r} run_s={_median(wall['pass'])!r} "
          f"op_p50_s={_median(wall['op'])!r}")
    print(f"host kernel_s={host.median_kernel_s()!r} reference={hostspeed.REF_KERNEL_S!r} "
          f"samples={len(host.samples)} kernel_total_s={host.spent!r}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(op_times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _per_layer(tracer, setup_info, completed, n_ops, run_s, op_p50_s,
               failed_frac) -> tuple[dict, list]:
    """Per-layer metrics, and the names of those no completed operation defines.

    Span times cover every operation. Counts, round records and the
    program's phase timings come from completed operations only; where none
    defines one (no operation completed, or an audit has no round record) it
    is printed as 0 and named as undefined.
    """
    times = tracer.times()
    out = {}
    for name, span in OP_SPANS.items():
        index = 1 if name.endswith("_self_s") else 0
        out[name] = _median([times[op][span][index] for op in range(n_ops)])
    for name, span in SETUP_SPANS.items():
        out[name] = _median([times[op][span][0] for op in times
                             if str(op).startswith("setup")])
    _, record, counts = completed[0] if completed else (None, {}, None)
    for name in COUNTS:
        out[name] = None if counts is None else counts[name]
    for name, (field, _) in RECORD.items():
        out[name] = record.get(field)
    out["protocol.transcript_bytes"] = setup_info.get("transcript_bytes", 0)
    for p in PHASES:
        phase = [rec["timings"][p] for _, rec, _ in completed if "timings" in rec]
        out[f"protocol.phase.{p}_s"] = _median(phase) if phase else None
    out["trace.run_s"] = run_s
    out["trace.op_p50_s"] = op_p50_s
    out["failed_frac"] = failed_frac
    undefined = [name for name, value in out.items() if value is None]
    return {name: 0 if value is None else value for name, value in out.items()}, undefined


if __name__ == "__main__":
    sys.exit(main())
