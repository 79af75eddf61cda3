"""Command-line driver: simulate | spectral | bounds | privacy | bench.

Exit codes: 0 success, 2 config error, 3 bound violation, 4 privacy
leakage detected, 5 internal invariant failure.
"""

import argparse
import csv
import functools
import gc
import hashlib
import json
import os
import statistics
import sys
import time

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BOUNDS = 3
EXIT_LEAKAGE = 4
EXIT_INTERNAL = 5

# A shared machine scatters single rounds by about 15% either way; only a
# mean over some ten round-robin passes holds a sweep's linear shape.
_MIN_PASSES = 10


def _apply_thread_cap() -> None:
    # Must run before numpy binds its BLAS thread pools, hence the lazy
    # imports in every command handler.
    cap = os.environ.get("PPDFL_THREADS")
    if not cap:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, cap)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppdfl",
        description="Secret-shared decentralized model averaging simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a full multi-round simulation")
    sim.add_argument("--config", required=True, help="JSON config path")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override config seed")
    sim.add_argument(
        "--trajectories",
        action="store_true",
        help="record and export per-iteration states (larger outputs)",
    )

    spec = sub.add_parser("spectral", help="contraction factor and decay table")
    spec.add_argument("--topology", required=True,
                      help="complete | star | line | random:<avg_degree>")
    spec.add_argument("--n", type=int, required=True, help="node count")
    spec.add_argument("--seed", type=int, default=0)
    spec.add_argument("--kmax", type=int, default=50, help="table depth")

    bounds = sub.add_parser("bounds", help="check modulus and iteration bounds")
    bounds.add_argument("--config", required=True)

    priv = sub.add_parser("privacy", help="coalition inference audit")
    priv.add_argument("--config", default=None, help="run a fresh simulation")
    priv.add_argument("--transcript", default=None, help="analyze a recorded run")
    priv.add_argument("--adversary", required=True, help="comma-separated ids")
    priv.add_argument("--out", default=None, help="report JSON path")
    priv.add_argument("--mode", choices=("worst_case", "observed"),
                      default="worst_case")
    priv.add_argument("--seed", type=int, default=None)

    bench = sub.add_parser("bench", help="scaling sweeps with linear fits")
    bench.add_argument("--sweep", choices=("shares", "iterations"), required=True)
    bench.add_argument("--points", default=None,
                       help="comma-separated sweep values")
    bench.add_argument("--n-nodes", type=int, default=24)
    bench.add_argument("--avg-degree", type=float, default=8.0)
    bench.add_argument("--reps", type=int, default=3,
                       help="round-robin passes averaged per point; "
                            f"at least {_MIN_PASSES} are run")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None, help="CSV output path")
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "spectral": _cmd_spectral,
        "bounds": _cmd_bounds,
        "privacy": _cmd_privacy,
        "bench": _cmd_bench,
    }
    from .protocol import (
        BoundViolation,
        ConfigError,
        InvariantViolation,
        RangeViolation,
    )

    try:
        return handlers[args.command](args)
    except (BoundViolation, RangeViolation) as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_BOUNDS
    except InvariantViolation as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _load_config(path: str, seed_override=None):
    from .protocol import ProtocolConfig

    with open(path) as fh:
        raw = json.load(fh)
    if seed_override is not None:
        raw["seed"] = seed_override
    return ProtocolConfig.from_dict(raw, base_dir=os.path.dirname(path) or ".")


def _schedule_digest(cfg) -> str:
    blob = json.dumps(cfg.schedule.to_json(cfg.rounds), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_manifest(path: str, cfg, timings: dict) -> None:
    from . import __version__

    manifest = {
        "config": cfg.to_dict(),
        "schedule_digest": _schedule_digest(cfg),
        "seed": cfg.seed,
        "timings": timings,
        "version": __version__,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)


def _cmd_simulate(args) -> int:
    from .protocol import run_training

    cfg = _load_config(args.config, args.seed)
    os.makedirs(args.out, exist_ok=True)
    start = time.perf_counter()
    result = run_training(cfg, record_trajectory=args.trajectories)
    elapsed = time.perf_counter() - start

    with open(os.path.join(args.out, "decoded_models.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "learner_id", "coordinate", "value"])
        for rec in result.transcript.rounds:
            for i in range(1, cfg.n_learners + 1):
                for l in range(cfg.model_dim):
                    writer.writerow([rec.round_index, i, l, repr(rec.decoded[i - 1, l])])

    if args.trajectories:
        with open(os.path.join(args.out, "trajectories.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "iteration", "learner_id", "coordinate", "value"])
            for rec in result.transcript.rounds:
                traj = rec.state_trajectory
                for k in range(traj.shape[0]):
                    for i in range(1, cfg.n_learners + 1):
                        for l in range(cfg.model_dim):
                            writer.writerow(
                                [rec.round_index, k, i, l, repr(traj[k, i - 1, l])]
                            )

    result.transcript.to_jsonl(
        os.path.join(args.out, "transcript.jsonl"),
        include_consensus=args.trajectories,
    )

    summary = dict(result.summary)
    summary["total_seconds"] = elapsed
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    _write_manifest(os.path.join(args.out, "manifest.json"), cfg,
                    {"total_seconds": elapsed})

    deviation = summary["max_deviation"]
    print(f"rounds={cfg.rounds} max_deviation={deviation} elapsed={elapsed:.3f}s")
    if deviation != 0.0:
        print("error: decoded models deviate from the direct aggregate",
              file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _parse_topology_flag(spec: str, n: int, seed: int):
    from .topology import generate_topology

    if spec.startswith("random:"):
        return generate_topology(
            "random_connected", n, seed=seed, avg_degree=float(spec.split(":", 1)[1])
        )
    return generate_topology(spec, n, seed=seed)


def _cmd_spectral(args) -> int:
    from .topology import contraction_radius, mh_weights, second_largest_eigenvalue

    g = _parse_topology_flag(args.topology, args.n, args.seed)
    a = mh_weights(g)
    lam2 = second_largest_eigenvalue(a)
    radius = contraction_radius(a)
    print(f"lambda2,{lam2!r}")
    print("k,averaging_error_norm")
    for k in range(args.kmax + 1):
        # ||N A^k - 11^T|| == N * radius^k for symmetric doubly stochastic A
        print(f"{k},{args.n * radius ** k!r}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from .consensus import min_iterations
    from .fixedpoint import Precision, check_p_bound
    from .topology import mh_weights, second_largest_eigenvalue

    cfg = _load_config(args.config)
    ok, admissible = check_p_bound(
        cfg.prime, cfg.n_learners, Precision(cfg.sigma), cfg.theta_max
    )
    print(f"modulus={cfg.prime} verdict={'pass' if ok else 'FAIL'} "
          f"max_admissible_theta={admissible!r} theta_max={cfg.theta_max}")
    print("round,lambda2,min_iterations")
    all_ok = ok
    for t in range(1, cfg.rounds + 1):
        g = cfg.schedule.round_graph(t)
        a = mh_weights(g)
        lam2 = second_largest_eigenvalue(a)
        k = min_iterations(a, cfg.prime, lambda2=lam2)
        print(f"{t},{lam2!r},{k}")
        if cfg.k_policy != "auto" and k > int(cfg.k_policy):
            all_ok = False
            print(
                f"round {t}: configured K={cfg.k_policy} below required {k}",
                file=sys.stderr,
            )
    if not ok:
        print("modulus bound violated: admissible coordinate magnitude "
              f"{admissible!r} < theta_max {cfg.theta_max}", file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_BOUNDS


def _cmd_privacy(args) -> int:
    from .privacy import (
        AdversarySet,
        adversary_infer,
        report_to_json_file,
        verify_inference,
    )
    from .protocol import Transcript, run_training

    adversary_ids = [int(tok) for tok in args.adversary.split(",") if tok.strip()]
    if args.transcript:
        transcript = Transcript.from_jsonl(args.transcript)
        meta = transcript.meta

        class _Cfg:
            prime = int(meta["prime"])
            sigma = int(meta["sigma"])

        cfg = _Cfg()
        n = int(meta["n_learners"])
    elif args.config:
        cfg = _load_config(args.config, args.seed)
        transcript = run_training(cfg).transcript
        n = cfg.n_learners
    else:
        print("error: supply --config or --transcript", file=sys.stderr)
        return EXIT_CONFIG

    adv = AdversarySet(adversary_ids, n)
    report = adversary_infer(transcript, adv, cfg, mode=args.mode)
    if not verify_inference(report, transcript, cfg):
        print("internal invariant failure: reconstructed values disagree "
              "with ground truth", file=sys.stderr)
        return EXIT_INTERNAL
    if args.out:
        report_to_json_file(report, args.out)
    for r in report.rounds:
        leaks = [f for f in r.leaked if f.kind == "individual"
                 or len(f.members) < len(adv.benign)]
        print(f"round {r.round_index}: secrecy="
              f"{'ok' if r.secrecy_ok else 'LEAK'} "
              f"surrounded={[sorted(s) for s in r.surrounded_sets]} "
              f"extra_leaked={len(leaks)}")
    if report.perfectly_secret:
        print("perfect secrecy holds across all rounds")
        return EXIT_OK
    print("leakage detected: coalition learns proper partial sums",
          file=sys.stderr)
    return EXIT_LEAKAGE


def _linear_fit(xs, ys):
    import numpy as np

    if len(xs) < 2:
        return None, None
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * np.asarray(xs) + intercept
    ss_res = float(np.sum((np.asarray(ys) - pred) ** 2))
    ss_tot = float(np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def _mean_times(runs, reps):
    """Mean wall time of each run over round-robin passes, garbage collector off.

    One pass times every run once, so a slow or fast spell of the machine
    lands on all points of a sweep alike. At least `_MIN_PASSES` passes run.
    """
    samples = [[] for _ in runs]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(reps, _MIN_PASSES)):
            for run, times in zip(runs, samples):
                start = time.perf_counter()
                run()
                times.append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return [statistics.fmean(times) for times in samples]


def bench_share_sweep(n_values, n_nodes=24, avg_degree=8.0, reps=3, seed=0):
    """Wall time of one full round as model dimension grows."""
    from .field import next_prime
    from .protocol import ProtocolConfig, execute_round
    from .seeding import derive_rng
    from .topology import TopologySchedule, generate_topology

    g = generate_topology("random_connected", n_nodes, seed=seed,
                          avg_degree=avg_degree)
    theta_max = 1.0
    runs, xs = [], []
    for dim in n_values:
        cfg = ProtocolConfig(
            n_learners=n_nodes,
            model_dim=dim,
            sigma=2,
            prime=next_prime(max(n_nodes, 1 + 2 * 100 * n_nodes) * 2),
            rounds=1,
            k_policy="auto",
            weights="uniform",
            theta_max=theta_max,
            seed=seed,
            schedule=TopologySchedule.from_graphs([g]),
        )
        gen = derive_rng(seed, "bench", dim)
        models = gen.uniform(-theta_max, theta_max, (n_nodes, dim))
        runs.append(functools.partial(execute_round, models, g, cfg,
                                      record_trajectory=False))
        xs.append((2 * len(g.edges) / n_nodes + 1) * dim)
    times = _mean_times(runs, reps)
    return [(x, t / n_nodes) for x, t in zip(xs, times)]


def bench_iteration_sweep(k_values, n_nodes=40, avg_degree=8.0, dim=8,
                          reps=3, seed=0):
    """Wall time of the averaging loop as the iteration count grows."""
    from .consensus import AveragingOperator, consensus_final
    from .seeding import derive_rng
    from .topology import generate_topology

    g = generate_topology("random_connected", n_nodes, seed=seed,
                          avg_degree=avg_degree)
    op = AveragingOperator.from_graph(g)
    gen = derive_rng(seed, "bench-k")
    states = gen.uniform(0.0, 1.0, (n_nodes, dim))
    runs = [functools.partial(consensus_final, states, op, k) for k in k_values]
    times = _mean_times(runs, reps)
    return [(k, t / n_nodes) for k, t in zip(k_values, times)]


def _cmd_bench(args) -> int:
    if args.sweep == "shares":
        defaults = "64,128,256,384,512"
        values = [int(v) for v in (args.points or defaults).split(",")]
        points = bench_share_sweep(values, args.n_nodes, args.avg_degree,
                                   args.reps, args.seed)
        x_name = "shares_per_learner_per_round"
    else:
        defaults = "200,400,800,1600,3200"
        values = [int(v) for v in (args.points or defaults).split(",")]
        points = bench_iteration_sweep(values, max(args.n_nodes, 8),
                                       args.avg_degree, reps=args.reps,
                                       seed=args.seed)
        x_name = "iterations"

    lines = [f"{x_name},seconds_per_learner"]
    lines += [f"{x!r},{y!r}" for x, y in points]
    output = "\n".join(lines)
    print(output)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(output + "\n")

    slope, r2 = _linear_fit([x for x, _ in points], [y for _, y in points])
    if slope is None:
        print("fit: slope undefined (single point)")
    else:
        print(f"fit: slope={slope!r} r_squared={r2!r}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
