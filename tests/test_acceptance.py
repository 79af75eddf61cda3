"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import functools
import itertools
import math
import random
import time

import numpy as np
from test_graph_oracles import secrecy_cross_check
from test_sharing import evaluate, flat_holders

from ppdfl.cli import _linear_fit, bench_iteration_sweep, bench_share_sweep
from ppdfl.consensus import min_iterations
from ppdfl.field import next_prime
from ppdfl.fixedpoint import Precision, check_p_bound
from ppdfl.privacy import (
    AdversarySet,
    adversary_infer,
    surrounded_components,
    verify_inference,
)
from ppdfl.protocol import ProtocolConfig, Transcript, execute_round, run_training
from ppdfl.sharing import _share_streams, interpolation_weights
from ppdfl.topology import (
    RoundTopology,
    TopologySchedule,
    contraction_radius,
    generate_topology,
    is_connected,
    mh_weights,
    second_largest_eigenvalue,
)


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, detail


@functools.lru_cache(maxsize=1)
def _end_to_end_runs():
    """50 seeded full-protocol runs; shared by criteria 1 and 5."""
    rng = random.Random(20260810)
    deviations, margins = [], []
    start = time.perf_counter()
    for case in range(50):
        n = rng.randrange(3, 31)
        dim = rng.randrange(1, 9)
        sigma = rng.randrange(1, 5)
        rounds = rng.randrange(1, 7)
        theta_max = rng.uniform(2.0, 8.0)
        prime = next_prime(
            int(max(n, 1 + 2 * 10**sigma * n * theta_max)) + rng.randrange(1000)
        )
        cfg = ProtocolConfig(
            n_learners=n,
            model_dim=dim,
            sigma=sigma,
            prime=prime,
            rounds=rounds,
            k_policy="auto",
            weights="uniform",
            theta_max=theta_max,
            seed=case,
            schedule=TopologySchedule.generated(
                "random_connected", n, seed=1000 + case,
                avg_degree=rng.uniform(2, min(6, n - 1)),
            ),
        )
        result = run_training(cfg)
        deviations.append(result.summary["max_deviation"])
        margins.extend(r["rounding_margin"] for r in result.summary["rounds"])
    elapsed = time.perf_counter() - start
    return deviations, margins, elapsed


def test_criterion_1_end_to_end_exactness():
    deviations, _, elapsed = _end_to_end_runs()
    ok = all(d == 0.0 for d in deviations) and elapsed < 60.0
    _report(
        "1 end-to-end exactness",
        ok,
        f"(50 configs, max deviation {max(deviations)}, {elapsed:.1f}s)",
    )


def test_criterion_2_eigenvalue_regression():
    lam_complete = second_largest_eigenvalue(mh_weights(generate_topology("complete", 100)))
    lam_star = second_largest_eigenvalue(mh_weights(generate_topology("star", 100)))
    lam_line = second_largest_eigenvalue(mh_weights(generate_topology("line", 100)))
    ok = (
        abs(lam_complete) < 1e-9
        and abs(lam_star - 0.9900) < 1e-6
        and abs(lam_line - 0.9997) < 1e-4
    )
    _report(
        "2 eigenvalue regression",
        ok,
        f"(complete {lam_complete:.2e}, star {lam_star:.6f}, line {lam_line:.6f})",
    )


def test_criterion_3_weight_matrix_properties():
    rng = random.Random(3)
    start = time.perf_counter()
    worst_row = worst_col = worst_radius = 0.0
    for case in range(200):
        n = rng.randrange(3, 101)
        g = generate_topology(
            "random_connected", n, seed=case,
            avg_degree=rng.uniform(2, min(10, n - 1)),
        )
        a = mh_weights(g)
        worst_row = max(worst_row, float(np.max(np.abs(a.sum(axis=1) - 1.0))))
        worst_col = max(worst_col, float(np.max(np.abs(a.sum(axis=0) - 1.0))))
        worst_radius = max(worst_radius, contraction_radius(a))
    elapsed = time.perf_counter() - start
    ok = worst_row < 1e-12 and worst_col < 1e-12 and worst_radius < 1.0 and elapsed < 30.0
    _report(
        "3 weight matrix properties",
        ok,
        f"(200 graphs, sums off by <= {max(worst_row, worst_col):.1e}, "
        f"radius <= {worst_radius:.6f}, {elapsed:.1f}s)",
    )


def test_criterion_4_share_secrecy_and_reconstruction():
    p = 11
    holders = (1, 2, 3)
    ok = True
    for tau in (1, 2):
        # joint share distribution over all coefficient vectors, per secret
        for points in itertools.combinations(holders, tau):
            dists = []
            for secret in range(p):
                counts = {}
                for coeffs in itertools.product(range(p), repeat=tau):
                    key = tuple(
                        (secret + sum(c * pow(x, m + 1, p)
                                      for m, c in enumerate(coeffs))) % p
                        for x in points
                    )
                    counts[key] = counts.get(key, 0) + 1
                dists.append(counts)
            base = dists[0]
            for other in dists[1:]:
                tv = sum(
                    abs(base.get(k, 0) - other.get(k, 0))
                    for k in set(base) | set(other)
                )
                ok = ok and tv == 0
        # every (tau+1)-subset reconstructs as sum_j w_j H(j) over its weights
        rng = np.random.default_rng(tau)
        for secret in range(p):
            coeffs = _share_streams(rng.bit_generator.random_raw(2), [tau], 1, p)
            shares = dict(zip(holders, evaluate(secret, coeffs[:, 0].tolist(), holders, p)))
            for subset in itertools.combinations(holders, tau + 1):
                w = interpolation_weights(flat_holders([subset]), p).tolist()
                got = sum(wj * shares[j] for wj, j in zip(w, subset)) % p
                ok = ok and got == secret
    _report("4 share secrecy by enumeration", ok, "(p=11, tau in {1,2}, TV = 0)")


def test_criterion_5_iteration_bound_tightness():
    rng = random.Random(5)
    p = 1020431
    ok = True
    for case in range(20):
        n = rng.randrange(3, 51)
        g = generate_topology(
            "random_connected", n, seed=500 + case,
            avg_degree=rng.uniform(2, min(6, n - 1)),
        )
        a = mh_weights(g)
        k = min_iterations(second_largest_eigenvalue(a), n, p)
        threshold = 1.0 / (2 * p * math.sqrt(n))
        ones = np.ones((n, n))
        norm_k = np.linalg.norm(n * np.linalg.matrix_power(a, k) - ones, 2)
        ok = ok and norm_k < threshold
        if k > 1:
            norm_prev = np.linalg.norm(
                n * np.linalg.matrix_power(a, k - 1) - ones, 2
            )
            ok = ok and norm_prev >= threshold
    _, margins, _ = _end_to_end_runs()
    worst_margin = max(margins)
    ok = ok and worst_margin < 0.5
    _report(
        "5 iteration bound tightness",
        ok,
        f"(20 graphs tight at K and loose at K-1; "
        f"worst rounding margin {worst_margin:.4f} < 0.5)",
    )


def _labeled_connected_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)
        g = RoundTopology(n, edges)
        if is_connected(g):
            yield g


def test_criterion_6_secrecy_condition_equivalence():
    checks = 0
    ok = True
    # labeled-exhaustive up to 5 nodes
    for n in range(2, 6):
        for g in _labeled_connected_graphs(n):
            for r in range(n):
                for adv in itertools.combinations(range(1, n + 1), r):
                    ok = ok and secrecy_cross_check(g, AdversarySet(adv, n))
                    checks += 1
    # 6 nodes: one representative per isomorphism class covers every labeled
    # graph, because all three formulations commute with relabeling
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    six = [
        g for g in graph_atlas_g()
        if g.number_of_nodes() == 6 and nx.is_connected(g)
    ]
    assert len(six) == 112
    for ng in six:
        g = RoundTopology(6, frozenset((u + 1, v + 1) for u, v in ng.edges()))
        for r in range(6):
            for adv in itertools.combinations(range(1, 7), r):
                ok = ok and secrecy_cross_check(g, AdversarySet(adv, 6))
                checks += 1
    # random sampling at 7 and 8 nodes
    rng = random.Random(6)
    for case in range(500):
        n = rng.choice((7, 8))
        g = generate_topology(
            "random_connected", n, seed=case, avg_degree=rng.uniform(2, n - 1)
        )
        adv = AdversarySet(rng.sample(range(1, n + 1), rng.randrange(0, n - 1)), n)
        ok = ok and secrecy_cross_check(g, adv)
        checks += 1
    _report("6 secrecy condition equivalence", ok, f"({checks} cases, 0 disagreements)")


def _connected_benign_subsets(g, benign):
    members = sorted(benign)
    for size in range(1, len(members) + 1):
        for sub in itertools.combinations(members, size):
            sub_set = set(sub)
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                u = stack.pop()
                for v in g.neighbors(u):
                    if v in sub_set and v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) == size:
                yield frozenset(sub)


def test_criterion_7_inference_oracle():
    rng = random.Random(7)
    instances = 0
    ok = True
    while instances < 100:
        n = rng.randrange(4, 11)
        g = generate_topology(
            "random_connected", n, seed=7000 + instances,
            avg_degree=rng.uniform(2, min(5, n - 1)),
        )
        adv_ids = rng.sample(range(1, n + 1), rng.randrange(1, n - 1))
        adv = AdversarySet(adv_ids, n)
        theta_max = 4.0
        prime = next_prime(int(max(n, 1 + 2 * 100 * n * theta_max)))
        cfg = ProtocolConfig(
            n_learners=n, model_dim=1, sigma=2, prime=prime, rounds=1,
            k_policy="auto", weights="uniform", theta_max=theta_max,
            seed=instances,
            schedule=TopologySchedule.from_graphs([g]),
        )
        models = np.random.default_rng(instances).uniform(
            -theta_max, theta_max, (n, 1)
        )
        rec = execute_round(models, g, cfg, record_trajectory=False)
        transcript = Transcript(meta={"sigma": 2, "prime": prime}, rounds=[rec])
        report = adversary_infer(transcript, adv, cfg)
        r = report.rounds[0]
        ok = ok and verify_inference(report, transcript, cfg)
        decomp = surrounded_components(g, adv)
        for comp in decomp.components:
            members = tuple(sorted(comp))
            truth = sum(int(rec.encoded_secrets[i - 1][0]) for i in comp) % prime
            leaked = {
                f.members: f.values[0] for f in r.leaked if f.kind == "component_sum"
            }
            ok = ok and r.component_inferable[members] and leaked[members] == truth
        for i in sorted(adv.benign):
            lonely = not any(j in adv.benign for j in g.neighbors(i))
            ok = ok and r.individual_inferable[i] == lonely
            if lonely:
                truth = int(rec.encoded_secrets[i - 1][0])
                leaked = {
                    f.members[0]: f.values[0]
                    for f in r.leaked if f.kind == "individual"
                }
                ok = ok and leaked[i] == truth
        surrounded = set(decomp.components)
        for group in _connected_benign_subsets(g, adv.benign):
            if group not in surrounded:
                inferable, _ = r.infer_functional({i: 1 for i in group})
                ok = ok and not inferable
        instances += 1
    _report("7 inference oracle", ok, f"({instances} instances)")


def test_criterion_8_scaling_shape():
    pts_shares = bench_share_sweep([64, 128, 256, 384, 512], reps=5, seed=8)
    _, r2_shares = _linear_fit([x for x, _ in pts_shares], [y for _, y in pts_shares])
    pts_iters = bench_iteration_sweep([200, 400, 800, 1600, 3200], reps=5, seed=8)
    _, r2_iters = _linear_fit([x for x, _ in pts_iters], [y for _, y in pts_iters])
    ok = r2_shares > 0.99 and r2_iters > 0.99
    _report(
        "8 scaling shape",
        ok,
        f"(share sweep R^2 {r2_shares:.4f}, iteration sweep R^2 {r2_iters:.4f})",
    )


def test_criterion_9_reference_parameter_sanity():
    ok_flag, admissible = check_p_bound(1020431, 100, Precision(2), 51.02)
    ok = ok_flag and abs(admissible - 51.0215) < 1e-9
    # the reference configuration itself is accepted end to end
    cfg = ProtocolConfig(
        n_learners=100, model_dim=2, sigma=2, prime=1020431, rounds=1,
        k_policy="auto", weights="uniform", theta_max=51.02, seed=9,
        schedule=TopologySchedule.generated(
            "random_connected", 100, seed=9, avg_degree=87
        ),
    )
    result = run_training(cfg)
    ok = ok and result.summary["max_deviation"] == 0.0
    _report(
        "9 reference parameter sanity",
        ok,
        f"(max admissible |theta| = {admissible}, deviation "
        f"{result.summary['max_deviation']})",
    )
