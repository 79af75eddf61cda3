import itertools
import json
import pathlib
import random

import numpy as np
import pytest
from test_protocol import time_limit

from ppdfl.field import next_prime
from ppdfl.privacy import (
    AdversarySet,
    TranscriptIncomplete,
    adversary_infer,
    literal_surrounded_sets,
    perfect_secrecy,
    secrecy_cross_check,
    surrounded_components,
    verify_inference,
)
from ppdfl.protocol import ProtocolConfig, Transcript, execute_round
from ppdfl.topology import RoundTopology, TopologySchedule, generate_topology, is_connected


def path3():
    return RoundTopology(3, frozenset({(1, 2), (2, 3)}))


def ring4():
    return RoundTopology(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}))


# The widest modulus PrimeModulus admits: elimination products reach 2^62.
P31 = 2**31 - 1


def run_one_round(g, sigma=2, theta_max=4.0, seed=5, dim=1, prime=None):
    n = g.n_nodes
    if prime is None:
        prime = next_prime(int(max(n, 1 + 2 * 10**sigma * n * theta_max)))
    cfg = ProtocolConfig(
        n_learners=n,
        model_dim=dim,
        sigma=sigma,
        prime=prime,
        rounds=1,
        k_policy="auto",
        weights="uniform",
        theta_max=theta_max,
        seed=seed,
        schedule=TopologySchedule.from_graphs([g]),
    )
    gen = np.random.default_rng(seed)
    models = gen.uniform(-theta_max, theta_max, (n, dim))
    rec = execute_round(models, g, cfg, record_trajectory=False)
    transcript = Transcript(meta={"sigma": sigma, "prime": prime}, rounds=[rec])
    return cfg, transcript, rec


def test_adversary_set_validation():
    with pytest.raises(ValueError):
        AdversarySet({1, 2, 3}, 3)
    with pytest.raises(ValueError):
        AdversarySet({0}, 3)
    assert AdversarySet(set(), 3).benign == {1, 2, 3}


def test_surrounded_components_no_adversary():
    decomp = surrounded_components(ring4(), AdversarySet(set(), 4))
    assert decomp.components == (frozenset({1, 2, 3, 4}),)
    assert decomp.boundary == (frozenset(),)


def test_surrounded_components_path_middle_adversary():
    decomp = surrounded_components(path3(), AdversarySet({2}, 3))
    assert set(decomp.components) == {frozenset({1}), frozenset({3})}
    assert all(b == c for b, c in zip(decomp.boundary, decomp.components))


def test_surrounded_components_path_end_adversary():
    decomp = surrounded_components(path3(), AdversarySet({3}, 3))
    assert decomp.components == (frozenset({1, 2}),)
    assert decomp.boundary == (frozenset({2}),)


def test_literal_enumeration_matches_definition_by_hand():
    sets = literal_surrounded_sets(path3(), AdversarySet({2}, 3))
    assert sets == {frozenset({1}), frozenset({3})}
    sets = literal_surrounded_sets(path3(), AdversarySet({3}, 3))
    assert sets == {frozenset({1, 2})}


def test_perfect_secrecy_no_adversary():
    verdict = perfect_secrecy([ring4()], AdversarySet(set(), 4))
    assert verdict.ok


def test_perfect_secrecy_ring_single_adversary():
    verdict = perfect_secrecy([ring4()] * 3, AdversarySet({1}, 4))
    assert verdict.ok


def test_perfect_secrecy_fails_on_star_round():
    star = generate_topology("star", 4)
    schedule = [ring4(), RoundTopology(4, star.edges)]
    verdict = perfect_secrecy(schedule, AdversarySet({1}, 4))
    assert not verdict.ok
    assert verdict.failing_round == 2
    assert set(verdict.witnesses) == {frozenset({2}), frozenset({3}), frozenset({4})}


def test_secrecy_cross_check_all_graphs_n4():
    # every labeled connected graph on 4 nodes, every adversary subset
    nodes = [1, 2, 3, 4]
    pairs = list(itertools.combinations(nodes, 2))
    count = 0
    for bits in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)
        g = RoundTopology(4, edges)
        if not is_connected(g):
            continue
        for r in range(4):
            for adv in itertools.combinations(nodes, r):
                assert secrecy_cross_check(g, AdversarySet(adv, 4))
                count += 1
    assert count == 38 * 15  # 38 connected labeled graphs, 15 proper subsets


def test_secrecy_cross_check_random_n8():
    rng = random.Random(71)
    for trial in range(100):
        g = generate_topology(
            "random_connected", 8, seed=trial, avg_degree=rng.uniform(2, 5)
        )
        adv = AdversarySet(rng.sample(range(1, 9), rng.randrange(0, 7)), 8)
        assert secrecy_cross_check(g, adv)


def test_infer_path_middle_adversary_reads_both_ends():
    g = path3()
    cfg, transcript, rec = run_one_round(g)
    report = adversary_infer(transcript, AdversarySet({2}, 3), cfg)
    r = report.rounds[0]
    assert not r.secrecy_ok
    assert r.individual_inferable == {1: True, 3: True}
    assert all(r.component_inferable.values())
    assert verify_inference(report, transcript, cfg)
    # reconstructed values equal the exact encoded secrets
    leaked = {f.members: f.values[0] for f in r.leaked if f.kind == "individual"}
    assert leaked[(1,)] == rec.encoded_secrets[0][0]
    assert leaked[(3,)] == rec.encoded_secrets[2][0]


def test_infer_path_end_adversary_gets_component_sum_only():
    g = path3()
    cfg, transcript, rec = run_one_round(g)
    report = adversary_infer(transcript, AdversarySet({3}, 3), cfg)
    r = report.rounds[0]
    assert r.secrecy_ok  # single benign component
    assert r.component_inferable == {(1, 2): True}
    assert r.individual_inferable == {1: False, 2: False}
    p = cfg.prime
    comp_value = next(f for f in r.leaked if f.kind == "component_sum").values[0]
    assert comp_value == (int(rec.encoded_secrets[0][0])
                          + int(rec.encoded_secrets[1][0])) % p


def test_infer_empty_adversary_sees_only_global_sum():
    g = ring4()
    cfg, transcript, rec = run_one_round(g)
    report = adversary_infer(transcript, AdversarySet(set(), 4), cfg)
    r = report.rounds[0]
    assert r.secrecy_ok
    assert r.component_inferable == {(1, 2, 3, 4): True}
    assert r.individual_inferable == {i: False for i in range(1, 5)}


def test_infer_full_coordinate_audit_agrees():
    g = ring4()
    cfg, transcript, rec = run_one_round(g, dim=3)
    rep_one = adversary_infer(transcript, AdversarySet({1}, 4), cfg)
    rep_all = adversary_infer(
        transcript, AdversarySet({1}, 4), cfg, coordinates=range(3)
    )
    assert verify_inference(rep_all, transcript, cfg)
    r1, rall = rep_one.rounds[0], rep_all.rounds[0]
    assert r1.component_inferable == rall.component_inferable
    assert r1.individual_inferable == rall.individual_inferable


def test_infer_observed_mode_matches_worst_case_on_small_graphs():
    rng = random.Random(5)
    for trial in range(6):
        n = rng.randrange(3, 7)
        g = generate_topology(
            "random_connected", n, seed=trial, avg_degree=min(2.5, n - 1)
        )
        adv = AdversarySet(rng.sample(range(1, n + 1), rng.randrange(1, n - 1)), n)
        for prime in (None, P31):
            cfg, transcript, _ = run_one_round(g, seed=trial, prime=prime)
            worst = adversary_infer(transcript, adv, cfg, mode="worst_case")
            observed = adversary_infer(transcript, adv, cfg, mode="observed")
            assert verify_inference(observed, transcript, cfg)
            w, o = worst.rounds[0], observed.rounds[0]
            # observed credit is a subset of the worst-case credit
            for members, ok in o.component_inferable.items():
                if ok:
                    assert w.component_inferable[members]
            for i, ok in o.individual_inferable.items():
                if ok:
                    assert w.individual_inferable[i]
            # surrounded component sums leak under both
            assert all(o.component_inferable.values())


def test_full_audit_of_reference_config_within_time_bound():
    # The scale target: every coordinate of a large_random round (coalition
    # {1,5}: a 272 x 8626 system over GF(p)) audited in seconds.
    root = pathlib.Path(__file__).resolve().parents[1]
    raw = json.loads((root / "configs" / "large_random.json").read_text())
    cfg = ProtocolConfig.from_dict(raw)
    g = cfg.schedule.round_graph(1)
    half = cfg.theta_max / 2
    models = np.random.default_rng(cfg.seed).uniform(
        -half, half, (cfg.n_learners, cfg.model_dim)
    )
    rec = execute_round(models, g, cfg, round_index=1, record_trajectory=False)
    transcript = Transcript(meta={"sigma": cfg.sigma, "prime": cfg.prime}, rounds=[rec])
    adv = AdversarySet({1, 5}, cfg.n_learners)
    with time_limit(30):
        report = adversary_infer(
            transcript, adv, cfg, coordinates=range(cfg.model_dim)
        )
    assert verify_inference(report, transcript, cfg)
    decomp = surrounded_components(g, adv)
    leaked = report.rounds[0].leaked
    sums = {f.members for f in leaked if f.kind == "component_sum"}
    assert sums == {tuple(sorted(c)) for c in decomp.components}
    assert all(len(f.values) == cfg.model_dim for f in leaked)


def test_infer_rejects_bundleless_transcript():
    g = path3()
    cfg, transcript, rec = run_one_round(g)
    rec.bundles = []
    with pytest.raises(TranscriptIncomplete):
        adversary_infer(transcript, AdversarySet({2}, 3), cfg)


def connected_subsets(g, members):
    """All nonempty subsets of members that induce a connected subgraph."""
    out = []
    members = sorted(members)
    for size in range(1, len(members) + 1):
        for sub in itertools.combinations(members, size):
            sub_set = set(sub)
            seen = {sub[0]}
            frontier = [sub[0]]
            while frontier:
                u = frontier.pop()
                for v in g.neighbors(u):
                    if v in sub_set and v not in seen:
                        seen.add(v)
                        frontier.append(v)
            if len(seen) == size:
                out.append(frozenset(sub))
    return out


def test_inference_engine_both_directions_randomized():
    """Surrounded sums leak exactly; nothing else does."""
    rng = random.Random(99)
    for trial in range(20):
        n = rng.randrange(4, 9)
        g = generate_topology(
            "random_connected", n, seed=200 + trial,
            avg_degree=rng.uniform(2, min(4, n - 1)),
        )
        adv_ids = rng.sample(range(1, n + 1), rng.randrange(1, n - 1))
        adv = AdversarySet(adv_ids, n)
        decomp = surrounded_components(g, adv)
        for prime in (None, P31):
            cfg, transcript, rec = run_one_round(g, seed=300 + trial, dim=2, prime=prime)
            report = adversary_infer(transcript, adv, cfg, coordinates=range(2))
            r = report.rounds[0]
            assert verify_inference(report, transcript, cfg)
            # completeness: every surrounded component sum is reconstructed
            for comp in decomp.components:
                assert r.component_inferable[tuple(sorted(comp))]
            # individual secrets leak exactly for learners with no benign neighbor
            for i in sorted(adv.benign):
                has_benign_neighbor = any(j in adv.benign for j in g.neighbors(i))
                assert r.individual_inferable[i] == (not has_benign_neighbor)
            # secrecy: no connected, non-surrounded benign group's sum is in span
            surrounded = set(decomp.components)
            for group in connected_subsets(g, adv.benign):
                if group in surrounded:
                    continue
                inferable, _ = r.infer_functional({i: 1 for i in group})
                assert not inferable, f"non-surrounded {sorted(group)} leaked"


def test_secrecy_verdict_equals_span_exactness_exhaustive_n4():
    """perfect_secrecy holds iff the inferable functionals over benign
    secrets reduce to the full benign sum: exhaustive over all connected
    4-node graphs and all proper adversary subsets."""
    nodes = [1, 2, 3, 4]
    pairs = list(itertools.combinations(nodes, 2))
    checked = 0
    for bits in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)
        g = RoundTopology(4, edges)
        if not is_connected(g):
            continue
        cfg, transcript, rec = run_one_round(g, sigma=1, theta_max=2.0,
                                             seed=bits)
        for r_size in range(4):
            for adv_ids in itertools.combinations(nodes, r_size):
                adv = AdversarySet(adv_ids, 4)
                report = adversary_infer(transcript, adv, cfg)
                r = report.rounds[0]
                beyond_global = False
                for group in connected_subsets(g, adv.benign):
                    if group == adv.benign:
                        continue
                    inferable, _ = r.infer_functional({i: 1 for i in group})
                    beyond_global = beyond_global or inferable
                verdict = perfect_secrecy([g], adv)
                assert verdict.ok == (not beyond_global)
                assert r.secrecy_ok == verdict.ok
                checked += 1
    assert checked == 38 * 15
