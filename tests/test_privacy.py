import itertools
import json
import pathlib
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from test_graph_oracles import literal_surrounded_sets, secrecy_cross_check
from test_protocol import time_limit

from ppdfl import privacy
from ppdfl.cli import main
from ppdfl.field import _rref, next_prime
from ppdfl.privacy import (
    AdversarySet,
    TranscriptIncomplete,
    _build_view,
    adversary_infer,
    perfect_secrecy,
    surrounded_components,
    verify_inference,
)
from ppdfl.protocol import ProtocolConfig, Transcript, build_initial_state, execute_round
from ppdfl.sharing import _generate_share_values, _share_streams
from ppdfl.topology import (
    RoundTopology,
    TopologySchedule,
    generate_topology,
    is_connected,
    share_pairs,
)


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
        for prime in (None, P31, next_prime(n)):
            if prime == next_prime(n):
                # Below any config's modulus bound: draw the analyzer inputs.
                record = synthetic_round(g, prime, 1, random.Random(trial))
                cfg = SimpleNamespace(prime=prime, sigma=0)
                transcript = Transcript(meta={}, rounds=[record])
            else:
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


def seat_rank(g, adversaries):
    """Rank over the rationals of the Krylov rows e_x A^k, k < N, of the
    coalition's seats (its members and their neighbours), projected onto
    the benign learners; A is built from the degrees, a_ij = 1/(max(deg_i,
    deg_j) + 1)."""
    n = g.n_nodes
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in g.neighbors(i):
            a[i - 1][j - 1] = Fraction(1, max(g.degree(i), g.degree(j)) + 1)
        a[i - 1][i - 1] = 1 - sum(a[i - 1])
    seats = set(adversaries.ids).union(*(g.neighbors(x) for x in adversaries.ids))
    benign = sorted(adversaries.benign)
    rows = []
    for x in seats:
        row = [Fraction(int(c == x - 1)) for c in range(n)]
        for _ in range(n):
            rows.append([row[i - 1] for i in benign])
            row = [sum(row[i] * a[i][c] for i in range(n)) for c in range(n)]
    rank = 0
    for c in range(len(benign)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def observed_rank(g, adversaries, p):
    rows = privacy._observed_restriction(g, adversaries, sorted(adversaries.benign), p)
    return len(_rref(np.array(rows), p)[1]) if rows else 0


@pytest.mark.parametrize("seed, coalition, leaking", [(2, {7, 10}, {3, 5}), (3, {2}, set())])
def test_observed_mode_keeps_the_seats_rank_mod_a_small_prime(seed, coalition, leaking):
    """At p = 11 the seats' rational rows have denominators divisible by p.
    Their GF(p) restriction keeps the rational rank, so observed mode
    answers as the worst case does wherever the seats see every benign
    state: with seed 2, learner 5's only neighbour is in the coalition."""
    g = generate_topology("random_connected", 10, seed=seed, avg_degree=2.5)
    p = 11
    adv = AdversarySet(coalition, 10)
    assert observed_rank(g, adv, p) == seat_rank(g, adv) == 8
    record = synthetic_round(g, p, 1, random.Random(0))
    transcript = Transcript(meta={}, rounds=[record])
    cfg = SimpleNamespace(prime=p, sigma=0)
    worst = adversary_infer(transcript, adv, cfg, mode="worst_case").rounds[0]
    observed = adversary_infer(transcript, adv, cfg, mode="observed")
    assert verify_inference(observed, transcript, cfg)
    o = observed.rounds[0]
    assert o.component_inferable == worst.component_inferable
    assert all(o.component_inferable.values())
    assert {i for i, ok in o.individual_inferable.items() if ok} == leaking
    for i in leaking:
        assert o.infer_functional({i: 1}) == (True, record.encoded_secrets[i - 1][0])


def test_observed_restriction_rank_equals_the_rational_rank():
    """Every single-member coalition of small random graphs, at the
    smallest admissible prime, where p divides denominators most often."""
    checked = 0
    for n in range(7, 10):
        for seed in range(4):
            g = generate_topology("random_connected", n, seed=seed, avg_degree=2.5)
            for a in range(1, n + 1):
                adv = AdversarySet({a}, n)
                assert observed_rank(g, adv, next_prime(n)) == seat_rank(g, adv)
                checked += 1
    assert checked == 96


@pytest.mark.parametrize("mode", ["worst_case", "observed"])
def test_modulus_not_above_the_learner_count_is_refused(mode, tmp_path, capsys):
    """The answers rest on N distinct nonzero ids mod p: a line of 7
    learners at p = 7 is refused, by the analyzer and by the CLI."""
    g = generate_topology("line", 7)
    record = synthetic_round(g, 7, 1, random.Random(1))
    transcript = Transcript(meta={"n_learners": 7, "prime": 7, "sigma": 0}, rounds=[record])
    with pytest.raises(ValueError, match="does not exceed"):
        adversary_infer(transcript, AdversarySet({4}, 7), SimpleNamespace(prime=7, sigma=0),
                        mode=mode)
    record.k_used, record.lambda2, record.rounding_margin = 1, 0.0, 0.0
    record.state_trajectory = None
    record.decoded = record.local_models = record.rounded.astype(float)
    path = tmp_path / "transcript.jsonl"
    transcript.to_jsonl(str(path))
    argv = ["privacy", "--transcript", str(path), "--adversary", "4", "--mode", mode]
    assert main(argv) == 2
    assert "modulus 7 does not exceed the 7 learner ids" in capsys.readouterr().err


def test_full_audit_of_reference_config_within_time_bound():
    # The scale target: every coordinate of a large_random round (coalition
    # {1,5}; 8624 share values, 98 benign learners) audited in seconds.
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


def test_sparse_1k_round_audit_within_time_bound():
    # The large-N scale target: all 16 coordinates of one N=1000, degree-4
    # round at p = 2^31-1: about 5000 share values over 998 benign learners,
    # read in closed form.
    raw = {
        "n_learners": 1000, "model_dim": 16, "sigma": 2, "prime": P31,
        "rounds": 1, "k_policy": "auto", "weights": "uniform",
        "theta_max": 50.0, "seed": 11,
        "schedule": {"kind": "random_connected", "avg_degree": 4.0, "seed": 11},
    }
    cfg = ProtocolConfig.from_dict(raw)
    g = cfg.schedule.round_graph(1)
    models = np.random.default_rng(11).uniform(-25, 25, (cfg.n_learners, cfg.model_dim))
    rec = execute_round(models, g, cfg, round_index=1, record_trajectory=False)
    transcript = Transcript(meta={"sigma": cfg.sigma, "prime": cfg.prime}, rounds=[rec])
    adv = AdversarySet({1, 5}, cfg.n_learners)
    with time_limit(10):
        report = adversary_infer(
            transcript, adv, cfg, coordinates=range(cfg.model_dim)
        )
    assert verify_inference(report, transcript, cfg)
    decomp = surrounded_components(g, adv)
    leaked = report.rounds[0].leaked
    sums = {f.members for f in leaked if f.kind == "component_sum"}
    assert sums == {tuple(sorted(c)) for c in decomp.components}
    assert all(len(f.values) == cfg.model_dim for f in leaked)


def test_worst_case_audit_at_10k_learners_in_bounded_memory():
    # All 16 coordinates of an N=10^4, degree-4 round at p = 2^31-1, audited
    # by a coalition of every tenth learner, which splits the benign set. The
    # round is built from the round's own share functions alone, so it needs
    # no eigensolve.
    n, dim, p = 10_000, 16, P31
    g = generate_topology("random_connected", n, seed=3, avg_degree=4.0)
    rng = np.random.default_rng(3)
    secrets = rng.integers(0, p, size=(n, dim), dtype=np.int64)
    drawn = _share_streams(rng.bit_generator.random_raw(2), np.diff(g.indptr), dim, p)
    bundles = _generate_share_values(secrets, drawn, g.indptr, g.pair_rows[1], p)
    record = SimpleNamespace(
        round_index=1,
        topology=g,
        bundles=bundles,
        initial_states=build_initial_state(bundles, g, p),
        encoded_secrets=secrets,
        rounded=secrets.sum(axis=0, keepdims=True) % p,
    )
    transcript = Transcript(meta={"sigma": 2, "prime": p}, rounds=[record])
    cfg = SimpleNamespace(prime=p, sigma=2)
    adv = AdversarySet(range(1, n + 1, 10), n)
    tracemalloc.start()
    try:
        with time_limit(30):
            report = adversary_infer(transcript, adv, cfg, coordinates=range(dim))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert verify_inference(report, transcript, cfg)
    decomp = surrounded_components(g, adv)
    assert len(decomp.components) > 1
    leaked = report.rounds[0].leaked
    sums = {f.members for f in leaked if f.kind == "component_sum"}
    assert sums == {tuple(sorted(c)) for c in decomp.components}
    individuals = {f.members for f in leaked if f.kind == "individual"}
    assert individuals == {m for m in sums if len(m) == 1}
    assert all(len(f.values) == dim for f in leaked)


def test_infer_rejects_bundleless_transcript():
    g = path3()
    cfg, transcript, rec = run_one_round(g)
    rec.bundles = []
    with pytest.raises(TranscriptIncomplete):
        adversary_infer(transcript, AdversarySet({2}, 3), cfg)


ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def large_random_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("large_random")
    config = str(ROOT / "configs" / "large_random.json")
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    return (out / "transcript.jsonl").read_text().splitlines()


def raise_one_value(lines, corrupt, coalition, p):
    """lines with one coordinate-0 value of round 1 raised by 1 mod p: a
    benign learner's masked state, or the first bundle of a shares record
    that crosses into or out of the coalition."""
    for k, line in enumerate(lines[1:], start=1):
        msg = json.loads(line)
        if msg["round"] != 1:
            continue
        inside = msg.get("from") in coalition
        if corrupt == "benign_state" and msg["phase"] == "state0" and not inside:
            row = msg["payload"]
        elif corrupt.startswith("bundle") and msg["phase"] == "shares":
            into = corrupt == "bundle_to_coalition"
            crossing = [e for e, i in enumerate(msg["to"]) if (i in coalition) == into]
            if inside == into or not crossing:
                continue
            row = msg["payload"][crossing[0]]
        else:
            continue
        row[0] = (row[0] + 1) % p
        return [*lines[:k], json.dumps(msg), *lines[k + 1:]]
    raise AssertionError(f"no value to alter for {corrupt}")


@pytest.mark.parametrize("corrupt", [None, "benign_state", "bundle_into_benign",
                                     "bundle_to_coalition"])
def test_altered_transcript_value_is_refused(corrupt, large_random_lines, tmp_path):
    """Coalition {1,5} audits coordinate 0 of round 1. One altered benign
    masked state, coalition-to-benign bundle or benign-to-coalition bundle
    contradicts the round's aggregate output: the analyzer refuses it, and
    the CLI exits 2. The unaltered transcript is accepted."""
    coalition = {1, 5}
    meta = json.loads(large_random_lines[0])["meta"]
    lines = large_random_lines
    if corrupt is not None:
        lines = raise_one_value(lines, corrupt, coalition, meta["prime"])
    path = tmp_path / "transcript.jsonl"
    path.write_text("\n".join(lines) + "\n")
    transcript = Transcript.from_jsonl(str(path))
    cfg = SimpleNamespace(prime=meta["prime"], sigma=meta["sigma"])
    adv = AdversarySet(coalition, meta["n_learners"])
    argv = ["privacy", "--transcript", str(path), "--adversary", "1,5"]
    if corrupt is None:
        assert verify_inference(adversary_infer(transcript, adv, cfg), transcript, cfg)
        assert main(argv) != 2
    else:
        with pytest.raises(TranscriptIncomplete):
            adversary_infer(transcript, adv, cfg)
        assert main(argv) == 2


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


def lagrange_weight(holders, i, p):
    """delta(C, i) = prod_{k in C, k != i} k / (k - i) mod p, in Python ints."""
    num = den = 1
    for k in holders:
        if k != i:
            num = num * k % p
            den = den * (k - i) % p
    return num * pow(den, -1, p) % p


def synthetic_round(g, p, dim, rng):
    """A round's analyzer inputs drawn directly: random secrets and degree
    deg_j share polynomials, weighted shares to every closed neighbour, and
    masked states summing them. Any prime above N works, however small."""
    n = g.n_nodes
    secrets = [[rng.randrange(p) for _ in range(dim)] for _ in range(n)]
    shares = {}
    for j in range(1, n + 1):
        holders = sorted((j, *g.neighbors(j)))
        coeffs = [[rng.randrange(p) for _ in range(g.degree(j))] for _ in range(dim)]
        for i in holders:
            d = lagrange_weight(holders, i, p)
            shares[j, i] = [
                d * (secrets[j - 1][c] + sum(a * pow(i, m, p) for m, a in
                                             enumerate(coeffs[c], start=1))) % p
                for c in range(dim)
            ]
    states = [
        [sum(shares[j, i][c] for j in (i, *g.neighbors(i))) % p for c in range(dim)]
        for i in range(1, n + 1)
    ]
    total = [sum(s[c] for s in secrets) % p for c in range(dim)]
    return SimpleNamespace(
        round_index=1,
        topology=g,
        bundles=np.array([shares[pair] for pair in sorted(shares)], dtype=np.int64),
        initial_states=np.array(states, dtype=np.int64),
        encoded_secrets=np.array(secrets, dtype=np.int64),
        rounded=np.array([total] * n, dtype=np.int64),
    )


def coefficient_basis_infer(record, adversaries, p, coords, mode):
    """Reference analyzer over the coefficient basis: every benign secret,
    then each benign learner's coefficients of x^1..x^deg. Rows are built
    one Python-int entry at a time; returns infer(functional) ->
    (inferable, {coordinate: value})."""
    g = record.topology
    adv = adversaries.ids
    benign = sorted(adversaries.benign)
    senders, receivers = share_pairs(g)
    bundle = {(j, i): row for j, i, row in
              zip(senders.tolist(), receivers.tolist(), record.bundles.tolist())}
    x_col = {j: k for k, j in enumerate(benign)}
    c_col = {}
    n_unknowns = len(benign)
    for j in benign:
        c_col[j] = n_unknowns
        n_unknowns += g.degree(j)

    def share_row(row, j, i):
        d = lagrange_weight(sorted((j, *g.neighbors(j))), i, p)
        row[x_col[j]] = (row[x_col[j]] + d) % p
        for m in range(1, g.degree(j) + 1):
            col = c_col[j] + m - 1
            row[col] = (row[col] + d * pow(i, m, p)) % p

    rows = []
    aggregate = [1 if k < len(benign) else 0 for k in range(n_unknowns)]
    rows.append(aggregate + [
        (record.rounded[0][c] - sum(int(record.encoded_secrets[a - 1][c]) for a in adv)) % p
        for c in coords
    ])
    for j in benign:
        for a in g.neighbors(j):
            if a in adv:
                row = [0] * n_unknowns
                share_row(row, j, a)
                rows.append(row + [bundle[j, a][c] % p for c in coords])
    states = []
    for i in benign:
        row = [0] * n_unknowns
        known = [0] * len(coords)
        for j in (i, *g.neighbors(i)):
            if j in adv:
                known = [k + bundle[j, i][c] for k, c in zip(known, coords)]
            else:
                share_row(row, j, i)
        states.append(row + [(int(record.initial_states[i - 1][c]) - k) % p
                             for k, c in zip(known, coords)])
    if mode == "worst_case":
        rows += states
    else:
        for comb in privacy._observed_restriction(g, adversaries, benign, p):
            rows.append([sum(f * s[k] for f, s in zip(comb, states)) % p
                         for k in range(n_unknowns + len(coords))])
    reduced, pivots = _rref(np.array(rows, dtype=np.int64), p)
    assert all(c < n_unknowns for c in pivots), "reference system inconsistent"
    basis = reduced[: len(pivots)].tolist()

    def infer(functional):
        v = [0] * (n_unknowns + len(coords))
        for i, coeff in functional.items():
            v[x_col[i]] = coeff % p
        for row, c in zip(basis, pivots):
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        if any(v[:n_unknowns]):
            return False, None
        return True, {c: -x % p for c, x in zip(coords, v[n_unknowns:])}

    return infer


def share_value_system(record, adversaries, p, coords):
    """The worst-case view as one dense GF(p) system over share values, row
    by row: the aggregate, one row per share a benign learner handed to the
    coalition, and one row per benign masked state less the coalition's
    bundles into it. Returns (system, unknowns, delta): column k is the
    share value f_j(i) of unknowns[k] = (j, i), weighted by delta[k] in a
    secret; the last len(coords) columns are the right-hand sides."""
    g = record.topology
    adv = adversaries.ids
    senders, receivers = share_pairs(g)
    bundle = {(j, i): row for j, i, row in
              zip(senders.tolist(), receivers.tolist(), record.bundles.tolist())}
    unknowns = [pair for pair in bundle if pair[0] not in adv]
    col = {pair: k for k, pair in enumerate(unknowns)}
    holders = {j: sorted((j, *g.neighbors(j))) for j in adversaries.benign}
    delta = [lagrange_weight(holders[j], i, p) for j, i in unknowns]
    handed = [(j, i) for j, i in unknowns if i in adv]
    benign = sorted(adversaries.benign)
    n = len(unknowns)
    system = np.zeros((1 + len(handed) + len(benign), n + len(coords)), dtype=np.int64)
    system[0, :n] = delta
    for c_k, c in enumerate(coords):
        own = sum(int(record.encoded_secrets[a - 1][c]) for a in adv)
        system[0, n + c_k] = (int(record.rounded[0][c]) - own) % p
    for r, pair in enumerate(handed, start=1):
        system[r, col[pair]] = delta[col[pair]]
        system[r, n:] = [bundle[pair][c] % p for c in coords]
    for r, i in enumerate(benign, start=1 + len(handed)):
        state = [int(record.initial_states[i - 1][c]) for c in coords]
        for j in (i, *g.neighbors(i)):
            if j in adv:
                state = [s - bundle[j, i][c] for s, c in zip(state, coords)]
            else:
                system[r, col[j, i]] = delta[col[j, i]]
        system[r, n:] = [s % p for s in state]
    return system, unknowns, np.array(delta, dtype=np.int64)


def assert_non_leak_certificate(g, adversaries, p, oracle, functional):
    """A functional the analyzer calls not inferable has a witness: benign i
    with benign j, j' in N[i] whose coefficients differ. Then
    z = e_(j,i)/delta_ji - e_(j',i)/delta_j'i annihilates every row of the
    share-value system while the target gives c_j - c_j' != 0, so the
    functional is outside the row space."""
    system, unknowns, delta = oracle
    col = {pair: k for k, pair in enumerate(unknowns)}
    coeff = {i: functional.get(i, 0) % p for i in adversaries.benign}
    witness = next(
        (i, j, k)
        for i in sorted(adversaries.benign)
        for j in (i, *g.neighbors(i)) if j in coeff
        for k in g.neighbors(i) if k in coeff and coeff[j] != coeff[k]
    )
    i, j, k = witness
    a, b = col[j, i], col[k, i]
    za, zb = pow(int(delta[a]), -1, p), -pow(int(delta[b]), -1, p) % p
    rows = system[:, : len(unknowns)]
    assert not ((rows[:, a] * za % p + rows[:, b] * zb % p) % p).any()
    target = (coeff[j] * int(delta[a]) * za + coeff[k] * int(delta[b]) * zb) % p
    assert target == (coeff[j] - coeff[k]) % p != 0


def differential_graphs(sizes, rng):
    for kind, ns in sizes.items():
        for n in ns:
            if kind == "random_connected":
                yield generate_topology(kind, n, seed=rng.randrange(1000),
                                        avg_degree=rng.uniform(2, min(5, n - 1)))
            else:
                yield generate_topology(kind, n)


# The reference analyzers' dense systems grow as N^2 on complete graphs.
DIFFERENTIAL_SIZES = {
    "worst_case": {"star": (3, 100, 200), "line": (3, 100, 200),
                   "random_connected": (3, 100, 200), "complete": (3, 30, 60)},
    "observed": {"star": (3, 6, 12), "line": (3, 6, 12), "random_connected": (3, 6, 12)},
}


@pytest.mark.parametrize("mode", ["worst_case", "observed"])
def test_share_value_view_matches_coefficient_basis(mode, monkeypatch):
    """Same answers and values as the system over secrets and coefficients,
    for every component sum, every individual and random functionals. In
    worst-case mode every "not inferable" answer also comes with a witness
    checked against the share-value system."""
    # The rational Krylov span dominates observed mode; compute it once per
    # coalition for both analyzers.
    spans = {}
    krylov = privacy._observed_restriction

    def restriction(g, adversaries, benign, p):
        key = (g.edges, adversaries, p)
        if key not in spans:
            spans[key] = krylov(g, adversaries, benign, p)
        return spans[key]

    monkeypatch.setattr(privacy, "_observed_restriction", restriction)
    rng = random.Random(mode)
    coords = (0, 1)
    for g in differential_graphs(DIFFERENTIAL_SIZES[mode], rng):
        n = g.n_nodes
        for p in (next_prime(n), 1020431, P31):
            record = synthetic_round(g, p, len(coords), rng)
            for _ in range(3):
                adv = AdversarySet(rng.sample(range(1, n + 1), rng.randrange(0, n)), n)
                if mode == "worst_case":
                    view = privacy._ComponentView(record, adv, p, coords)
                    oracle = share_value_system(record, adv, p, coords)
                else:
                    view = _build_view(record, adv, SimpleNamespace(prime=p), coords)
                reference = coefficient_basis_infer(record, adv, p, coords, mode)
                benign = sorted(adv.benign)
                comps = surrounded_components(g, adv).components
                functionals = [{i: 1 for i in c} for c in comps]
                functionals += [{i: 1} for i in benign]
                for _ in range(4):
                    picked = rng.sample(benign, rng.randint(1, len(benign)))
                    functionals.append({i: rng.randrange(p) for i in picked})
                    mixed = {}
                    for c in comps:
                        f = rng.randrange(p)
                        mixed.update({i: f for i in c})
                    functionals.append(mixed)
                for functional in functionals:
                    answer = view.infer(functional)
                    assert answer == reference(functional), (
                        f"{mode} N={n} p={p} coalition {sorted(adv.ids)}: "
                        f"{functional}"
                    )
                    if mode == "worst_case" and not answer[0]:
                        assert_non_leak_certificate(g, adv, p, oracle, functional)
                for c in comps:
                    ok, values = view.infer({i: 1 for i in c})
                    if mode == "worst_case":
                        assert ok
                    if ok:
                        assert values == {
                            k: sum(int(record.encoded_secrets[i - 1][k]) for i in c) % p
                            for k in coords
                        }


def test_share_value_system_is_block_sparse():
    """The lemma the closed form rests on: each handed share is one unknown,
    the masked-state rows have pairwise disjoint supports, with the handed
    rows they cover every unknown once, and the aggregate row is their sum."""
    rng = random.Random(3)
    for n, seed in ((12, 1), (30, 2), (30, 3)):
        g = generate_topology("random_connected", n, seed=seed, avg_degree=4)
        p = 1020431
        record = synthetic_round(g, p, 2, rng)
        adv = AdversarySet(rng.sample(range(1, n + 1), 4), n)
        system, unknowns, _ = share_value_system(record, adv, p, (0, 1))
        n_unknowns = len(unknowns)
        benign = sorted(adv.benign)
        assert n_unknowns == sum(g.degree(j) + 1 for j in benign)
        handed = sum(1 for j in benign for a in g.neighbors(j) if a in adv.ids)
        assert system.shape == (1 + handed + len(benign), n_unknowns + 2)
        support = system[:, :n_unknowns] != 0
        assert support[0].all()
        assert (support[1 : 1 + handed].sum(axis=1) == 1).all()
        benign_holders = [sum(j not in adv.ids for j in (i, *g.neighbors(i)))
                          for i in benign]
        assert support[1 + handed :].sum(axis=1).tolist() == benign_holders
        assert (support[1:].sum(axis=0) == 1).all()
        assert (system[1:, :n_unknowns].sum(axis=0) % p == system[0, :n_unknowns]).all()
        # A consistent record: the aggregate's right-hand side is theirs summed.
        assert (system[1:, n_unknowns:].sum(axis=0) % p == system[0, n_unknowns:]).all()


def test_worst_case_audit_needs_no_elimination(monkeypatch):
    """The closed form builds no system: elimination and the interpolation
    weights are never reached."""

    def refuse(*args, **kwargs):
        raise AssertionError("worst-case audit reached elimination")

    for name in ("_rref", "_reduce_vector", "interpolation_weights", "_build_view"):
        monkeypatch.setattr(privacy, name, refuse)
    g = generate_topology("random_connected", 40, seed=4, avg_degree=3)
    cfg, transcript, _ = run_one_round(g, dim=2, prime=P31)
    adv = AdversarySet(range(1, 41, 4), 40)
    report = adversary_infer(transcript, adv, cfg, coordinates=range(2))
    assert verify_inference(report, transcript, cfg)
    sums = {f.members for f in report.rounds[0].leaked if f.kind == "component_sum"}
    assert sums == {tuple(sorted(c)) for c in surrounded_components(g, adv).components}


def test_observed_audit_reduces_only_the_restriction(monkeypatch):
    """Observed mode computes no interpolation weights and row-reduces one
    (|R|+1) x |B| matrix per round: the seats' rows and the aggregate over
    the benign learners."""
    shapes = []
    rref = privacy._rref

    def recording(matrix, p):
        shapes.append(np.shape(matrix))
        return rref(matrix, p)

    def refuse(*args, **kwargs):
        raise AssertionError("observed audit computed interpolation weights")

    monkeypatch.setattr(privacy, "_rref", recording)
    monkeypatch.setattr(privacy, "interpolation_weights", refuse)
    g = generate_topology("random_connected", 10, seed=2, avg_degree=2.5)
    cfg, transcript, _ = run_one_round(g, dim=2)
    adv = AdversarySet({7, 10}, 10)
    report = adversary_infer(transcript, adv, cfg, mode="observed", coordinates=range(2))
    assert verify_inference(report, transcript, cfg)
    benign = sorted(adv.benign)
    restriction = privacy._observed_restriction(g, adv, benign, cfg.prime)
    assert shapes == [(len(restriction) + 1, len(benign))]
