import itertools
import json
import pathlib
import random
from types import SimpleNamespace

import numpy as np
import pytest
from test_protocol import time_limit

from ppdfl import privacy
from ppdfl.field import _rref, next_prime
from ppdfl.privacy import (
    AdversarySet,
    TranscriptIncomplete,
    _build_view,
    adversary_infer,
    literal_surrounded_sets,
    perfect_secrecy,
    secrecy_cross_check,
    surrounded_components,
    verify_inference,
)
from ppdfl.protocol import ProtocolConfig, Transcript, execute_round
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


def test_sparse_1k_round_audit_within_time_bound():
    # The large-N scale target: all 16 coordinates of one N=1000, degree-4
    # round at p = 2^31-1, a system of about 1000 x 5000 over GF(p).
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


def differential_graphs(n_max, rng):
    for n in (3, n_max // 2, n_max):
        yield generate_topology("star", n)
        yield generate_topology("line", n)
        yield generate_topology("random_connected", n, seed=rng.randrange(1000),
                                avg_degree=rng.uniform(2, min(5, n - 1)))


@pytest.mark.parametrize("mode,n_max", [("worst_case", 30), ("observed", 12)])
def test_share_value_view_matches_coefficient_basis(mode, n_max, monkeypatch):
    """Same answers and values as the system over secrets and coefficients,
    for every component sum, every individual and random functionals."""
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
    rng = random.Random(n_max)
    coords = (0, 1)
    for g in differential_graphs(n_max, rng):
        n = g.n_nodes
        for p in (next_prime(n), 1020431, P31):
            record = synthetic_round(g, p, len(coords), rng)
            for _ in range(3):
                adv = AdversarySet(rng.sample(range(1, n + 1), rng.randrange(0, n)), n)
                view = _build_view(record, adv, SimpleNamespace(prime=p), coords, mode)
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
                    assert view.infer(functional) == reference(functional), (
                        f"{mode} N={n} p={p} coalition {sorted(adv.ids)}: "
                        f"{functional}"
                    )
                for c in comps:
                    ok, values = view.infer({i: 1 for i in c})
                    if mode == "worst_case":
                        assert ok
                    if ok:
                        assert values == {
                            k: sum(int(record.encoded_secrets[i - 1][k]) for i in c) % p
                            for k in coords
                        }


def test_share_value_system_is_block_sparse(monkeypatch):
    """Each handed share is one unknown; the masked-state rows have pairwise
    disjoint supports, and with the handed rows they cover every unknown once."""
    captured = []
    real_rref = privacy._rref

    def capture(system, p):
        captured.append(np.array(system))
        return real_rref(system, p)

    monkeypatch.setattr(privacy, "_rref", capture)
    rng = random.Random(3)
    for n, seed in ((12, 1), (30, 2), (30, 3)):
        g = generate_topology("random_connected", n, seed=seed, avg_degree=4)
        p = 1020431
        record = synthetic_round(g, p, 2, rng)
        adv = AdversarySet(rng.sample(range(1, n + 1), 4), n)
        view = _build_view(record, adv, SimpleNamespace(prime=p), (0, 1), "worst_case")
        system = captured.pop()
        benign = sorted(adv.benign)
        assert view.n_unknowns == sum(g.degree(j) + 1 for j in benign)
        handed = sum(1 for j in benign for a in g.neighbors(j) if a in adv.ids)
        assert system.shape == (1 + handed + len(benign), view.n_unknowns + 2)
        support = system[:, : view.n_unknowns] != 0
        assert support[0].all()
        assert (support[1 : 1 + handed].sum(axis=1) == 1).all()
        benign_holders = [sum(j not in adv.ids for j in (i, *g.neighbors(i)))
                          for i in benign]
        assert support[1 + handed :].sum(axis=1).tolist() == benign_holders
        assert (support[1:].sum(axis=0) == 1).all()
