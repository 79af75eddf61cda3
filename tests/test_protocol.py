import hashlib
import json
import math
import pathlib
import re
import signal
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from test_topology import hub_and_path

from ppdfl import protocol as protocol_module
from ppdfl import sharing, topology
from ppdfl.consensus import AveragingOperator, consensus_final
from ppdfl.field import next_prime
from ppdfl.fixedpoint import Precision, scaled_trunc
from ppdfl.seeding import derive_rng
from ppdfl.protocol import (
    BoundViolation,
    ConfigError,
    ProtocolConfig,
    RangeViolation,
    RoundRecord,
    Transcript,
    build_initial_state,
    execute_round,
    quantized_aggregate,
    read_back,
    run_training,
    synthetic_trainer,
)
from ppdfl.topology import (
    DisconnectedGraph,
    RoundTopology,
    TopologySchedule,
    generate_topology,
    share_pairs,
)


def replay_round(record, cfg):
    """Re-derive the decoded output from a recorded round; determinism audit."""
    op = AveragingOperator.from_graph(record.topology)
    final = consensus_final(record.initial_states, op, record.k_used)
    return read_back(final, cfg)[1]


def constant_trainer():
    """A trainer hook that returns the incoming model unchanged."""

    def train(learner_id, round_index, model, rng):
        return model.copy()

    return train


def make_cfg(n, dim, sigma, theta_max, rounds=1, schedule=None, seed=7,
             k_policy="auto", weights="uniform", prime=None):
    if prime is None:
        prime = next_prime(int(max(n, 1 + 2 * 10**sigma * n * theta_max)))
    if schedule is None:
        schedule = TopologySchedule.generated(
            "random_connected", n, seed=seed, avg_degree=min(3.0, n - 1)
        )
    return ProtocolConfig(
        n_learners=n,
        model_dim=dim,
        sigma=sigma,
        prime=prime,
        rounds=rounds,
        k_policy=k_policy,
        weights=weights,
        theta_max=theta_max,
        seed=seed,
        schedule=schedule,
    )


def path3():
    return RoundTopology(3, frozenset({(1, 2), (2, 3)}))


def test_config_validation_errors():
    sched = TopologySchedule.from_graphs([path3()])
    with pytest.raises(ConfigError):
        make_cfg(1, 1, 0, 1.0)
    with pytest.raises(ConfigError):
        ProtocolConfig(3, 1, 0, 103, 1, "auto", (0.5, 0.5), 1.0, 0, sched)
    with pytest.raises(ConfigError):
        ProtocolConfig(3, 1, 0, 103, 1, "auto", (0.5, 0.3, 0.1), 1.0, 0, sched)
    with pytest.raises(ConfigError):
        ProtocolConfig(3, 1, 0, 104, 1, "auto", "uniform", 1.0, 0, sched)  # not prime
    with pytest.raises(ConfigError):
        ProtocolConfig(3, 1, 0, 103, 2, "auto", "uniform", 1.0, 0, sched)  # short
    with pytest.raises(ConfigError):
        ProtocolConfig(3, 1, 0, 103, 1, 0, "uniform", 1.0, 0, sched)


def test_config_checks_explicit_schedule_rounds_up_front():
    line4 = generate_topology("line", 4)
    split = RoundTopology(4, [(1, 2), (3, 4)])
    for graphs, message in (
        ([path3(), path3()], "round 1 graph has 3 nodes, expected 4 learners"),
        ([line4, line4, split], "round 3 graph is disconnected"),
    ):
        with pytest.raises(ConfigError, match=message):
            make_cfg(4, 1, 0, 1.0, rounds=len(graphs),
                     schedule=TopologySchedule.from_graphs(graphs))
    # Only rounds 1..rounds are checked.
    make_cfg(4, 1, 0, 1.0, rounds=2,
             schedule=TopologySchedule.from_graphs([line4, line4, split]))


def test_config_checks_generated_schedule_up_front():
    # A generated schedule's parameters are checked when the config is
    # built, as an explicit schedule's graphs are, not in round 1.
    for schedule, message in (
        (TopologySchedule.generated("ring", 8), "unknown topology kind 'ring'"),
        (TopologySchedule.generated("random_connected", 8, avg_degree=9.0),
         "avg_degree 9.0 outside [2, 7]"),
        (TopologySchedule.generated("line", 6),
         "schedule generates graphs on 6 nodes, expected 8 learners"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ProtocolConfig(8, 3, 2, 16007, 2, "auto", "uniform", 10.0, 42, schedule)
    cfg = ProtocolConfig(8, 3, 2, 16007, 2, "auto", "uniform", 10.0, 42,
                         TopologySchedule.generated("line", 8))
    assert cfg.schedule.generator == ("line", 8, 0, None)


def test_config_bound_violation():
    sched = TopologySchedule.from_graphs([path3()])
    with pytest.raises(BoundViolation):
        ProtocolConfig(3, 1, 2, 103, 1, "auto", "uniform", 10.0, 0, sched)


def test_config_uniform_weights_expansion():
    cfg = make_cfg(4, 1, 0, 1.0)
    assert cfg.weights == (0.25, 0.25, 0.25, 0.25)


def test_config_json_roundtrip(tmp_path):
    raw = {
        "n_learners": 5,
        "model_dim": 2,
        "sigma": 1,
        "prime": next_prime(1000),
        "rounds": 2,
        "k_policy": "auto",
        "weights": "uniform",
        "theta_max": 5.0,
        "seed": 3,
        "schedule": {"kind": "random_connected", "avg_degree": 2.5},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = ProtocolConfig.from_json_file(str(path))
    assert cfg.n_learners == 5
    round_trip = cfg.to_dict()
    assert round_trip["weights"] == [0.2] * 5
    assert len(round_trip["schedule"]) == 2


def test_build_initial_state_self_bundle_only():
    s0 = build_initial_state(np.array([[7]], dtype=np.int64), RoundTopology(1, frozenset()), 11)
    assert s0.tolist() == [[7]]


def test_build_initial_state_modular_sum():
    # path 1-2-3: learner 2 receives 8 from 1, 5 from itself and 9 from 3
    senders, receivers = share_pairs(path3())
    values = {(1, 1): 1, (1, 2): 8, (2, 1): 2, (2, 2): 5, (2, 3): 3,
              (3, 2): 9, (3, 3): 4}
    table = np.array([[values[pair]] for pair in zip(senders.tolist(),
                                                      receivers.tolist())])
    s0 = build_initial_state(table, path3(), 11)
    assert s0.tolist() == [[3], [0], [7]]  # 22 mod 11 at learner 2


def test_build_initial_state_leaves_the_bundles_untouched():
    # The reduction runs in place on the summed rows, not on the table.
    g = generate_topology("random_connected", 30, seed=2, avg_degree=4.0)
    p = 2**31 - 1
    table = np.random.default_rng(3).integers(0, p, (g.n_nodes + 2 * len(g.edges), 3))
    before = table.copy()
    s0 = build_initial_state(table, g, p)
    assert np.array_equal(table, before)
    assert s0.min() >= 0 and s0.max() < p


def _share_table_graphs():
    for n in (2, 7, 200):
        for kind in ("complete", "star", "line"):
            yield generate_topology(kind, n)
    for n, degree in ((7, 3.0), (60, 5.0), (200, 4.0)):
        for seed in range(2):
            yield generate_topology("random_connected", n, seed=seed,
                                    avg_degree=degree)


@pytest.mark.parametrize("p", [11, 2**31 - 1])
def test_masking_matches_python_int_sums(p):
    gen = np.random.default_rng(p)
    for g in _share_table_graphs():
        n = g.n_nodes
        senders, receivers = share_pairs(g)
        assert len(senders) == n + 2 * len(g.edges)
        keys = list(zip(senders.tolist(), receivers.tolist()))
        assert keys == sorted(keys)
        for i in range(1, n + 1):
            assert receivers[senders == i].tolist() == sorted((i, *g.neighbors(i)))
        dim = int(gen.integers(2, 5))
        for table in (gen.integers(0, p, (len(keys), dim)),
                      np.full((len(keys), dim), p - 1, dtype=np.int64)):
            expected = [[0] * dim for _ in range(n)]
            for (_, j), row in zip(keys, table.tolist()):
                for l, v in enumerate(row):
                    expected[j - 1][l] += v
            expected = [[v % p for v in row] for row in expected]
            assert build_initial_state(table, g, p).tolist() == expected


def test_masked_state_sum_matches_encoded_sum():
    # the modular sum of all masked states equals the modular sum of the
    # encoded secrets, the identity reconstruction relies on
    cfg = make_cfg(6, 2, 2, 4.0)
    g = cfg.schedule.round_graph(1)
    gen = np.random.default_rng(5)
    models = gen.uniform(-4, 4, (6, 2))
    rec = execute_round(models, g, cfg)
    p = cfg.prime
    assert list(rec.initial_states.sum(axis=0) % p) == list(
        rec.encoded_secrets.sum(axis=0) % p
    )


def _skewed_graphs():
    yield generate_topology("star", 300)
    yield hub_and_path(300, 150, 3)


def assert_drawn_share_table(g):
    """The bundles a learner sends its neighbours in a round on g, in id
    order, are its rows of the round's draw, the bundle it keeps is its
    encoded secret minus their sum, and so every learner's bundles sum to
    its encoded secret."""
    n, dim, p = g.n_nodes, 2, 2**31 - 1
    cfg = make_cfg(n, dim, 2, 4.0, schedule=TopologySchedule.from_graphs([g]), prime=p)
    rec = execute_round(np.random.default_rng(6).uniform(-4, 4, (n, dim)), g, cfg)
    degrees = np.diff(g.indptr)
    key = derive_rng(cfg.seed, "shares", 1).bit_generator.random_raw(2)
    drawn = sharing._share_streams(key, degrees, dim, p)
    senders, receivers = share_pairs(g)
    sent = senders != receivers
    assert np.array_equal(rec.bundles[sent], drawn)
    kept = rec.bundles[~sent].tolist()
    start = 0
    for i, secret in enumerate(rec.encoded_secrets.tolist()):
        rows = drawn[start : start + degrees[i]].tolist()
        start += degrees[i]
        assert kept[i] == [(s - sum(col)) % p for s, col in zip(secret, zip(*rows))]
    total = np.zeros((n, dim), dtype=np.int64)
    np.add.at(total, senders - 1, rec.bundles)
    assert np.array_equal(total % p, rec.encoded_secrets)


@pytest.mark.parametrize("g", list(_skewed_graphs()), ids=["star", "hub_and_path"])
def test_share_table_on_skewed_degrees_is_the_drawn_shares(g):
    # One high-degree learner among low-degree ones.
    assert_drawn_share_table(g)


@pytest.mark.parametrize("kind", ["line", "complete", "random_connected"])
def test_share_table_is_the_drawn_shares(kind):
    # Even and dense degrees: a learner's kept bundle comes first, last or
    # between the ones it sends, as its id falls among its neighbours'.
    extra = {"seed": 5, "avg_degree": 4.0} if kind == "random_connected" else {}
    assert_drawn_share_table(generate_topology(kind, 9, **extra))


def test_star_share_phase_allocates_no_hub_width_array():
    # At N=1000 an (N, 1 + max degree) int64 array is 8 MB. The share phase
    # of a star -- draw and completion -- stays well below it: nothing is
    # laid out at the hub's width.
    n, dim, p = 1000, 2, 2**31 - 1
    g = generate_topology("star", n)
    secrets = np.random.default_rng(2).integers(0, p, (n, dim))
    key = np.array([5, 6], dtype=np.uint64)
    degrees = np.diff(g.indptr)
    tracemalloc.start()
    try:
        drawn = sharing._share_streams(key, degrees, dim, p)
        bundles = sharing._generate_share_values(secrets, drawn, g.indptr, g.pair_rows[1], p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bundles) == n + 2 * (n - 1)
    assert peak < n * (1 + degrees.max()) * 8 / 2


def test_execute_round_path_sigma0():
    g = path3()
    cfg = make_cfg(3, 1, 0, 8.0, schedule=TopologySchedule.from_graphs([g]))
    rec = execute_round(np.array([[3.0], [6.0], [-3.0]]), g, cfg)
    oracle, _ = quantized_aggregate(
        np.array([[3.0], [6.0], [-3.0]]), cfg.weights, cfg.precision
    )
    assert oracle[0] == 2.0
    assert np.all(rec.decoded == 2.0)
    assert rec.rounding_margin < 0.5


def test_execute_round_all_zero_models():
    g = path3()
    cfg = make_cfg(3, 2, 2, 1.0, schedule=TopologySchedule.from_graphs([g]))
    rec = execute_round(np.zeros((3, 2)), g, cfg)
    assert np.all(rec.decoded == 0.0)


def test_execute_round_two_learners_hand_checked():
    g = RoundTopology(2, frozenset({(1, 2)}))
    cfg = make_cfg(2, 1, 2, 2.0, schedule=TopologySchedule.from_graphs([g]),
                   weights=(0.5, 0.5))
    models = np.array([[1.25], [-0.75]])
    # trunc(100*0.625) = 62, trunc(100*-0.375) = -37, sum 25 -> 0.25
    assert scaled_trunc(0.5 * 1.25, Precision(2)) == 62
    assert scaled_trunc(0.5 * -0.75, Precision(2)) == -37
    rec = execute_round(models, g, cfg)
    assert np.all(rec.decoded == 0.25)


def test_execute_round_matches_oracle_randomized():
    gen = np.random.default_rng(11)
    for trial in range(10):
        n = int(gen.integers(3, 12))
        dim = int(gen.integers(1, 5))
        sigma = int(gen.integers(0, 4))
        cfg = make_cfg(n, dim, sigma, 6.0, seed=trial)
        g = cfg.schedule.round_graph(1)
        models = gen.uniform(-6, 6, (n, dim))
        rec = execute_round(models, g, cfg, record_trajectory=False)
        oracle, _ = quantized_aggregate(models, cfg.weights, cfg.precision)
        assert np.max(np.abs(rec.decoded - oracle[None, :])) == 0.0


def test_topology_independence_of_result():
    n, dim = 8, 3
    gen = np.random.default_rng(13)
    models = gen.uniform(-3, 3, (n, dim))
    outputs = []
    for kind in ("complete", "star", "line"):
        g = generate_topology(kind, n)
        cfg = make_cfg(n, dim, 2, 3.0, schedule=TopologySchedule.from_graphs([g]))
        rec = execute_round(models, g, cfg)
        outputs.append(rec.decoded[0])
    assert np.array_equal(outputs[0], outputs[1])
    assert np.array_equal(outputs[0], outputs[2])


def test_execute_round_rejects_disconnected():
    g = RoundTopology(3, frozenset({(1, 2)}))
    cfg = make_cfg(3, 1, 0, 8.0)
    with pytest.raises(DisconnectedGraph, match="round 4 graph is disconnected"):
        execute_round(np.zeros((3, 1)), g, cfg, round_index=4)


def test_round_checks_connectivity_and_lays_out_pair_rows_once(monkeypatch):
    g = generate_topology("random_connected", 30, seed=2, avg_degree=6)
    cfg = make_cfg(30, 2, 2, 3.0, schedule=TopologySchedule.from_graphs([g]))
    checks, layouts = [], []
    is_connected, lay_out = topology.is_connected, RoundTopology.pair_rows.func
    for module in (topology, protocol_module):
        monkeypatch.setattr(module, "is_connected", lambda h: checks.append(h) or is_connected(h))
    monkeypatch.setattr(RoundTopology.pair_rows, "func", lambda h: layouts.append(h) or lay_out(h))
    rec = execute_round(np.zeros((30, 2)), g, cfg)
    assert checks == [g] and layouts == [g]
    assert rec.bundles.shape == (30 + 2 * len(g.src), 2)


# sha256 of round 1's (K+1, N, n) float64 states of configs/large_random.json
# (seed 7, N=100, degree 87: the dense averaging plan), as recorded by the
# edge-list step before the dense plan existed.
LARGE_RANDOM_ROUND1_FRAMES = "0656b9d7de98182a72f9ca3434310d8015a07a6e55b610f3497a98e73260ce52"


def test_large_random_round1_frames_are_pinned():
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "large_random.json"
    raw = json.loads(path.read_text())
    raw["rounds"] = 1
    cfg = ProtocolConfig.from_dict(raw, str(path.parent))
    record = run_training(cfg, record_trajectory=True).transcript.rounds[0]
    op = AveragingOperator.from_graph(record.topology)
    assert op.off is not None
    frames = record.state_trajectory
    assert frames.shape == (record.k_used + 1, 100, 3) and frames.dtype == np.float64
    assert hashlib.sha256(np.ascontiguousarray(frames).tobytes()).hexdigest() == LARGE_RANDOM_ROUND1_FRAMES


def test_execute_round_rejects_oversized_model():
    cfg = make_cfg(3, 1, 0, 8.0, schedule=TopologySchedule.from_graphs([path3()]))
    with pytest.raises(RangeViolation):
        execute_round(np.array([[3.0], [9.5], [0.0]]), path3(), cfg)
    with pytest.raises(RangeViolation, match="learner 1 coordinate 0 magnitude nan"):
        execute_round(np.array([[np.nan], [0.0], [0.0]]), path3(), cfg)
    # Past the signed range after encoding: the first offender, in learner
    # then coordinate order, is named.
    cfg = make_cfg(3, 2, 0, 8.0, schedule=TopologySchedule.from_graphs([path3()]))
    cfg.theta_max = 10.0 * cfg.prime
    models = np.array([[0.0, 1.0], [1.0, 3.0 * cfg.prime], [-3.0 * cfg.prime, 0.0]])
    with pytest.raises(RangeViolation, match="coordinate 1 of learner 2 leaves"):
        execute_round(models, path3(), cfg)


def test_bundle_block_ignores_other_learners_edges():
    # Learner i's block depends on its own neighbourhood, model and
    # (round, learner) substream only: an edge between two other learners,
    # here one that also widens the padded holder batch, leaves it as is.
    g = generate_topology("random_connected", 12, seed=5, avg_degree=3.0)
    hub = max(range(1, 13), key=g.degree)
    other = next(j for j in range(1, 13) if j != hub and j not in g.neighbors(hub))
    g2 = RoundTopology(12, g.edges | {(min(hub, other), max(hub, other))})
    cfg = make_cfg(12, 3, 2, 4.0)
    models = np.random.default_rng(8).uniform(-4, 4, (12, 3))
    tables = []
    for graph in (g, g2):
        rec = execute_round(models, graph, cfg, record_trajectory=False)
        senders, receivers = share_pairs(graph)
        tables.append((senders, receivers, rec.bundles))
    for i in set(range(1, 13)) - {hub, other}:
        blocks = [(r[s == i].tolist(), b[s == i].tolist()) for s, r, b in tables]
        assert blocks[0] == blocks[1]


def test_fixed_k_policy_checked_per_round():
    g = generate_topology("line", 12)
    sched = TopologySchedule.from_graphs([g])
    cfg_bad = make_cfg(12, 1, 2, 2.0, schedule=sched, k_policy=3)
    with pytest.raises(BoundViolation):
        execute_round(np.zeros((12, 1)), g, cfg_bad)
    gc = generate_topology("complete", 12)
    cfg_ok = make_cfg(12, 1, 2, 2.0,
                      schedule=TopologySchedule.from_graphs([gc]), k_policy=3)
    rec = execute_round(np.zeros((12, 1)), gc, cfg_ok)
    assert rec.k_used == 3


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_large_sparse_round_exact_within_time_bound():
    # At N=1000 and p=2^31-1 the threshold 1/(2 p sqrt(N)) ~ 7e-12 lies below
    # the rounding noise of float matrix-power norms, so a K search that
    # probes them never ends, and a fixed K checked by them never passes.
    n, dim, p = 1000, 16, 2147483647
    g = generate_topology("random_connected", n, seed=11, avg_degree=4.0)
    sched = TopologySchedule.from_graphs([g])
    models = np.random.default_rng(11).uniform(-25.0, 25.0, (n, dim))
    oracle, _ = quantized_aggregate(models, (1.0 / n,) * n, Precision(2))

    def run(k_policy):
        cfg = make_cfg(n, dim, 2, 50.0, schedule=sched, prime=p, k_policy=k_policy)
        with time_limit(30):
            return execute_round(models, g, cfg, record_trajectory=False)

    rec = run("auto")
    assert np.max(np.abs(rec.decoded - oracle[None, :])) == 0.0
    with pytest.raises(BoundViolation):
        run(rec.k_used - 1)
    fixed = run(rec.k_used)
    assert fixed.k_used == rec.k_used
    assert np.max(np.abs(fixed.decoded - oracle[None, :])) == 0.0


def test_share_phase_determinism():
    cfg = make_cfg(5, 2, 2, 4.0)
    g = cfg.schedule.round_graph(1)
    models = np.linspace(-2, 2, 10).reshape(5, 2)
    rec1 = execute_round(models, g, cfg)
    rec2 = execute_round(models, g, cfg)
    assert np.array_equal(rec1.bundles, rec2.bundles)
    assert np.array_equal(rec1.decoded, rec2.decoded)


# sha256 over "sender,receiver:v1,v2,...\n" lines of every share bundle of
# configs/demo.json rounds 1-2, in share_pairs order, as version 0.7.0
# produces them. 0.7.0 keeps 0.6.0's lane-major Philox stream but hands its
# values out as the weighted shares themselves, where 0.6.0 took them for
# polynomial coefficients, and completes each learner's own share to its
# secret: every bundle changed, while the stream, the graphs (0.4.0's) and
# the decoded models did not. Seeded runs
# must stay byte-identical within a version; a change to the share values
# or to the seeded graphs has to bump __version__ and this pin together.
DEMO_BUNDLES_SHA256 = "854e25f938863111357687f9aa99f941d27825bde32f3fd42943368832011e64"


def test_demo_share_stream_is_pinned():
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "demo.json"
    cfg = ProtocolConfig.from_json_file(str(config))
    cfg.rounds = 2
    digest = hashlib.sha256()
    for rec in run_training(cfg).transcript.rounds:
        for i, j, values in zip(*share_pairs(rec.topology), rec.bundles.tolist()):
            line = f"{i},{j}:{','.join(map(str, values))}\n"
            digest.update(line.encode())
    assert digest.hexdigest() == DEMO_BUNDLES_SHA256


# sha256 of Transcript.to_jsonl's bytes for round 1 of configs/demo.json,
# as version 0.7.0 writes it (its share bundles changed with 0.7.0's share
# values, see DEMO_BUNDLES_SHA256), with lambda2 and the rounding margin first
# rounded to 6 digits: they come from LAPACK and float sums, whose last bits
# may differ between hosts. The writer's templates and the reader's zero
# texts both derive from the table of record layouts in ppdfl.transcript,
# so the reader reads this round as blocks; a change to that table or to
# the share values changes these bytes and must update this pin.
DEMO_TRANSCRIPT_SHA256 = "b007d885829b4867a13c7780d70c00d3fe5415e2807ebcddec383b126463783e"


def test_demo_transcript_bytes_are_pinned(tmp_path, monkeypatch):
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "demo.json"
    cfg = ProtocolConfig.from_json_file(str(config))
    cfg.rounds = 1
    transcript = run_training(cfg).transcript
    (rec,) = transcript.rounds
    rec.lambda2, rec.rounding_margin = round(rec.lambda2, 6), round(rec.rounding_margin, 6)
    path = tmp_path / "transcript.jsonl"
    transcript.to_jsonl(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEMO_TRANSCRIPT_SHA256
    # Read back, the lines of this layout take no json.loads call of their
    # own: one reads the meta record, one the topology record's scalars, and
    # one each the round's result and audit blocks.
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: calls.append(s) or loads(s, *a, **k))
    (back,) = Transcript.from_jsonl(str(path)).rounds
    assert len(calls) == 4
    assert np.array_equal(back.bundles, rec.bundles)


def test_share_phase_inverts_nothing(monkeypatch):
    # The round draws its weighted shares directly: it computes no
    # interpolation weight, so it inverts nothing.
    calls = []
    inverse = sharing._inverse_int
    monkeypatch.setattr(sharing, "_inverse_int", lambda a, p: calls.append(a) or inverse(a, p))
    cfg = make_cfg(12, 2, 2, 4.0)
    models = np.random.default_rng(4).uniform(-4, 4, (12, 2))
    for g in (generate_topology("random_connected", 12, seed=3, avg_degree=8.0),
              generate_topology("star", 12)):
        execute_round(models, g, cfg)
    assert calls == []


def test_round_calls_no_interpolation_weights(monkeypatch):
    # The share phase takes the graph's CSR arrays and the draw alone.
    def refuse(*args, **kwargs):
        raise AssertionError("interpolation weights computed in a round")

    for module in (protocol_module, sharing):
        monkeypatch.setattr(module, "interpolation_weights", refuse)
    cfg = make_cfg(12, 2, 2, 4.0)
    models = np.random.default_rng(4).uniform(-4, 4, (12, 2))
    oracle, _ = quantized_aggregate(models, cfg.weights, cfg.precision)
    for g in (generate_topology("random_connected", 12, seed=3, avg_degree=8.0),
              generate_topology("star", 12)):
        rec = execute_round(models, g, cfg)
        assert np.max(np.abs(rec.decoded - oracle[None, :])) == 0.0


# The benchmark's sparse workload: N=1000, p = 2^31-1, average degree 4.
SPARSE_1K = {
    "n_learners": 1000,
    "model_dim": 16,
    "sigma": 2,
    "prime": 2147483647,
    "rounds": 4,
    "k_policy": "auto",
    "weights": "uniform",
    "theta_max": 50.0,
    "seed": 11,
    "schedule": {"kind": "random_connected", "avg_degree": 4.0, "seed": 11},
}


def config_named(name):
    """configs/<name>.json, or SPARSE_1K for "sparse_1k"."""
    if name == "sparse_1k":
        return ProtocolConfig.from_dict(SPARSE_1K)
    root = pathlib.Path(__file__).resolve().parents[1]
    return ProtocolConfig.from_json_file(str(root / "configs" / f"{name}.json"))


@pytest.mark.parametrize("name", ["large_random", "sparse_1k"])
def test_every_learner_bundles_sum_to_its_secret(name):
    # On every round of the dense (average degree 87) and the sparse
    # N=1000 config, each learner's bundles sum to its encoded secret mod
    # p, and every learner decodes the quantized aggregate.
    cfg = config_named(name)
    result = run_training(cfg)
    assert len(result.transcript.rounds) == cfg.rounds
    for rec in result.transcript.rounds:
        senders, _ = share_pairs(rec.topology)
        total = np.zeros_like(rec.encoded_secrets)
        np.add.at(total, senders - 1, rec.bundles)
        assert np.array_equal(total % cfg.prime, rec.encoded_secrets)
    assert result.summary["max_deviation"] == 0.0


# sha256 over every round of a config of the line "round,K,lambda2\n",
# lambda2 to 6 digits (see DEMO_TRANSCRIPT_SHA256), then the round's
# encoded secrets and rounded residues as little-endian int64 and its
# decoded models as little-endian float64. Version 0.7.0 changed the share
# values but none of these: the digests are those of 0.6.0.
ROUND_OUTPUTS_SHA256 = {
    "demo": "75b3036b241727ec886a39733e3616e4aea0fe2051d8027e95bbcbd6e6d08718",
    "large_random": "b072d46416278b4d02e9c133ebc7a32fcc48c2118cdef13b88a9b64c6201d728",
}


@pytest.mark.parametrize("name", sorted(ROUND_OUTPUTS_SHA256))
def test_round_outputs_are_pinned(name):
    digest = hashlib.sha256()
    for rec in run_training(config_named(name)).transcript.rounds:
        digest.update(f"{rec.round_index},{rec.k_used},{rec.lambda2:.6f}\n".encode())
        for values in (rec.encoded_secrets, rec.rounded):
            digest.update(np.ascontiguousarray(values, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(rec.decoded, dtype="<f8").tobytes())
    assert digest.hexdigest() == ROUND_OUTPUTS_SHA256[name]


def test_replay_round_reproduces_output():
    cfg = make_cfg(7, 2, 3, 4.0)
    g = cfg.schedule.round_graph(1)
    models = np.random.default_rng(3).uniform(-4, 4, (7, 2))
    rec = execute_round(models, g, cfg)
    assert np.array_equal(replay_round(rec, cfg), rec.decoded)


def test_run_training_single_round_equals_execute_round():
    cfg = make_cfg(4, 2, 2, 4.0, rounds=1)
    init = np.random.default_rng(1).uniform(-1, 1, (4, 2))
    result = run_training(cfg, trainer=constant_trainer(), initial_models=init)
    g = cfg.schedule.round_graph(1)
    rec = execute_round(init, g, cfg, record_trajectory=False)
    assert np.array_equal(result.decoded_per_round[0], rec.decoded[0])


def test_run_training_constant_trainer_fixed_point():
    # uniform weights over 4 learners, identical initial models whose scaled
    # coordinates divide evenly: aggregation is then the identity each round
    cfg = make_cfg(4, 2, 2, 4.0, rounds=3)
    v = np.array([1.24, -2.48])
    init = np.tile(v, (4, 1))
    result = run_training(cfg, trainer=constant_trainer(), initial_models=init)
    for t in range(3):
        assert np.array_equal(result.decoded_per_round[t], v)


def test_run_training_chains_rounds_and_matches_oracle():
    cfg = make_cfg(9, 3, 2, 5.0, rounds=6, seed=21)
    result = run_training(cfg, trainer=synthetic_trainer(5.0))
    assert result.summary["max_deviation"] == 0.0
    assert len(result.transcript.rounds) == 6
    # agreement and chaining: next round's inputs are this round's output
    for rec, row in zip(result.transcript.rounds, result.summary["rounds"]):
        assert np.all(rec.decoded == rec.decoded[0])
        # K is the smallest count the recorded K inputs admit
        k, lam_hat, threshold = row["k_used"], row["lambda_hat"], row["k_threshold"]
        n = cfg.n_learners
        assert lam_hat > abs(row["lambda2"])
        assert n * lam_hat**k < threshold
        assert k == 1 or n * lam_hat ** (k - 1) >= threshold
    for t in range(1, 6):
        prev = result.decoded_per_round[t - 1]
        inputs = result.transcript.rounds[t].local_models
        gen_bound = 0.25  # synthetic trainer step
        assert np.max(np.abs(inputs - prev[None, :])) <= gen_bound + 1e-12


def test_run_training_rejects_short_schedule():
    g = path3()
    with pytest.raises(ConfigError):
        make_cfg(3, 1, 0, 8.0, rounds=2,
                 schedule=TopologySchedule.from_graphs([g]))


def test_transcript_jsonl_roundtrip(tmp_path):
    cfg = make_cfg(5, 2, 2, 4.0, rounds=2, seed=33)
    result = run_training(cfg, trainer=synthetic_trainer(4.0))
    path = tmp_path / "transcript.jsonl"
    result.transcript.to_jsonl(str(path))
    loaded = Transcript.from_jsonl(str(path))
    assert loaded.meta["prime"] == cfg.prime
    assert len(loaded.rounds) == 2
    for orig, back in zip(result.transcript.rounds, loaded.rounds):
        assert back.topology.edges == orig.topology.edges
        assert back.k_used == orig.k_used
        assert np.array_equal(back.bundles, orig.bundles)
        assert np.array_equal(back.initial_states, orig.initial_states)
        assert np.array_equal(back.encoded_secrets, orig.encoded_secrets)
        assert np.array_equal(back.rounded, orig.rounded)
        assert back.rounding_margin == orig.rounding_margin
    # A transcript written before the margin was recorded reads it as NaN.
    lines = path.read_text().splitlines()
    for idx, line in enumerate(lines):
        msg = json.loads(line)
        if msg.get("phase") == "topology":
            del msg["payload"]["rounding_margin"]
            lines[idx] = json.dumps(msg)
    path.write_text("\n".join(lines) + "\n")
    old_rounds = Transcript.from_jsonl(str(path)).rounds
    assert all(math.isnan(r.rounding_margin) for r in old_rounds)
    # Older transcripts carry one state0 record per directed edge.
    per_edge = []
    for line in lines:
        msg = json.loads(line)
        if msg.get("phase") == "state0":
            per_edge += [json.dumps({**msg, "to": j}) for j in msg["to"]]
        else:
            per_edge.append(line)
    assert len(per_edge) > len(lines)
    path.write_text("\n".join(per_edge) + "\n")
    loaded = Transcript.from_jsonl(str(path))
    for orig, back in zip(result.transcript.rounds, loaded.rounds):
        assert np.array_equal(back.initial_states, orig.initial_states)
        assert np.array_equal(back.bundles, orig.bundles)


def test_transcript_message_phases(tmp_path):
    cfg = make_cfg(4, 1, 1, 2.0, rounds=1, seed=2)
    result = run_training(cfg, record_trajectory=True)
    path = tmp_path / "transcript.jsonl"
    result.transcript.to_jsonl(str(path))
    meta, *msgs = map(json.loads, path.read_text().splitlines())
    assert meta == {"meta": result.transcript.meta}
    phases = {m["phase"] for m in msgs}
    assert phases == {"topology", "shares", "state0", "consensus", "result", "audit"}
    g = result.transcript.rounds[0].topology
    share_msgs = [m for m in msgs if m["phase"] == "shares"]
    # one bundle per ordered closed-neighborhood pair, one record per sender
    assert sum(len(m["to"]) for m in share_msgs) == sum(
        g.degree(i) + 1 for i in range(1, 5)
    )
    assert [(m["from"], m["to"]) for m in share_msgs] == [
        (i, sorted((i, *g.neighbors(i)))) for i in range(1, 5)
    ]
    # one masked-state broadcast per learner, listing its neighbours
    state0_msgs = [m for m in msgs if m["phase"] == "state0"]
    assert [(m["from"], m["to"]) for m in state0_msgs] == [
        (i, list(g.neighbors(i))) for i in range(1, 5)
    ]
    # one broadcast per (step, learner), reaching every directed edge once
    consensus_msgs = [m for m in msgs if m["phase"] == "consensus"]
    k = result.transcript.rounds[0].k_used
    assert sum(len(m["to"]) for m in consensus_msgs) == k * 2 * len(g.edges)
    assert len(consensus_msgs) == k * 4
    assert all(m["to"] == list(g.neighbors(m["from"])) for m in consensus_msgs)


def _per_pair_lines(lines):
    """Transcript lines with every shares record split into one record per
    (sender, receiver) pair, the layout before version 0.3.0."""
    out = []
    for line in lines:
        msg = json.loads(line)
        if msg.get("phase") == "shares":
            out += [json.dumps({**msg, "to": j, "payload": row})
                    for j, row in zip(msg["to"], msg["payload"])]
        else:
            out.append(line)
    return out


@pytest.mark.parametrize("p", [11, 2**31 - 1])
def test_share_table_transcript_roundtrip(tmp_path, p):
    gen = np.random.default_rng(p)
    path = tmp_path / "transcript.jsonl"
    for g in _share_table_graphs():
        n = g.n_nodes
        senders, receivers = share_pairs(g)
        dim = int(gen.integers(1, 4))
        table = gen.integers(0, p, (len(senders), dim))
        zeros = np.zeros((n, dim))
        record = RoundRecord(
            round_index=1, topology=g, k_used=1, lambda2=0.0, bundles=table,
            initial_states=build_initial_state(table, g, p),
            encoded_secrets=gen.integers(0, p, (n, dim)), local_models=zeros,
            rounded=zeros.astype(np.int64), decoded=zeros, rounding_margin=0.0,
        )
        meta = {"n_learners": n, "prime": p, "sigma": 0}
        Transcript(meta, [record]).to_jsonl(str(path))
        lines = path.read_text().splitlines()
        shares = [m for m in map(json.loads, lines) if m.get("phase") == "shares"]
        assert [(m["from"], m["to"]) for m in shares] == [
            (i, receivers[senders == i].tolist()) for i in range(1, n + 1)
        ]
        (back,) = Transcript.from_jsonl(str(path)).rounds
        assert np.array_equal(back.bundles, table)
        assert np.array_equal(back.initial_states, record.initial_states)
        # Per-pair records, in any order, fill the same table.
        legacy = _per_pair_lines(lines)
        assert len(legacy) == len(lines) - n + len(senders)
        body = legacy[1:]
        gen.shuffle(body)
        path.write_text("\n".join([legacy[0], *body]) + "\n")
        (back,) = Transcript.from_jsonl(str(path)).rounds
        assert np.array_equal(back.bundles, table)


def _edited_edges(edges):
    """(edited edge list, error fragment or None if the transcript still
    reads) per malformed topology record a transcript may carry."""
    i, j = edges[0]
    bad = "round 1 topology record: edges must be pairs of integer node ids"
    yield [[float(i), float(j)], *edges[1:]], bad
    yield [[str(i), str(j)], *edges[1:]], bad
    yield [[True, False]] * len(edges), bad
    # A bool among integers reads as 0 or 1, as numpy converts it.
    yield [[True, j], *edges[1:]], None
    yield [[i, j], [False, j], *edges[1:]], f"round 1 topology record: edge (0,{j}) outside 1..5"
    yield [[i], *edges[1:]], bad
    yield [[i]] * len(edges), bad
    yield [[i, j, j], *edges[1:]], bad
    yield [[i, j, j]] * len(edges), bad
    yield [[[i], [j]], *edges[1:]], bad
    yield [[[i], [j]]] * len(edges), bad
    # An empty list is a graph without edges; the share bundles then leave it.
    yield [], f"round 1 has share bundle 1->{j} between learners that are not neighbours"


def test_transcript_topology_edges_are_judged_as_before(tmp_path):
    cfg = make_cfg(5, 2, 2, 4.0, rounds=1, seed=33)
    result = run_training(cfg, trainer=synthetic_trainer(4.0))
    path = tmp_path / "transcript.jsonl"
    result.transcript.to_jsonl(str(path))
    msgs = [json.loads(line) for line in path.read_text().splitlines()]
    topology = next(m for m in msgs if m.get("phase") == "topology")
    edges = topology["payload"]["edges"]
    assert edges[0][0] == 1
    for edited, error in _edited_edges(edges):
        topology["payload"]["edges"] = edited
        path.write_text("".join(json.dumps(m) + "\n" for m in msgs))
        if error is None:
            (back,) = Transcript.from_jsonl(str(path)).rounds
            assert back.topology.edges == result.transcript.rounds[0].topology.edges
        else:
            with pytest.raises(ValueError, match=re.escape(error)):
                Transcript.from_jsonl(str(path))
