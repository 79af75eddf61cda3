import hashlib
import itertools
import json
import math
import pathlib
import random

import numpy as np
import pytest

from ppdfl.privacy import _exact_weights
from ppdfl.topology import (
    BadParameters,
    DisconnectedGraph,
    NotSymmetric,
    RoundTopology,
    TopologySchedule,
    check_generator,
    contraction_radius,
    generate_topology,
    is_connected,
    mh_weights,
    receiver_order,
    second_largest_eigenvalue,
    share_pairs,
)


def path_graph(n):
    return RoundTopology(n, frozenset((i, i + 1) for i in range(1, n)))


def test_topology_validation():
    with pytest.raises(ValueError):
        RoundTopology(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        RoundTopology(3, frozenset({(1, 4)}))
    g = RoundTopology(3, frozenset({(2, 1)}))
    assert (1, 2) in g.edges  # normalized ordering


def _loop_normalized(n, edges):
    """The per-edge reference: validate each (i, j), store it as (min, max)."""
    out = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) outside 1..{n}")
        out.add((min(i, j), max(i, j)))
    return frozenset(out)


def test_topology_normalization_matches_per_edge_loop():
    rng = random.Random(5)
    for n in (1, 2, 9, 60):
        for _ in range(20):
            edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(3 * n)]
            edges = [e for e in edges if e[0] != e[1]]
            expected = _loop_normalized(n, edges)
            for given in (frozenset(edges), [list(e) for e in edges],
                          np.array(edges, dtype=np.int64).reshape(-1, 2)):
                g = RoundTopology(n, given)
                assert g.edges == expected
                assert all(type(v) is int for e in g.edges for v in e)
    for bad in [(2, 2), (1, 4), (4, 1), (0, 2), (-1, 3)]:
        with pytest.raises(ValueError) as want:
            _loop_normalized(3, [bad])
        with pytest.raises(ValueError) as got:
            RoundTopology(3, frozenset({bad, (1, 2)}))
        assert str(got.value) == str(want.value)
    for malformed in ([(1, 2, 3)], [(1,)], [("1", "2")], [(1.0, 2.0)], None, 5,
                      [(1, 2), (3,)], np.array([[1.0, 2.0]]), np.ones((2, 3), dtype=int),
                      np.array([["1", "2"]])):
        with pytest.raises(ValueError, match="edges must be pairs of integer node ids"):
            RoundTopology(3, malformed)
    # Ids from 2**31 on are refused before any array is built.
    for n_nodes in ("3", 3.0, None, 2**31, 10**30):
        with pytest.raises(ValueError, match="n_nodes must be an integer"):
            RoundTopology(n_nodes, [(1, 2)])


def hub_and_path(n, hub, stride):
    """A path 1-2-...-n plus edges from node hub to every stride-th node
    1, 1 + stride, ... not next to it on the path: one high-degree learner
    among learners of degree 2 or 3."""
    path = [(i, i + 1) for i in range(1, n)]
    return RoundTopology(n, path + [(hub, j) for j in range(1, n + 1, stride) if abs(j - hub) > 1])


def _layout_graphs():
    rng = np.random.default_rng(8)
    for n, degree in ((5, 2.0), (30, 4.0), (100, 87.0), (300, 3.0), (1000, 4.0)):
        for seed in range(2):
            yield generate_topology("random_connected", n, seed=seed, avg_degree=degree)
    for n in (2, 9, 60):
        for kind in ("complete", "star", "line"):
            yield generate_topology(kind, n)
    yield RoundTopology(1, [])
    yield hub_and_path(40, 1, 1)
    yield hub_and_path(300, 150, 3)
    # The same graph from its edge list shuffled, reversed and repeated.
    g = generate_topology("random_connected", 60, seed=4, avg_degree=6.0)
    edges = np.stack([g.src, g.dst], axis=1)
    yield RoundTopology(60, rng.permutation(edges))
    yield RoundTopology(60, edges[::-1, ::-1])
    yield RoundTopology(60, rng.permutation(np.concatenate([edges, edges[:, ::-1], edges[:7]])))


def _sorted_layouts(g):
    """The sort-based definitions of the CSR arrays, the share pairs and
    the masking order."""
    base = g.n_nodes + 1
    tails = np.concatenate([g.src, g.dst])
    heads = np.concatenate([g.dst, g.src])
    order = np.argsort(tails * base + heads)
    keys = tails[order] * base + heads[order]
    pairs = np.sort(np.concatenate([keys, np.arange(1, base) * (base + 1)]))
    senders, receivers = np.divmod(pairs, base)
    return {
        "arc_tail": tails[order], "arc_head": heads[order],
        "arc_rev": np.searchsorted(keys, heads[order] * base + tails[order]),
        "indptr": np.searchsorted(tails[order], np.arange(base), side="right"),
        "senders": senders, "receivers": receivers,
        "masking": np.argsort(receivers, kind="stable"),
    }


def test_csr_layouts_match_sort_based_definitions():
    for g in _layout_graphs():
        want = _sorted_layouts(g)
        edges = sorted(g.edges)
        assert list(zip(g.src.tolist(), g.dst.tolist())) == edges
        for name in ("arc_tail", "arc_head", "arc_rev", "indptr"):
            assert getattr(g, name).tolist() == want[name].tolist(), name
            assert not getattr(g, name).flags.writeable
        senders, receivers = share_pairs(g)
        assert senders.tolist() == want["senders"].tolist()
        assert receivers.tolist() == want["receivers"].tolist()
        assert receiver_order(g).tolist() == want["masking"].tolist()


def _outcome(n, edges):
    """The graph's edges, or the ValueError message it is refused with."""
    try:
        return RoundTopology(n, edges).edges
    except ValueError as exc:
        return str(exc)


def _nested_outcome(n, edges):
    """_outcome after one np.array over the nested pairs."""
    try:
        pairs = np.array(edges)
    except ValueError:  # ragged
        pairs = np.array(None)
    return _outcome(n, pairs if pairs.ndim == 2 else np.array([None]))


def test_edge_lists_are_judged_as_their_nested_array():
    # Flattening the ids must not pair up what np.array would not: triples
    # whose ids come out even, pairs of pairs, or sets, dicts and bytes of two.
    cases = [
        [[1, 2], [2, 3]], [(1, 2), [3, 2]], [[1, 2, 3], [4, 5, 6]], [[[1, 2], [3, 4]]],
        [[[1], [2]]], [[1, [2]]], [[1], [2]], [[1, 2], [3]], [b"\x01\x02"], [{1, 2}],
        [{1: 0, 2: 0}], ["12", "34"], [range(1, 3)], [np.array([1, 2]), (2, 3)],
        [np.array([1, 2], dtype=object)], [[np.int32(1), np.uint8(2)]], [[True, 2]],
        [[True, False]], [[1.0, 2]], [["1", "2"]], [[1, None]], [[2**63, 1]],
        [[2**70, 1]], [[np.array(1), 2]], [[1, 1]], [[0, 2]], [[1, 6]], [[1, 2], 3],
    ]
    for edges in cases:
        assert _outcome(5, edges) == _nested_outcome(5, edges), edges
    assert _outcome(5, []) == frozenset()


def test_is_connected_edge_cases():
    assert is_connected(RoundTopology(1, frozenset()))
    assert not is_connected(RoundTopology(2, frozenset()))
    assert is_connected(path_graph(5))


def test_mh_two_nodes():
    a = mh_weights(path_graph(2))
    assert np.allclose(a, [[0.5, 0.5], [0.5, 0.5]])


def test_mh_path_three():
    a = mh_weights(path_graph(3))
    third = 1.0 / 3.0
    expected = np.array(
        [[2 * third, third, 0.0], [third, third, third], [0.0, third, 2 * third]]
    )
    assert np.allclose(a, expected, atol=1e-15)


def test_mh_complete_is_uniform():
    a = mh_weights(generate_topology("complete", 100))
    assert np.allclose(a, np.full((100, 100), 0.01), atol=1e-15)


def test_mh_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        mh_weights(RoundTopology(3, frozenset({(1, 2)})))


def test_mh_doubly_stochastic_on_random_graphs():
    rng = random.Random(31)
    for trial in range(40):
        n = rng.randrange(3, 60)
        avg = rng.uniform(2, max(2, min(8, n - 1)))
        g = generate_topology("random_connected", n, seed=trial, avg_degree=avg)
        a = mh_weights(g)
        assert np.max(np.abs(a.sum(axis=1) - 1)) < 1e-12
        assert np.max(np.abs(a.sum(axis=0) - 1)) < 1e-12
        assert np.allclose(a, a.T)
        off = a - np.diag(np.diag(a))
        for i, j in g.edges:
            assert a[i - 1, j - 1] > 0
        assert np.count_nonzero(off) == 2 * len(g.edges)


def test_exact_and_float_mh_weights_agree():
    # the analyzer's rational matrix and the round's float matrix come
    # from one rule: every off-diagonal entry rounds to the float one
    rng = random.Random(37)
    graphs = [path_graph(2), generate_topology("star", 12)]
    for trial in range(40):
        n = rng.randrange(3, 13)
        avg = rng.uniform(2, n - 1)
        graphs.append(
            generate_topology("random_connected", n, seed=trial, avg_degree=avg)
        )
    for g in graphs:
        n = g.n_nodes
        exact = _exact_weights(g)
        a = mh_weights(g)
        for i in range(n):
            assert sum(exact[i]) == 1
            for j in range(n):
                assert exact[i][j] == exact[j][i]
                if i != j:
                    assert float(exact[i][j]) == a[i, j]


def _consensus_conditions(a):
    # (passed, contraction radius): every row and column sum within 1e-9 of
    # 1, and a radius below 1
    sum_err = max(np.max(np.abs(a.sum(axis=1) - 1.0)), np.max(np.abs(a.sum(axis=0) - 1.0)))
    radius = contraction_radius(a)
    return bool(sum_err < 1e-9 and radius < 1.0), radius


def test_verify_conditions_pass_on_mh():
    g = generate_topology("random_connected", 25, seed=9, avg_degree=3)
    passed, radius = _consensus_conditions(mh_weights(g))
    assert passed
    assert radius < 1


def test_verify_conditions_identity_fails():
    passed, radius = _consensus_conditions(np.eye(2))
    assert abs(radius - 1.0) < 1e-12
    assert not passed


def test_verify_conditions_exact_averaging_matrix():
    passed, radius = _consensus_conditions(np.full((2, 2), 0.5))
    assert radius < 1e-12
    assert passed


def test_second_eigenvalue_complete():
    a = mh_weights(generate_topology("complete", 100))
    assert abs(second_largest_eigenvalue(a)) < 1e-9


def test_second_eigenvalue_star_closed_form():
    # 1 - 1/N for the hub-and-leaves graph
    for n in (10, 100):
        a = mh_weights(generate_topology("star", n))
        assert abs(second_largest_eigenvalue(a) - (1 - 1 / n)) < 1e-9


def test_second_eigenvalue_line_closed_form():
    # 1 - (4/3) sin^2(pi / (2N)) for the path graph
    for n in (10, 100):
        a = mh_weights(generate_topology("line", n))
        expected = 1 - (4.0 / 3.0) * math.sin(math.pi / (2 * n)) ** 2
        assert abs(second_largest_eigenvalue(a) - expected) < 1e-9


def test_second_eigenvalue_requires_symmetry():
    with pytest.raises(NotSymmetric):
        second_largest_eigenvalue(np.array([[0.5, 0.5], [0.2, 0.8]]))


def test_contraction_radius_matches_eigensolve_small():
    rng = np.random.default_rng(5)
    m = rng.uniform(size=(30, 30))
    sym = (m + m.T) / 2
    direct = contraction_radius(sym)
    b = sym - np.full((30, 30), 1 / 30)
    assert abs(direct - np.max(np.abs(np.linalg.eigvalsh(b)))) < 1e-12


def test_generate_line_and_star_shapes():
    assert generate_topology("line", 4).edges == frozenset({(1, 2), (2, 3), (3, 4)})
    assert generate_topology("star", 4).edges == frozenset({(1, 2), (1, 3), (1, 4)})
    for n in (2, 3, 17):
        ids = range(1, n + 1)
        assert generate_topology("complete", n).edges == frozenset(
            itertools.combinations(ids, 2))
        assert generate_topology("star", n).edges == frozenset((1, j) for j in ids[1:])
        assert generate_topology("line", n).edges == frozenset(zip(ids, ids[1:]))


def test_generate_topology_bad_parameters():
    with pytest.raises(BadParameters):
        generate_topology("hypercube", 8)
    with pytest.raises(BadParameters):
        generate_topology("random_connected", 10, avg_degree=1.0)
    with pytest.raises(BadParameters):
        generate_topology("random_connected", 10, avg_degree=10.0)
    with pytest.raises(BadParameters):
        generate_topology("random_connected", 10)


def test_check_generator_is_generate_topology_rule():
    # The loader's check refuses exactly what generation refuses.
    for kind, n, avg_degree in (("hypercube", 8, None), ("random_connected", 10, 1.0),
                                ("random_connected", 10, float("nan")),
                                ("random_connected", 10, None), ("line", 1, None)):
        with pytest.raises(BadParameters):
            check_generator(kind, n, avg_degree)
        with pytest.raises(BadParameters):
            generate_topology(kind, n, avg_degree=avg_degree)
    for kind, n, avg_degree in (("random_connected", 10, 9.0), ("star", 2, None)):
        check_generator(kind, n, avg_degree)
        generate_topology(kind, n, avg_degree=avg_degree)


def test_random_topology_deterministic_and_connected():
    for seed in [*range(25), -3, -(2**70)]:
        g1 = generate_topology("random_connected", 20, seed=seed, avg_degree=4)
        g2 = generate_topology("random_connected", 20, seed=seed, avg_degree=4)
        assert g1.edges == g2.edges
        assert is_connected(g1)
        # union-find style independent connectivity check
        parent = list(range(21))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in g1.edges:
            parent[find(i)] = find(j)
        assert len({find(i) for i in range(1, 21)}) == 1
    g3 = generate_topology("random_connected", 20, seed=1, avg_degree=4)
    g4 = generate_topology("random_connected", 20, seed=2, avg_degree=4)
    assert g3.edges != g4.edges


def test_random_topology_hits_target_degree():
    g = generate_topology("random_connected", 30, seed=3, avg_degree=5)
    assert abs(2 * len(g.edges) / 30 - 5) < 0.2


def test_schedule_explicit_and_generated():
    graphs = [path_graph(4), generate_topology("star", 4)]
    sched = TopologySchedule.from_graphs(graphs)
    assert sched.length == 2
    assert sched.round_graph(1).edges == graphs[0].edges
    with pytest.raises(ValueError):
        sched.round_graph(3)

    gen = TopologySchedule.generated("random_connected", 12, seed=7, avg_degree=3)
    assert gen.length is None
    assert gen.round_graph(5).edges == gen.round_graph(5).edges
    assert gen.round_graph(1).edges != gen.round_graph(2).edges


def test_schedule_json_roundtrip(tmp_path):
    sched = TopologySchedule.generated("random_connected", 8, seed=4, avg_degree=3)
    data = sched.to_json(rounds=3)
    path = tmp_path / "schedule.json"
    path.write_text(__import__("json").dumps(data))
    loaded = TopologySchedule.from_file(str(path), n_nodes=8)
    assert loaded.length == 3
    for t in range(1, 4):
        assert loaded.round_graph(t).edges == sched.round_graph(t).edges
    path.write_text('[[[1, 2]], [["1", "2"]]]')
    for n_nodes in (None, 8):
        with pytest.raises(ValueError, match="pairs of integer node ids"):
            TopologySchedule.from_file(str(path), n_nodes=n_nodes)


# sha256 of each schedule's compact JSON edge lists, as the manifest's
# schedule_digest hashes them, drawn by version 0.4.0: sparse_1k's
# four graphs (N=1000, avg degree 4, schedule seed 11) and the six of
# configs/large_random.json (N=100, avg degree 87, seed 7). A change that
# moves a seeded graph has to bump __version__ and these pins together.
SPARSE_1K_SCHEDULE_SHA256 = "8bc10ff0c262025fc0e6a4ff25314154fcc845b174cd498a312ebfd2ea18c3cd"
LARGE_RANDOM_SCHEDULE_SHA256 = "d87c78b3b3196bc65f46e897192a4eaba8545c6c5a056d2ea956d2c07ac7d061"


def _schedule_sha256(schedule, rounds):
    blob = json.dumps(schedule.to_json(rounds), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_seeded_schedules_are_pinned():
    sparse = TopologySchedule.generated("random_connected", 1000, seed=11, avg_degree=4.0)
    assert _schedule_sha256(sparse, 4) == SPARSE_1K_SCHEDULE_SHA256
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "large_random.json"
    raw = json.loads(config.read_text())
    dense = TopologySchedule.generated(
        raw["schedule"]["kind"], raw["n_learners"], seed=raw["seed"],
        avg_degree=raw["schedule"]["avg_degree"],
    )
    assert _schedule_sha256(dense, raw["rounds"]) == LARGE_RANDOM_SCHEDULE_SHA256
