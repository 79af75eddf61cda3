import math
import random

import numpy as np
import pytest

from ppdfl.topology import (
    BadParameters,
    DisconnectedGraph,
    NotSymmetric,
    RoundTopology,
    TopologySchedule,
    contraction_radius,
    generate_topology,
    is_connected,
    load_edge_list,
    mh_weights,
    save_edge_list,
    second_largest_eigenvalue,
    verify_consensus_conditions,
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


def test_verify_conditions_pass_on_mh():
    g = generate_topology("random_connected", 25, seed=9, avg_degree=3)
    report = verify_consensus_conditions(mh_weights(g))
    assert report.passed
    assert report.contraction_radius < 1


def test_verify_conditions_identity_fails():
    report = verify_consensus_conditions(np.eye(2))
    assert abs(report.contraction_radius - 1.0) < 1e-12
    assert not report.passed


def test_verify_conditions_exact_averaging_matrix():
    report = verify_consensus_conditions(np.full((2, 2), 0.5))
    assert report.contraction_radius < 1e-12
    assert report.passed


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


def test_generate_topology_bad_parameters():
    with pytest.raises(BadParameters):
        generate_topology("hypercube", 8)
    with pytest.raises(BadParameters):
        generate_topology("random_connected", 10, avg_degree=1.0)
    with pytest.raises(BadParameters):
        generate_topology("random_connected", 10, avg_degree=10.0)
    with pytest.raises(BadParameters):
        generate_topology("random_connected", 10)


def test_random_topology_deterministic_and_connected():
    for seed in range(25):
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
    assert sched.round_graph(2).round_index == 2
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


def test_edge_list_file_roundtrip(tmp_path):
    g = generate_topology("random_connected", 9, seed=2, avg_degree=3)
    path = tmp_path / "graph.txt"
    save_edge_list(g, str(path))
    loaded = load_edge_list(str(path), n_nodes=9)
    assert loaded.edges == g.edges
