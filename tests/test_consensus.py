import math
import random

import numpy as np
import pytest

from ppdfl.consensus import (
    AveragingOperator,
    NoFiniteK,
    consensus_final,
    min_iterations,
)
from ppdfl.field import DimensionMismatch
from ppdfl.topology import DisconnectedGraph, RoundTopology, generate_topology, mh_weights


def direct_error_norm(a, k):
    # independent oracle: matrix power + SVD-based spectral norm
    n = a.shape[0]
    m = n * np.linalg.matrix_power(a, k) - np.ones((n, n))
    return np.linalg.norm(m, 2)


def step(states, g):
    return consensus_final(states, AveragingOperator.from_graph(g), 1)


def differential_graphs():
    yield generate_topology("complete", 30)
    yield generate_topology("star", 200)
    yield generate_topology("line", 60)
    for seed, (n, deg) in enumerate([(5, 2.0), (17, 3.5), (120, 4.0), (200, 12.0)]):
        yield generate_topology("random_connected", n, seed=seed, avg_degree=deg)


def test_operator_matches_dense_matrix_over_50_steps():
    rng = np.random.default_rng(5)
    for g in differential_graphs():
        a = mh_weights(g)
        op = AveragingOperator.from_graph(g)
        expected = rng.uniform(0, 2**31, (g.n_nodes, 3))
        sums = expected.sum(axis=0)
        frames = np.empty((51, g.n_nodes, 3))
        consensus_final(expected, op, 50, frames)
        for k in range(1, 51):
            expected = a @ expected
            err = np.max(np.abs(frames[k] - expected)) / np.max(np.abs(expected))
            assert err <= 1e-12, (g.n_nodes, k, err)
            assert np.allclose(frames[k].sum(axis=0), sums, rtol=1e-12, atol=0)


def test_operator_holds_the_dense_matrix_floats():
    for g in differential_graphs():
        a = mh_weights(g)
        op = AveragingOperator.from_graph(g)
        rebuilt = np.zeros_like(a)
        rebuilt[op.rows, op.cols] = op.weights
        np.fill_diagonal(rebuilt, op.diag)
        assert np.array_equal(rebuilt, a)
        assert op.rows.size == 2 * len(g.edges)


def test_operator_needs_connected_graph():
    with pytest.raises(DisconnectedGraph):
        AveragingOperator.from_graph(RoundTopology(3, frozenset({(1, 2)})))


def test_step_fixed_point_of_consensus():
    g = generate_topology("random_connected", 10, seed=1, avg_degree=3)
    states = np.full((10, 2), 3.7)
    assert np.allclose(step(states, g), states)


def test_step_two_node_average():
    g = generate_topology("line", 2)
    out = step(np.array([[0.0], [10.0]]), g)
    assert np.allclose(out, [[5.0], [5.0]])


def test_step_preserves_column_sums():
    rng = np.random.default_rng(2)
    g = generate_topology("random_connected", 12, seed=2, avg_degree=3)
    states = rng.uniform(0, 100, (12, 3))
    stepped = step(states, g)
    assert np.allclose(stepped.sum(axis=0), states.sum(axis=0), rtol=1e-12)


def test_step_dimension_checks():
    op = AveragingOperator.from_graph(generate_topology("line", 2))
    with pytest.raises(DimensionMismatch):
        consensus_final(np.zeros((3, 1)), op, 1)
    with pytest.raises(DimensionMismatch):
        consensus_final(np.zeros((2, 1, 1)), op, 1)
    with pytest.raises(DimensionMismatch):
        consensus_final(np.zeros((2, 1)), op, 2, np.empty((2, 2, 1)))
    with pytest.raises(ValueError):
        consensus_final(np.zeros((2, 1)), op, -1)


def test_run_consensus_zero_iterations():
    op = AveragingOperator.from_graph(generate_topology("line", 2))
    frames = np.empty((1, 2, 1))
    final = consensus_final(np.array([[1.0], [2.0]]), op, 0, frames)
    assert np.allclose(final, [[1.0], [2.0]])
    assert np.allclose(frames[0], [[1.0], [2.0]])


def test_run_consensus_complete_graph_one_step():
    n = 7
    op = AveragingOperator.from_graph(generate_topology("complete", n))
    init = np.arange(n, dtype=float)[:, None]
    final = consensus_final(init, op, 1)
    assert np.allclose(final, np.full((n, 1), init.mean()), atol=1e-12)


def test_run_consensus_path_converges_to_mean():
    op = AveragingOperator.from_graph(generate_topology("line", 3))
    init = np.array([[9.0], [0.0], [3.0]])
    frames = np.empty((401, 3, 1))
    final = consensus_final(init, op, 400, frames)
    assert np.max(np.abs(final - init.mean())) < 1e-9
    assert np.array_equal(frames[-1], final)


def test_contraction_of_spread():
    rng = np.random.default_rng(3)
    for seed in range(10):
        n = int(rng.integers(3, 20))
        g = generate_topology(
            "random_connected", n, seed=seed, avg_degree=min(2.5, n - 1)
        )
        states = rng.uniform(-5, 5, (int(n), 1))
        spread = np.max(np.abs(states - states.mean()))
        for _ in range(30):
            states = step(states, g)
            new_spread = np.max(np.abs(states - states.mean()))
            assert new_spread <= spread + 1e-12
            spread = new_spread


def test_min_iterations_complete_graph():
    a = mh_weights(generate_topology("complete", 10))
    assert min_iterations(a, 1020431) == 1


def test_min_iterations_tight_against_direct_norm():
    rng = random.Random(17)
    p = 1020431
    for trial in range(12):
        n = rng.randrange(3, 50)
        g = generate_topology(
            "random_connected", n, seed=trial, avg_degree=rng.uniform(2, min(6, n - 1))
        )
        a = mh_weights(g)
        k = min_iterations(a, p)
        threshold = 1.0 / (2 * p * math.sqrt(n))
        assert direct_error_norm(a, k) < threshold
        if k > 1:
            assert direct_error_norm(a, k - 1) >= threshold


def test_min_iterations_line_matches_closed_form_prediction():
    p = 1020431
    a = mh_weights(generate_topology("line", 100))
    k = min_iterations(a, p)
    threshold = 1.0 / (2 * p * 10.0)
    assert direct_error_norm(a, k) < threshold
    assert direct_error_norm(a, k - 1) >= threshold


def test_min_iterations_no_finite_k():
    with pytest.raises(NoFiniteK):
        min_iterations(np.eye(3), 11)


def test_rounding_margin_with_residue_initials():
    # after K iterations from states in [0, p), every scaled state is
    # within 0.5 of the exact integer column sum
    rng = random.Random(19)
    p = 40009
    for trial in range(10):
        n = rng.randrange(3, 25)
        g = generate_topology(
            "random_connected", n, seed=100 + trial, avg_degree=min(2.5, n - 1)
        )
        k = min_iterations(mh_weights(g), p)
        init = np.array([[rng.randrange(p)] for _ in range(n)], dtype=float)
        final = consensus_final(init, AveragingOperator.from_graph(g), k)
        assert np.max(np.abs(n * final - init.sum())) < 0.5


def test_trajectory_properties():
    # K + 1 frames: the initial state, then the state after every step.
    g = generate_topology("star", 5)
    op = AveragingOperator.from_graph(g)
    init = np.arange(10, dtype=float).reshape(5, 2)
    frames = np.empty((5, 5, 2))
    final = consensus_final(init, op, 4, frames)
    assert np.array_equal(frames[0], init)
    for k in range(1, 5):
        assert np.array_equal(frames[k], consensus_final(frames[k - 1], op, 1))
    assert np.array_equal(frames[4], final)
