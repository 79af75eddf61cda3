import math
import random

import numpy as np
import pytest

from ppdfl import consensus
from ppdfl.consensus import (
    AveragingOperator,
    NoFiniteK,
    consensus_final,
    min_iterations,
)
from ppdfl.field import DimensionMismatch
from ppdfl.topology import (
    DisconnectedGraph,
    RoundTopology,
    generate_topology,
    mh_edge_weights,
    mh_weights,
    second_largest_eigenvalue,
)


def k_of(a, p):
    # the round driver's K: the rule on the matrix's eigensolved lambda2
    return min_iterations(second_largest_eigenvalue(a), a.shape[0], p)


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


def bincount_steps(initial, op, iterations):
    """(s(K), frames) from the gather + np.bincount step the slot-major
    kernel replaced: learner i's sum is ((0 + t1) + t2) + ... in op.rows
    order, then a_ii s_i(k) is added."""
    state = np.array(initial, dtype=float)
    n, dim = state.shape
    bins = (op.rows[:, None] * dim + np.arange(dim)).ravel()
    frames = [state]
    for _ in range(iterations):
        sent = state[op.cols] * op.weights[:, None]
        mixed = np.bincount(bins, weights=sent.ravel(), minlength=state.size)
        state = mixed.reshape(n, dim) + op.diag[:, None] * state
        frames.append(state)
    return state, np.array(frames)


def hub_and_line(hub_degree, line_length):
    # Learner 1 joins learners 2..hub_degree+1; the last of them starts a
    # line, so degrees 1, 2 and hub_degree all occur.
    n = hub_degree + line_length + 1
    spokes = [(1, j) for j in range(2, hub_degree + 2)]
    line = [(j, j + 1) for j in range(hub_degree + 1, n)]
    return RoundTopology(n, spokes + line)


def filled_graph(n, arcs, seed=0):
    # A connected random graph on n learners with exactly `arcs` arcs.
    g = generate_topology("random_connected", n, seed=seed, avg_degree=arcs / n)
    assert 2 * len(g.src) == arcs
    return g


def fill_graphs():
    # Graphs with one edge fewer than the dense plan needs, exactly as
    # many, and one more.
    for n in (12, 40, 100):
        at = math.ceil(consensus._DENSE_FILL * n * n / 2) * 2
        yield from (filled_graph(n, at + d, seed=n) for d in (-2, 0, 2))


def bit_exact_graphs():
    yield from differential_graphs()
    yield generate_topology("star", 1000)
    yield generate_topology("complete", 60)
    yield generate_topology("line", 2)
    yield hub_and_line(40, 30)
    yield from fill_graphs()


def uses_dense_plan(g):
    return 2 * len(g.src) >= consensus._DENSE_FILL * g.n_nodes**2


def test_operator_picks_its_plan_from_the_fill():
    for g in bit_exact_graphs():
        op = AveragingOperator.from_graph(g)
        dense = uses_dense_plan(g)
        assert (op.off is not None) == dense, (g.n_nodes, len(g.src))
        slot_plan = (op.perm, op.slot_cols, op.slot_weights, op.ranges)
        assert all((part is None) == dense for part in slot_plan)
    # Around the selection: below, at and above it.
    assert [uses_dense_plan(g) for g in fill_graphs()] == [False, True, True] * 3
    # The reference config's graphs (N=100, degree 87) are dense; the
    # sparse and spread-out shapes, and the sweeps of acceptance
    # criterion 8 (N=24 and N=40, degree 8), are not.
    assert uses_dense_plan(generate_topology("random_connected", 100, seed=7, avg_degree=87))
    for g in (generate_topology("random_connected", 1000, seed=11, avg_degree=4),
              generate_topology("random_connected", 24, seed=1, avg_degree=8),
              generate_topology("random_connected", 40, seed=1, avg_degree=8),
              generate_topology("star", 100), generate_topology("line", 100)):
        assert not uses_dense_plan(g), (g.n_nodes, len(g.src))


def test_both_plans_match_bincount_steps_bit_for_bit(monkeypatch):
    # Values over 16 decades, so any other summation order shows in the
    # last bits; the star with one coordinate is where a reduction over
    # its hub's slots would turn pairwise. Columns average independently:
    # blocks of columns, of uneven widths and of one column too, give the
    # same floats.
    rng = np.random.default_rng(8)
    for g in bit_exact_graphs():
        op = AveragingOperator.from_graph(g)
        per_column = g.n_nodes**2 if op.off is not None else max(1, op.rows.size)
        for dim in (1, 3, 16, 37):
            init = rng.uniform(0, 1, (g.n_nodes, dim)) * 10.0 ** rng.integers(-8, 8, (g.n_nodes, dim))
            expected, expected_frames = bincount_steps(init, op, 5)
            for block in (2**62, consensus._BLOCK_ENTRIES, per_column * 5, 1):
                monkeypatch.setattr(consensus, "_BLOCK_ENTRIES", block)
                frames = np.empty((6, g.n_nodes, dim))
                final = consensus_final(init, op, 5, frames)
                assert np.array_equal(final, expected), (g.n_nodes, dim, block)
                assert np.array_equal(frames, expected_frames), (g.n_nodes, dim, block)


def test_signed_states_match_bincount_steps_bit_for_bit():
    # Negative states make 0 * s = -0.0 for every non-neighbour on the
    # dense plan; sums that start at +0.0 absorb them. A learner whose
    # neighbours all send zeros gets +0.0 + a_ii s_i, as the scatter-add.
    rng = np.random.default_rng(10)
    for g in (generate_topology("complete", 30), filled_graph(40, 1200, seed=3),
              hub_and_line(12, 20)):
        op = AveragingOperator.from_graph(g)
        init = rng.uniform(-1, 1, (g.n_nodes, 4)) * 10.0 ** rng.integers(-8, 8, (g.n_nodes, 4))
        init[:, 1] = -0.0
        init[::2, 2] = 0.0
        expected, expected_frames = bincount_steps(init, op, 4)
        frames = np.empty((5, g.n_nodes, 4))
        final = consensus_final(init, op, 4, frames)
        assert np.array_equal(np.signbit(final), np.signbit(expected))
        assert np.array_equal(final, expected)
        assert np.array_equal(frames, expected_frames)


def test_plans_follow_the_edge_list_not_symmetry():
    # Each arc gets a weight of its own, so a_ij != a_ji: a plan that
    # took a transpose of a symmetric matrix would sum the wrong terms.
    rng = np.random.default_rng(13)
    for g in (generate_topology("complete", 20), filled_graph(40, 1200, seed=5),
              hub_and_line(12, 20)):
        rows, cols, _, _ = mh_edge_weights(g)
        op = AveragingOperator(rows, cols, rng.uniform(0, 1, rows.size), rng.uniform(0, 1, g.n_nodes))
        init = rng.uniform(0, 1, (g.n_nodes, 3))
        assert np.array_equal(consensus_final(init, op, 3), bincount_steps(init, op, 3)[0])


def test_initial_states_are_never_written(monkeypatch):
    # A one-column state is (N,) or a view of its caller's (N, 1) array;
    # neither may serve as a step buffer, on either plan or block layout.
    rng = np.random.default_rng(11)
    for g in (generate_topology("complete", 20), hub_and_line(12, 20)):
        op = AveragingOperator.from_graph(g)
        for shape in ((g.n_nodes,), (g.n_nodes, 1), (g.n_nodes, 5)):
            for block in (2**62, 1):
                monkeypatch.setattr(consensus, "_BLOCK_ENTRIES", block)
                init = rng.uniform(0, 1000, shape)
                kept = init.copy()
                final = consensus_final(init, op, 3)
                assert np.array_equal(init, kept), (g.n_nodes, shape, block)
                consensus_final(np.asfortranarray(init), op, 3, np.empty((4, g.n_nodes, final.shape[1])))
                assert np.array_equal(init, kept), (g.n_nodes, shape, block)
                init.setflags(write=False)
                assert np.array_equal(consensus_final(init, op, 3), final)


def test_lone_learner_keeps_its_state():
    op = AveragingOperator.from_graph(RoundTopology(1, []))
    init = np.array([[2.5, -1.0]])
    frames = np.empty((4, 1, 2))
    assert np.array_equal(consensus_final(init, op, 3, frames), init)
    assert np.array_equal(frames, np.broadcast_to(init, frames.shape))


def test_step_plan_is_built_once_and_read_only(monkeypatch):
    op = AveragingOperator(*mh_edge_weights(hub_and_line(12, 20)))
    plan = [op.perm, op.slot_cols, op.slot_weights]
    kept = [arr.copy() for arr in plan]
    ranges = op.ranges
    for arr in plan:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    assert isinstance(ranges, tuple)
    assert op.off is None

    def no_sorting(*args, **kwargs):
        raise AssertionError("consensus_final rebuilt the step plan")

    # Every call and column width reuses the plan made at construction.
    monkeypatch.setattr(consensus.np, "argsort", no_sorting)
    monkeypatch.setattr(consensus, "_BLOCK_ENTRIES", op.rows.size * 2)
    rng = np.random.default_rng(9)
    for dim in (1, 2, 5, 9):
        init = rng.uniform(0, 100, (op.n_nodes, dim))
        consensus_final(init, op, 4)
        consensus_final(init, op, 2, np.empty((3, op.n_nodes, dim)))
    assert all(a is b for a, b in zip([op.perm, op.slot_cols, op.slot_weights], plan))
    assert all(np.array_equal(a, b) for a, b in zip(plan, kept))
    assert op.ranges is ranges


def test_dense_plan_is_built_once_and_read_only(monkeypatch):
    op = AveragingOperator(*mh_edge_weights(filled_graph(40, 1200, seed=4)))
    off = op.off
    kept = off.copy()
    assert off.shape == (40, 40) and not off.flags.writeable
    with pytest.raises(ValueError):
        off[0, 1] = 0.5
    # off[j, i] = a_ij, from the edge list alone: no transpose of a
    # symmetric matrix is taken.
    want = np.zeros((40, 40))
    want[op.cols, op.rows] = op.weights
    assert np.array_equal(off, want)
    assert (op.perm, op.slot_cols, op.slot_weights, op.ranges) == (None,) * 4

    def no_building(*args, **kwargs):
        raise AssertionError("consensus_final rebuilt the step plan")

    rng = np.random.default_rng(12)
    inits = [rng.uniform(0, 100, (op.n_nodes, dim)) for dim in (1, 2, 5, 9)]
    monkeypatch.setattr(consensus.np, "zeros", no_building)
    monkeypatch.setattr(consensus.np, "argsort", no_building)
    monkeypatch.setattr(consensus, "_BLOCK_ENTRIES", 40 * 40 * 2)
    for init in inits:
        dim = init.shape[1]
        consensus_final(init, op, 4)
        consensus_final(init, op, 2, np.empty((3, op.n_nodes, dim)))
    assert op.off is off and np.array_equal(off, kept)


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
    assert k_of(a, 1020431) == 1


def test_min_iterations_tight_against_direct_norm():
    rng = random.Random(17)
    p = 1020431
    for trial in range(12):
        n = rng.randrange(3, 50)
        g = generate_topology(
            "random_connected", n, seed=trial, avg_degree=rng.uniform(2, min(6, n - 1))
        )
        a = mh_weights(g)
        k = k_of(a, p)
        threshold = 1.0 / (2 * p * math.sqrt(n))
        assert direct_error_norm(a, k) < threshold
        if k > 1:
            assert direct_error_norm(a, k - 1) >= threshold


def test_min_iterations_line_matches_closed_form_prediction():
    p = 1020431
    a = mh_weights(generate_topology("line", 100))
    k = k_of(a, p)
    threshold = 1.0 / (2 * p * 10.0)
    assert direct_error_norm(a, k) < threshold
    assert direct_error_norm(a, k - 1) >= threshold


def test_min_iterations_no_finite_k():
    with pytest.raises(NoFiniteK):
        min_iterations(1.0, 3, 11)


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
        k = k_of(mh_weights(g), p)
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
