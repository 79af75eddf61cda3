"""Synchronous weighted-averaging iteration and its termination bound.

States live in an (N, n) array, one row per learner. One step is
s(k+1) = A s(k); with a symmetric doubly stochastic A every step preserves
the column sums and contracts the spread toward the mean by the factor
lambda2 = rho(A - (1/N) 11^T) per step.

Learner i's new state is the sum of its terms a_ij s_j, its neighbours in
id order, and then a_ii s_i: every sum is formed in the order a
scatter-add over the edge list forms it, on either of two layouts of A,
chosen from N and |E| when the operator is built.

A sparse graph runs on an edge-list plan, never on an N x N array, so one
step costs O((N + 2|E|) n). The plan is slot-major: learners are ordered
by degree, highest first, and slot k holds every learner's k-th term, so
slot k covers a prefix of the learners, and each run of slots over the
same prefix is summed by one or a few numpy calls, slot after slot.

A dense graph, one with 2|E| >= _DENSE_FILL * N^2 arcs, runs on the N x N
off-diagonal matrix instead: one broadcast multiply and one reduction over
the senders per step, O(N^2 n). Its zero entries add exact zeros, so the
floats are those of the edge list.

K is a closed form in lambda2, N and p alone (min_iterations); the round
driver's one eigensolve gives lambda2. The steps run in floats; their
rounding error is not budgeted into K but measured at run time by the
round driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .field import DimensionMismatch
from .topology import DisconnectedGraph, RoundTopology, is_connected, mh_edge_weights

# Eigensolver error slack on lambda, EIG_SLACK * N * UNIT_ROUNDOFF; see
# min_iterations.
UNIT_ROUNDOFF = 2.0**-53
EIG_SLACK = 8
# Products per averaging step of one column block: a block's gathered terms
# and their weights, or its dense products, stay near 512 KB each,
# cache-sized however wide the states.
_BLOCK_ENTRIES = 2**16
# Fill, arcs per N^2, from which a graph averages on the dense plan. The
# dense step does N^2 products a column where the slot step does
# N + 2|E|, but without a gather or a call per distinct degree. At n=3 it
# breaks even with the slot step near fill 0.5-0.6 for N=24 to 300, and is
# 30% faster at fill 0.87, N=100; at n=16 it breaks even near fill 0.9 at
# N=100 and 0.6 at N=300, and loses at N <= 40 (numpy 2.4).
_DENSE_FILL = 0.75
# Entries per slot below which a run of slots is summed by np.add.accumulate
# rather than np.add.reduce: the reduction pays a fixed cost per slot, the
# accumulation writes every partial sum. They cost the same near 6 entries
# for runs of 10 to 1000 slots (numpy 2.4).
_THIN_SLOT = 6


class NoFiniteK(ValueError):
    """No finite iteration count satisfies the termination bound."""


@dataclass(frozen=True, eq=False)
class AveragingOperator:
    """The Metropolis-Hastings matrix of one round as flat edge arrays.

    rows and cols (0-based) hold both directions of every edge, sorted by
    (row, col), weights the off-diagonal entries a_ij and diag the entries
    a_ii: the same floats topology.mh_weights places in the dense matrix.

    The constructor derives one step plan from them, as read-only arrays:
    the dense one if the graph has at least _DENSE_FILL * N^2 arcs, else
    the slot one; the other plan's fields are None.

    Dense plan: off is the (N, N) matrix with off[j, i] = a_ij, the weight
    learner i gives sender j, and zeros on the diagonal.

    Slot plan: a step treats a_ii s_i as learner i's last term, after its
    arcs in rows order: its closed neighbourhood has deg_i + 1 slots. perm
    lists the learners by degree, highest first (ties by index); position
    r of a step's state is learner perm[r]. slot_cols and slot_weights
    hold the terms slot-major: slot k holds the k-th term of each learner,
    its sender's position and its weight, for the positions 0..c_k-1 whose
    learners have more than k terms. ranges splits the slots into runs
    with the same c_k, one (first entry, slots, c_k) per distinct degree,
    lowest first; the first run covers all N learners.
    """

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    diag: np.ndarray
    off: np.ndarray | None = field(init=False, repr=False, default=None)
    perm: np.ndarray | None = field(init=False, repr=False, default=None)
    slot_cols: np.ndarray | None = field(init=False, repr=False, default=None)
    slot_weights: np.ndarray | None = field(init=False, repr=False, default=None)
    ranges: tuple[tuple[int, int, int], ...] | None = field(
        init=False, repr=False, default=None)

    def __post_init__(self):
        n = self.diag.shape[0]
        if self.rows.size >= _DENSE_FILL * n * n:
            off = np.zeros((n, n))
            off[self.cols, self.rows] = self.weights
            off.setflags(write=False)
            object.__setattr__(self, "off", off)
            return
        deg = np.bincount(self.rows, minlength=n)
        perm = np.argsort(-deg, kind="stable")
        pos = np.empty_like(perm)
        pos[perm] = np.arange(n)
        # c[k] learners have more than k terms, deg >= k; slot k starts at
        # table entry start[k] and holds position r at start[k] + r.
        counts = np.bincount(deg)
        c = n - (np.cumsum(counts) - counts)
        start = np.cumsum(c) - c
        # An arc's slot is its rank among its row's arcs, in rows order; the
        # own term's is deg.
        by_row = np.argsort(self.rows, kind="stable")
        rank = np.empty_like(by_row)
        rank[by_row] = np.arange(by_row.size) - (np.cumsum(deg) - deg)[self.rows[by_row]]
        arcs = start[rank] + pos[self.rows]
        own = start[deg] + pos
        slot_cols = np.empty(by_row.size + n, dtype=np.int64)
        slot_cols[arcs], slot_cols[own] = pos[self.cols], pos
        slot_weights = np.empty(by_row.size + n)
        slot_weights[arcs], slot_weights[own] = self.weights, self.diag
        for name, arr in (("perm", perm), ("slot_cols", slot_cols),
                          ("slot_weights", slot_weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # Slots [levels[j-1], levels[j]) cover the same c: one run each.
        levels = np.flatnonzero(np.diff(c, append=0)) + 1
        first = np.concatenate([[0], levels[:-1]])
        ranges = zip(start[first].tolist(), (levels - first).tolist(), c[first].tolist())
        object.__setattr__(self, "ranges", tuple(ranges))

    @classmethod
    def from_graph(cls, g: RoundTopology) -> "AveragingOperator":
        if not is_connected(g):
            raise DisconnectedGraph("averaging weights need a connected graph")
        return cls(*mh_edge_weights(g))

    @property
    def n_nodes(self) -> int:
        return self.diag.shape[0]


def _as_states(states: np.ndarray) -> np.ndarray:
    arr = np.asarray(states, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionMismatch("states must be an (N,) or (N, n) array")
    return arr


def consensus_final(
    initial: np.ndarray,
    op: AveragingOperator,
    iterations: int,
    frames: np.ndarray | None = None,
) -> np.ndarray:
    """The state s(K) after K = iterations synchronous steps of op.

    In one step every learner i sends s_i(k) to its neighbours and forms
    s_i(k+1) = ((0 + a_ij1 s_j1(k)) + a_ij2 s_j2(k)) + ... + a_ii s_i(k),
    its neighbours j1 < j2 < ... in id order, the order op.rows lists its
    arcs. That is the order of a gather, an np.bincount scatter-add and an
    added own term, so the floats are the same as that step's.

    On op's dense plan a step is one broadcast multiply of every sender's
    state by its column of weights, one reduction over the senders in id
    order, which starts at +0.0 and adds exact zeros for non-neighbours,
    and the own terms. On the slot plan it is one gather of every term's
    sender, one multiply by the weights, one sum over the first run of
    slots, which every learner has, and one to three calls per further
    run, one run per distinct degree, however large the largest degree.

    All K steps run: the intermediate states are the protocol's messages.
    If frames, a (K+1, N, n) array, is given, s(k) is written to frames[k]
    for k = 0..K. initial is never written to.
    """
    if iterations < 0:
        raise ValueError("iteration count must be non-negative")
    state = _as_states(initial)
    n_nodes, dim = state.shape
    if n_nodes != op.n_nodes:
        raise DimensionMismatch(
            f"operator has {op.n_nodes} rows but states have {n_nodes}"
        )
    if frames is not None:
        if frames.shape != (iterations + 1, n_nodes, dim):
            raise DimensionMismatch(
                f"frames are {frames.shape}, expected {(iterations + 1, n_nodes, dim)}"
            )
    # Columns average independently, so wide states run in blocks of columns
    # whose steps hold at most _BLOCK_ENTRIES products, N^2 a column on the
    # dense plan and one per arc on the slot plan, unless one column needs
    # more.
    if op.off is not None:
        steps, per_column = _dense_steps, n_nodes * n_nodes
    else:
        steps, per_column = _slot_steps, len(op.rows)
    blocks = max(1, -(-per_column * dim // _BLOCK_ENTRIES))
    width = max(1, -(-dim // blocks))
    final = np.empty_like(state)
    for a in range(0, dim, width):
        cols = slice(a, a + width)
        block_frames = None if frames is None else frames[:, :, cols]
        steps(state[:, cols], op, iterations, block_frames, final[:, cols])
    return final


def _dense_steps(
    state: np.ndarray,
    op: AveragingOperator,
    iterations: int,
    frames: np.ndarray | None,
    out: np.ndarray,
) -> None:
    """The K steps of consensus_final on op's dense plan, for validated
    states and frames; the final state is written to out."""
    if frames is not None:
        frames[0] = state
    # Coordinate-major, cur[c, j] is sender j's coordinate c; a copy even
    # when state.T is contiguous, so the steps never write to initial.
    cur = state.T.copy()
    nxt = np.empty_like(cur)
    own = np.empty_like(cur)
    prod = np.empty((cur.shape[0], *op.off.shape))
    off = op.off[None]
    for k in range(1, iterations + 1):
        # prod[c, j, i] = a_ij s_j; reducing over j, an outer axis, adds
        # whole rows of senders in id order.
        np.multiply(off, cur[:, :, None], out=prod)
        np.add.reduce(prod, axis=1, out=nxt, initial=0.0)
        np.multiply(op.diag, cur, out=own)
        nxt += own
        cur, nxt = nxt, cur
        if frames is not None:
            frames[k] = cur.T
    out[:] = cur.T


def _slot_steps(
    state: np.ndarray,
    op: AveragingOperator,
    iterations: int,
    frames: np.ndarray | None,
    out: np.ndarray,
) -> None:
    """The K steps of consensus_final on op's slot plan, for validated
    states and frames; the final state is written to out."""
    width = state.shape[1]
    if frames is not None:
        frames[0] = state
    state = np.take(state, op.perm, axis=0)
    mixed = np.empty_like(state)
    # Weights spelled out per entry: full-length inner loops, no broadcasting.
    weights = np.repeat(op.slot_weights, width).reshape(-1, width)
    sent = np.empty_like(weights)
    # Views made once per call. The first run is (slots, N, width). A later
    # run is its first slot and, if it has more, all its slots as
    # (slots, c * width); one with thin slots is accumulated into a buffer
    # whose last row is its sum. sums and next_sums are the c running sums
    # each run adds into, in the two state buffers the steps alternate
    # between.
    (_, base_slots, n_nodes), *later = op.ranges
    base = sent[:base_slots * n_nodes].reshape(base_slots, n_nodes, width)
    runs = []
    for first, n_slots, c in later:
        run = sent[first:first + n_slots * c].reshape(n_slots, c * width)
        if n_slots == 1:
            runs.append((run[0], None, None, None))
        elif c * width >= _THIN_SLOT:
            runs.append((run[0], run, None, None))
        else:
            partial = np.empty_like(run)
            runs.append((run[0], run, partial, partial[-1]))
    sums = [mixed[:c].reshape(-1) for _, _, c in later]
    next_sums = [state[:c].reshape(-1) for _, _, c in later]
    for k in range(1, iterations + 1):
        # slot_cols are positions by construction; "clip" skips the bounds
        # check, and with it the copy of `out` that "raise" makes. The
        # method skips np.take's Python wrapper, about a microsecond a step.
        state.take(op.slot_cols, axis=0, out=sent, mode="clip")
        sent *= weights
        # Every learner has its first slots in the first run: start all
        # sums at zero.
        np.add.reduce(base, axis=0, out=mixed, initial=0.0)
        for (head, run, partial, last), acc in zip(runs, sums):
            if run is None:
                acc += head
                continue
            head += acc  # the running sums join the run's first slot
            # Both calls add the slots in order. The reduction loops over
            # the slots and adds whole slots; accumulate loops along each
            # entry's slots. Over one-entry slots a reduction would sum
            # pairwise; such slots are thin, so they accumulate.
            if partial is None:
                np.add.reduce(run, axis=0, out=acc)
            else:
                np.add.accumulate(run, axis=0, out=partial)
                acc[:] = last
        state, mixed = mixed, state
        sums, next_sums = next_sums, sums
        if frames is not None:
            frames[k][op.perm] = state
    out[op.perm] = state


def averaging_error_norm(a: np.ndarray, k: int) -> float:
    """Spectral norm of N A^k - 11^T, the gap to exact averaging after k steps.

    A direct float evaluation, kept as a diagnostic: its rounding noise
    floor (about 1e-11 at N=1000) can exceed the termination threshold, so
    K is never chosen or checked with it.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    m = n * np.linalg.matrix_power(a, k) - np.ones((n, n))
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def termination_inputs(lambda2: float, n: int, p: int) -> tuple[float, float]:
    """(inflated radius, threshold) that K is chosen against; see min_iterations."""
    lam_hat = abs(lambda2) + EIG_SLACK * n * UNIT_ROUNDOFF
    return lam_hat, 1.0 / (2.0 * p * math.sqrt(n))


def min_iterations(lambda2: float, n: int, p: int) -> int:
    """Smallest K >= 1 with N lam_hat^K < 1 / (2 p sqrt(N)), in closed form.

    For symmetric doubly stochastic A, ||N A^k - 11^T|| = N lambda^k exactly,
    where lambda = |lambda2| is the second-largest eigenvalue magnitude of A
    (Xiao and Boyd, "Fast linear iterations for distributed averaging",
    2004). Below the threshold, |N s_i(K) - sum_j s_j(0)| < 0.5 for any
    initial states in [0, p), so rounding N s(K) recovers the exact integer
    sum. The rule reads only lambda2, N and p: the caller's one eigensolve
    gives lambda2, and topology.mh_weights builds A doubly stochastic.

    The solver's eigenvalues are exact for a matrix within p(N) u ||A|| of A
    (LAPACK Users' Guide, section 4.7), so by Weyl's inequality lambda is
    off by at most that much; ||A|| = 1 here. K is chosen for
    lam_hat = lambda + c N u with c = EIG_SLACK = 8 and u = 2^-53, i.e.
    taking p(N) = 8N (8.9e-13 at N=1000); termination_inputs states lam_hat
    and the threshold. lam_hat >= 1 raises NoFiniteK.

    The K float averaging steps add rounding error of their own that this
    bound does not budget for; the round driver measures the rounding
    margin at run time and raises if it reaches 0.5.
    """
    lam_hat, threshold = termination_inputs(lambda2, n, p)
    if lam_hat >= 1.0:
        raise NoFiniteK(f"inflated contraction radius {lam_hat} >= 1")
    # The logarithms seed K; the loops settle it against the rule itself.
    k = max(1, math.ceil(math.log(threshold / n) / math.log(lam_hat)))
    while n * lam_hat**k >= threshold:
        k += 1
    while k > 1 and n * lam_hat ** (k - 1) < threshold:
        k -= 1
    return k
