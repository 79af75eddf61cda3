"""Synchronous weighted-averaging iteration and its termination bound.

States live in an (N, n) array, one row per learner. One step is
s(k+1) = A s(k); with a symmetric doubly stochastic A every step preserves
the column sums and contracts the spread toward the mean by the factor
lambda2 = rho(A - (1/N) 11^T) per step.

A is applied as an edge list, never as an N x N array: every learner
mixes its own state with those its neighbours send, so one step costs
O((N + 2|E|) n). The dense matrix serves only the eigensolve that picks K.
The steps run in floats; their rounding error is not budgeted into K but
measured at run time by the round driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import DimensionMismatch
from .topology import (
    DisconnectedGraph,
    RoundTopology,
    is_connected,
    mh_edge_weights,
    second_largest_eigenvalue,
    stochasticity_errors,
)

# Eigensolver error slack on lambda, EIG_SLACK * N * UNIT_ROUNDOFF; see
# min_iterations.
UNIT_ROUNDOFF = 2.0**-53
EIG_SLACK = 8


class NoFiniteK(ValueError):
    """No finite iteration count satisfies the termination bound."""


@dataclass(frozen=True, eq=False)
class AveragingOperator:
    """The Metropolis-Hastings matrix of one round as flat edge arrays.

    rows and cols (0-based) hold both directions of every edge, weights the
    off-diagonal entries a_ij and diag the entries a_ii: the same floats
    topology.mh_weights places in the dense matrix.
    """

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    diag: np.ndarray

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

    In one step every learner i sends s_i(k) to its neighbours; a gather of
    the sent rows, scaled by a_ij, and one scatter-add into the receiving
    rows, plus a_ii s_i(k), give s(k+1). All K steps run: the intermediate
    states are the protocol's messages. If frames, a (K+1, N, n) array, is
    given, s(k) is written to frames[k] for k = 0..K.
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
        frames[0] = state
    # Flat index row * dim + coordinate of every sent entry's receiver.
    bins = (op.rows[:, None] * dim + np.arange(dim)).ravel()
    # Weights spelled out per entry: full-length inner loops, no broadcasting.
    weights = np.repeat(op.weights, dim).reshape(-1, dim)
    diag = np.repeat(op.diag, dim).reshape(-1, dim)
    sent = np.empty_like(weights)
    own = np.empty_like(diag)
    for k in range(1, iterations + 1):
        # cols are node indices by construction; "clip" skips the bounds
        # check, and with it the copy of `out` that "raise" makes.
        np.take(state, op.cols, axis=0, out=sent, mode="clip")
        sent *= weights
        mixed = np.bincount(bins, weights=sent.ravel(), minlength=state.size)
        mixed = mixed.reshape(state.shape)
        mixed += np.multiply(diag, state, out=own)
        state = mixed
        if frames is not None:
            frames[k] = state
    return state


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


def min_iterations(
    a: np.ndarray, p: int, lambda2: float | None = None
) -> int:
    """Smallest K >= 1 with N lam_hat^K < 1 / (2 p sqrt(N)), in closed form.

    For symmetric doubly stochastic A, ||N A^k - 11^T|| = N lambda^k exactly,
    where lambda is the second-largest eigenvalue magnitude of A (Xiao and
    Boyd, "Fast linear iterations for distributed averaging", 2004). Below
    the threshold, |N s_i(K) - sum_j s_j(0)| < 0.5 for any initial states
    in [0, p), so rounding N s(K) recovers the exact integer sum.

    lambda comes from one symmetric eigensolve: ``lambda2`` when the caller
    already holds it for this A, else second_largest_eigenvalue(a). The
    solver's eigenvalues are exact for a matrix within p(N) u ||A|| of A
    (LAPACK Users' Guide, section 4.7), so by Weyl's inequality lambda is
    off by at most that much; ||A|| = 1 here. K is chosen for
    lam_hat = lambda + c N u with c = EIG_SLACK = 8 and u = 2^-53, i.e.
    taking p(N) = 8N (8.9e-13 at N=1000). lam_hat >= 1 raises NoFiniteK.

    The K float averaging steps add rounding error of their own that this
    bound does not budget for; the round driver measures the rounding
    margin at run time and raises if it reaches 0.5.
    """
    a = np.asarray(a, dtype=float)
    row_err, col_err = stochasticity_errors(a)
    if row_err >= 1e-9 or col_err >= 1e-9:
        raise ValueError("matrix is not doubly stochastic")
    if lambda2 is None:
        lambda2 = second_largest_eigenvalue(a)
    n = a.shape[0]
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
