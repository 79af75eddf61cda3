"""Synchronous weighted-averaging iteration and its termination bound.

States live in an (N, n) array, one row per learner. One step is
s(k+1) = A s(k); with a symmetric doubly stochastic A every step preserves
the column sums and contracts the spread toward the mean by the factor
lambda2 = rho(A - (1/N) 11^T) per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import DimensionMismatch
from .topology import second_largest_eigenvalue, stochasticity_errors

# Eigensolver error slack on lambda, EIG_SLACK * N * UNIT_ROUNDOFF; see
# min_iterations.
UNIT_ROUNDOFF = 2.0**-53
EIG_SLACK = 8


class NoFiniteK(ValueError):
    """No finite iteration count satisfies the termination bound."""


class BadWeights(ValueError):
    """Aggregation weights must be positive and sum to 1."""


@dataclass
class Trajectory:
    """Snapshots of the joint state for k = 0..K."""

    states: np.ndarray  # shape (K+1, N, n)

    @property
    def iterations(self) -> int:
        return self.states.shape[0] - 1

    @property
    def initial(self) -> np.ndarray:
        return self.states[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _as_states(states: np.ndarray) -> np.ndarray:
    arr = np.asarray(states, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionMismatch("states must be an (N,) or (N, n) array")
    return arr


def consensus_step(states: np.ndarray, a: np.ndarray) -> np.ndarray:
    """One synchronous averaging step: every learner mixes its neighborhood."""
    arr = _as_states(states)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("weight matrix must be square")
    if a.shape[1] != arr.shape[0]:
        raise DimensionMismatch(
            f"weight matrix is {a.shape[0]}x{a.shape[1]} but states have "
            f"{arr.shape[0]} rows"
        )
    return a @ arr


def run_consensus(initial: np.ndarray, a: np.ndarray, iterations: int) -> Trajectory:
    """Apply consensus_step repeatedly, recording every snapshot."""
    if iterations < 0:
        raise ValueError("iteration count must be non-negative")
    state = _as_states(initial)
    frames = np.empty((iterations + 1, *state.shape))
    frames[0] = state
    for k in range(iterations):
        state = consensus_step(state, a)
        frames[k + 1] = state
    return Trajectory(frames)


def consensus_final(initial: np.ndarray, a: np.ndarray, iterations: int) -> np.ndarray:
    """Final state only; avoids storing long trajectories."""
    state = _as_states(initial)
    for _ in range(iterations):
        state = consensus_step(state, a)
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


def plain_weighted_aggregate(models: np.ndarray, weights) -> np.ndarray:
    """Ground-truth weighted aggregate sum_i w_i theta_i."""
    arr = np.asarray(models, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] != arr.shape[0]:
        raise DimensionMismatch("one weight per model required")
    if np.any(w <= 0):
        raise BadWeights("weights must be positive")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise BadWeights(f"weights sum to {w.sum()!r}, expected 1")
    return w @ arr
