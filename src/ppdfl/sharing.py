"""Shamir secret sharing over GF(p) with interpolation-weighted shares.

A secret s is split by sampling a random polynomial H with H(0) = s and
handing holder j the evaluation H(j); holder ids double as evaluation
points, so they must be distinct, nonzero and below the modulus. Any
tau+1 holders recover s by Lagrange interpolation at zero. Pre-multiplying
each share by its interpolation weight

    delta(C, j) = prod_{k in C, k != j}  k / (k - j)   (mod p)

turns reconstruction over the full holder set into a plain modular sum,
which is what lets sums of shares travel through an averaging layer.
Secrets, coefficients, weights and shares are int64 residue arrays.

The kernels work on a batch of holder sets at once: one set per row of an
int64 array, padded with zeros to the widest set. 0 is never a holder id,
so it marks padding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .field import _inverse_int

# Accumulator entries per block of the Horner pass (128 KB of int64).
_BLOCK_ENTRIES = 2**14


def _prefix_products(a: np.ndarray, p: int) -> np.ndarray:
    """Inclusive running products mod p of a 1-D array, by a Hillis-Steele
    scan in log2(len(a)) vectorized doubling steps."""
    out = a.copy()
    shift = 1
    while shift < len(out):
        out[shift:] = out[shift:] * out[:-shift] % p
        shift *= 2
    return out


def _products_of_others(a: np.ndarray, p: int) -> np.ndarray:
    """Entry j is the product mod p of every entry of a except a[j]: the
    exclusive prefix product times the exclusive suffix product."""
    one = np.ones(1, dtype=np.int64)
    before = _prefix_products(np.concatenate([one, a[:-1]]), p)
    after = _prefix_products(np.concatenate([one, a[:0:-1]]), p)[::-1]
    return before * after % p


def _batch_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of nonzero residues with a single inversion.

    Montgomery's trick: 1/a_j = (product of the other entries) / (product
    of all entries), so only the full product is ever inverted.
    """
    others = _products_of_others(a, p)
    total = int(others[0]) * int(a[0]) % p
    return others * _inverse_int(total, p) % p


def _lazy_steps(p: int, bound: int) -> int:
    """How many times a residue below p can be multiplied by an integer of
    magnitude at most bound and have a residue added, before int64 needs it
    reduced again: the largest r >= 1 with p * (bound + 1)**r < 2**63."""
    r = 1
    while p * (max(bound, 1) + 1) ** (r + 1) < 2**63:
        r += 1
    return r


def interpolation_weights(holders: np.ndarray, p: int) -> np.ndarray:
    """Interpolation weights of every holder set in a batch.

    holders is a (..., s) int64 array with one holder set per row: distinct
    ids in [1, p), padded with zeros. Returns an int64 array of the same
    shape holding delta(C, x_j) at each holder's slot and 0 at padding.

    delta_j = prod_k x_k / den_j with den_j = x_j prod_{k != j} (x_k - x_j)
    (the extra x_j cancels the numerator's), accumulated slot by slot so no
    temporary is larger than the batch. Every factor has magnitude below the
    largest id, so den_j is reduced mod p only every _lazy_steps factors.
    Every denominator of the batch is inverted with one modular inversion.
    """
    x = np.asarray(holders, dtype=np.int64)
    if x.size and (x.min() < 0 or x.max() >= p):
        raise ValueError(f"holder ids must lie in [1, {p})")
    present = x != 0
    lazy = _lazy_steps(p, int(x.max(initial=0)))
    num = np.ones(x.shape[:-1], dtype=np.int64)
    den = np.ones_like(x)
    for k in range(x.shape[-1]):
        xk = x[..., k]
        factor = xk[..., None] - x
        factor[..., k] = xk
        # A padding slot contributes no factor to its row.
        np.multiply(den, factor, out=den, where=present[..., k, None])
        num = np.where(present[..., k], num * xk % p, num)
        if (k + 1) % lazy == 0:
            den %= p
    den = den[present] % p
    if not den.all():
        raise ValueError("holder ids within a set must be distinct")
    num = np.broadcast_to(num[..., None], x.shape)[present]
    weights = np.zeros_like(x)
    weights[present] = num * _batch_inverse(den, p) % p
    return weights


def _draw_coefficients(
    rng: np.random.Generator, n: int, tau: int, p: int
) -> np.ndarray:
    """(n, tau) uniform residues: row l holds c_1..c_tau of coordinate l's
    polynomial, in the order the share stream fixes.

    Uniform coefficients are what make any tau shares carry zero
    information about the secret; restricting the top coefficient away
    from zero would skew the share distribution by an s-dependent
    exclusion. Generator.integers draws exactly uniformly on [0, p).
    """
    return rng.integers(0, p, size=(n, tau), dtype=np.int64)


def _generate_share_values(
    secrets: np.ndarray, coeffs: Sequence[np.ndarray], holders: np.ndarray, p: int
) -> np.ndarray:
    """The share table of a batch of holder sets: every set's polynomials
    evaluated at each of its holders.

    secrets is (G, n) and holders (G, s), zero-padded; coeffs holds one
    (n, tau_g) array per set. Set g's polynomial for coordinate l is
    H(x) = secrets[g, l] + sum_m coeffs[g][l, m-1] x^m. Returns (E, n)
    int64 with one row per nonzero holder, in row-major order: row e holds
    H at that holder for every coordinate. Padding a set's coefficients
    with zero high coefficients leaves its polynomials unchanged, so sets
    of different degree share one Horner pass; padded columns are
    evaluated and dropped. The pass runs over blocks of sets with at most
    _BLOCK_ENTRIES accumulator entries, so its temporaries stay cache-sized
    however large the batch. Coefficients are residues and ids lie in
    [0, p), so the accumulator needs reducing mod p only every
    _lazy_steps(p, max id) steps to stay inside int64.
    """
    holders = np.asarray(holders, dtype=np.int64)
    secrets = np.asarray(secrets, dtype=np.int64) % p
    n_sets, width = holders.shape
    dim = secrets.shape[1]
    present = holders != 0
    starts = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
    out = np.empty((starts[-1], dim), dtype=np.int64)
    lazy = _lazy_steps(p, int(holders.max(initial=0)))
    per_block = max(1, _BLOCK_ENTRIES // max(1, dim * width))
    for a in range(0, n_sets, per_block):
        b = min(a + per_block, n_sets)
        x = holders[a:b, None, :]
        sets = [np.asarray(c, dtype=np.int64) for c in coeffs[a:b]]
        padded = np.zeros((b - a, dim, max(c.shape[1] for c in sets)), dtype=np.int64)
        for row, c in zip(padded, sets):
            row[:, : c.shape[1]] = c
        acc = np.zeros((b - a, dim, width), dtype=np.int64)
        for step, m in enumerate(range(padded.shape[2] - 1, -1, -1), start=1):
            acc *= x
            acc += padded[:, :, m, None]
            if step % lazy == 0:
                acc %= p
        acc %= p
        acc *= x
        acc += secrets[a:b, :, None]
        acc %= p
        out[starts[a] : starts[b]] = acc.transpose(0, 2, 1)[present[a:b]]
    return out
