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
so it marks padding. Interpolation weights are int64 products reduced mod
p as they go. Shares are float64 matrix products, holder powers times
coefficients split into limbs, exact because every partial sum is an
integer of at most 2**53 (see _limb_split); one reduction mod p at the
end turns them into residues.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .field import _inverse_int

# Entries of the temporaries of a block of the share evaluation together
# (512 KB of float64): the gathered holder powers, the limb-split
# coefficients and their products hold at most this many for a block of
# sets, unless one set alone needs more. The float64 products are exact
# whatever the block size, since _limb_split bounds every partial sum by
# 2**53.
_BLOCK_ENTRIES = 2**16


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


def _limb_split(p: int, terms: int) -> tuple[int, int]:
    """(limbs, bits): the fewest limbs of `bits` bits that residues mod p
    split into so that a sum of limbs * terms products, each of a limb and
    a residue, is at most 2**53 and so exact in float64:
    limbs * terms * (2**bits - 1) * (p - 1) <= 2**53, with limbs * bits
    covering every residue."""
    top = max(1, (p - 1).bit_length())
    for limbs in range(1, top + 1):
        bits = -(-top // limbs)
        if limbs * terms * ((1 << bits) - 1) * (p - 1) <= 2**53:
            return limbs, bits
    raise ValueError(
        f"polynomials with {terms} coefficients are too long to evaluate "
        f"exactly in float64 mod {p}"
    )


def _power_table(ids: np.ndarray, terms: int, limbs: int, bits: int, p: int) -> np.ndarray:
    """(len(ids), limbs * terms) float64: column i * terms + m holds
    2**(bits * i) * x**m mod p at each id x, the residue that limb i of
    coefficient m multiplies. Columns [h, 2h) of x**m are columns [0, h)
    times x**h, so terms - 1 multiplies mod p fill a row."""
    x = ids % p
    table = np.empty((len(ids), limbs, terms), dtype=np.int64)
    powers = table[:, 0]
    powers[:, 0] = 1
    h = 1
    while h < terms:
        k = min(h, terms - h)
        x_h = powers[:, h - 1] * x % p
        np.multiply(powers[:, :k], x_h[:, None], out=powers[:, h : h + k])
        np.remainder(powers[:, h : h + k], p, out=powers[:, h : h + k])
        h += k
    for i in range(1, limbs):
        table[:, i] = table[:, i - 1] * (2**bits % p) % p
    return table.reshape(len(ids), limbs * terms).astype(np.float64)


def _generate_share_values(
    secrets: np.ndarray, coeffs: Sequence[np.ndarray], holders: np.ndarray, p: int
) -> np.ndarray:
    """The share table of a batch of holder sets: every set's polynomials
    evaluated at each of its holders.

    secrets is (G, n) and holders (G, s), zero-padded; coeffs holds one
    (n, tau_g) array of residues per set. Set g's polynomial for coordinate
    l is H(x) = secrets[g, l] + sum_m coeffs[g][l, m-1] x^m. Returns (E, n)
    int64 with one row per nonzero holder, in row-major order: row e holds
    H at that holder for every coordinate.

    Evaluation is a float64 matrix product per set, (s, K) powers of its
    holders times its (K, n) coefficient block, run over blocks of sets
    whose temporaries together hold at most _BLOCK_ENTRIES entries. Every
    coefficient, the secret as coefficient 0, is split into limbs of b bits
    (see _limb_split), and limb i of coefficient m meets 2**(b i) x^m mod p
    from a table over the distinct ids, so K = limbs * (1 + max tau_g) and
    one reduction mod p recombines the limbs. Each product is below
    2**b * p and K of them sum to at most 2**53, so every partial sum is an
    exact integer in whatever order BLAS adds. Sets of lower degree leave
    their high coefficients zero, and padded holder slots are evaluated and
    dropped.
    """
    holders = np.asarray(holders, dtype=np.int64)
    secrets = np.asarray(secrets, dtype=np.int64) % p
    n_sets, width = holders.shape
    dim = secrets.shape[1]
    taus = np.array([np.shape(c)[1] for c in coeffs], dtype=np.int64)
    terms = 1 + int(taus.max(initial=0))
    limbs, bits = _limb_split(p, terms)
    span = limbs * terms  # K, the rows of a set's coefficient block
    ids, slots = np.unique(holders.ravel(), return_inverse=True)
    table = _power_table(ids, terms, limbs, bits, p)
    slots = slots.reshape(holders.shape)
    kept = np.flatnonzero(holders)  # flat positions of the real holders
    starts = np.concatenate([[0], np.cumsum(np.count_nonzero(holders, axis=1))])
    # Block row of limb 0 of every coefficient, the sets' columns in turn.
    col_starts = np.concatenate([[0], np.cumsum(taus)])
    coef_rows = np.arange(1, col_starts[-1] + 1) + np.repeat(
        np.arange(n_sets) * span - col_starts[:-1], taus
    )
    out = np.empty((len(kept), dim), dtype=np.int64)
    mask = (1 << bits) - 1
    per_block = max(1, _BLOCK_ENTRIES // max(1, (width + dim) * span + width * dim))
    for a in range(0, n_sets, per_block):
        b = min(a + per_block, n_sets)
        cols = np.concatenate(coeffs[a:b], axis=1).astype(np.int64, copy=False).T
        rows = coef_rows[col_starts[a] : col_starts[b]] - a * span
        block = np.zeros(((b - a) * span, dim))
        for i in range(limbs):
            block[i * terms :: span] = (secrets[a:b] >> (bits * i)) & mask
            block[rows + i * terms] = (cols >> (bits * i)) & mask
        vals = np.matmul(table[slots[a:b]], block.reshape(b - a, span, dim))
        picks = kept[starts[a] : starts[b]] - a * width
        out[starts[a] : starts[b]] = vals.reshape(-1, dim)[picks]
    out %= p
    return out
