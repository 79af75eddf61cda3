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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .field import PrimeModulus, _inverse_int


@dataclass(frozen=True)
class ShareholderSet:
    """Ordered set of distinct positive holder ids (evaluation points)."""

    ids: tuple[int, ...]

    def __post_init__(self):
        ids = tuple(sorted(int(i) for i in self.ids))
        if not ids:
            raise ValueError("holder set must be nonempty")
        if ids[0] <= 0:
            raise ValueError("holder ids must be positive")
        if len(set(ids)) != len(ids):
            raise ValueError("holder ids must be distinct")
        object.__setattr__(self, "ids", ids)


def _check_ids_in_field(ids: Iterable[int], p: int) -> None:
    top = max(ids)
    if top >= p:
        raise ValueError(f"holder id {top} is not a valid point mod {p}")


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


def _row_products(a: np.ndarray, p: int) -> np.ndarray:
    """Product mod p of each row of a 2-D array, multiplying column pairs
    in log2(width) halving steps."""
    while a.shape[1] > 1:
        if a.shape[1] % 2:
            a = np.concatenate([a, np.ones((len(a), 1), dtype=np.int64)], axis=1)
        a = a[:, 0::2] * a[:, 1::2] % p
    return a[:, 0]


def _batch_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of nonzero residues with a single inversion.

    Montgomery's trick: 1/a_j = (product of the other entries) / (product
    of all entries), so only the full product is ever inverted.
    """
    others = _products_of_others(a, p)
    total = int(others[0]) * int(a[0]) % p
    return others * _inverse_int(total, p) % p


def interpolation_weights(
    holders: ShareholderSet, modulus: PrimeModulus
) -> np.ndarray:
    """All interpolation weights of a holder set, as int64 residues aligned
    with holders.ids.

    delta_j = num_j / den_j with num_j = prod_{k != j} x_k and den_j =
    prod_{k != j} (x_k - x_j), both taken as int64 products; the
    denominators are inverted together with one modular inversion. The
    modulus is below 2**31 (PrimeModulus) and ids are below the modulus,
    so every product of two residues stays below 2**62.
    """
    p = modulus.p
    _check_ids_in_field(holders.ids, p)
    x = np.array(holders.ids, dtype=np.int64)
    # diff[j, k] = x_k - x_j, nonzero off the diagonal since ids are
    # distinct residues; the diagonal is set to 1 to drop it from the product.
    diff = (x[None, :] - x[:, None]) % p
    np.fill_diagonal(diff, 1)
    den = _row_products(diff, p)
    return _products_of_others(x, p) * _batch_inverse(den, p) % p


def _draw_coefficients(rng: random.Random, tau: int, p: int) -> list[int]:
    """tau uniform residues c_1..c_tau, in the order the share stream fixes.

    Uniform coefficients are what make any tau shares carry zero
    information about the secret; restricting the top coefficient away
    from zero would skew the share distribution by an s-dependent
    exclusion.
    """
    return [rng.randrange(p) for _ in range(tau)]


def _generate_share_values(
    secrets: np.ndarray, coeffs: np.ndarray, ids: tuple[int, ...], p: int
) -> np.ndarray:
    """Evaluate n polynomials at every holder id; returns (n, |ids|) int64.

    Row l is H_l(x) = secrets[l] + sum_m coeffs[l, m-1] x^m at each id,
    by Horner's rule across all rows and ids at once. Residues and ids
    are below p < 2**31, so acc * x < 2**62 and int64 never overflows.
    """
    x = np.array(ids, dtype=np.int64)
    acc = np.zeros((len(secrets), len(x)), dtype=np.int64)
    for c in np.asarray(coeffs, dtype=np.int64).T[::-1, :, None]:
        acc *= x
        acc += c
        acc %= p
    acc *= x
    acc += np.asarray(secrets, dtype=np.int64)[:, None] % p
    acc %= p
    return acc
