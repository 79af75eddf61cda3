"""Exact arithmetic over GF(p) for a public prime modulus p.

Residues are plain Python integers, or int64 arrays, reduced into [0, p),
so every result is exact. PrimeModulus validates p and caps it below
2**31, so a product of two residues stays below 2**62 in int64 and a
residue is exact as a double.

Row reduction (_rref, _reduce_vector) works on int64 arrays and reduces
mod p after every product. It never uses an int64 dot or matmul: those
sum products before reducing and would overflow silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_MODULUS_BITS = 31


class DimensionMismatch(ValueError):
    """Operand dimensions are incompatible."""


def is_prime(n: int) -> bool:
    """Trial-division primality check; adequate for moduli below 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


@dataclass(frozen=True)
class PrimeModulus:
    """A validated public prime p defining GF(p)."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int):
            raise TypeError("modulus must be an integer")
        if self.p.bit_length() > MAX_MODULUS_BITS:
            raise ValueError(
                f"modulus {self.p} exceeds {MAX_MODULUS_BITS} bits; larger "
                "fields are rejected so residues stay exact in 64-bit and "
                "double-precision arithmetic"
            )
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")


def _inverse_int(a: int, p: int) -> int:
    """Extended Euclid; a must be nonzero mod prime p."""
    r0, r1 = p, a % p
    if not r1:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    s0, s1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return s0 % p


def _rref(matrix, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of matrix mod p; returns (rows, pivot cols).

    Gauss-Jordan on an int64 copy, reducing mod p after every product, so
    no intermediate exceeds 2**62 for p < 2**31. The reduced echelon form
    is unique, so the order rows are taken in changes only the work: rows
    go sparsest first, which keeps sparse pivot rows from filling in. Each
    pivot step touches only the rows with a nonzero in the pivot column,
    and in them only the columns from the pivot on (the pivot row is zero
    to its left), narrowed to the pivot row's nonzero columns when those
    are under half of them.
    """
    a = np.asarray(matrix, dtype=np.int64) % p
    a = a[np.argsort(np.count_nonzero(a, axis=1), kind="stable")]
    n_rows, n_cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        below = np.flatnonzero(a[r:, c])
        if not below.size:
            continue
        pr = r + int(below[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r, c:] = a[r, c:] * _inverse_int(int(a[r, c]), p) % p
        hit = np.flatnonzero(a[:, c])
        hit = hit[hit != r]
        if hit.size:
            nonzero = np.flatnonzero(a[r, c:])
            if 2 * nonzero.size < n_cols - c:
                idx = np.ix_(hit, c + nonzero)
            else:
                idx = (hit, slice(c, None))
            block = a[idx]
            block -= a[hit, c, None] * a[r, idx[1]]
            np.remainder(block, p, out=block)
            a[idx] = block
        pivots.append(c)
        r += 1
    return a, pivots


def _reduce_vector(vec, rows: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Reduce vec against RREF rows; zero residual means membership.

    Each row is zero left of its pivot, so only columns from it on change.
    """
    v = np.asarray(vec, dtype=np.int64) % p
    for row, c in zip(rows, pivots):
        f = int(v[c])
        if f:
            v[c:] -= f * row[c:]
            np.remainder(v[c:], p, out=v[c:])
    return v
