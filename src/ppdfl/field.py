"""Exact arithmetic over GF(p) for a public prime modulus p.

Residues are plain Python integers, or int64 arrays, reduced into [0, p),
so every result is exact. PrimeModulus validates p and caps it below
2**31, so a product of two residues stays below 2**62 in int64 and a
residue is exact as a double.

Row reduction (_rref, _reduce_vector) works on int64 arrays, with
_reduce_vector's pivot rows given sparse, and reduces mod p after every
product. It never uses an int64 dot or matmul: those sum products before
reducing and would overflow silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_MODULUS_BITS = 31


class DimensionMismatch(ValueError):
    """Operand dimensions are incompatible."""


# The first 12 primes. As Miller-Rabin bases they decide primality exactly
# for every n below psi_12 = 318665857834031151167461, about 3.2 * 10**23
# (Sorenson and Webster, 2017); is_prime refuses larger n.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test: with n - 1 = d * 2**s and d odd, n
    is prime unless some base a has a**d != 1 and a**(d * 2**r) != -1 mod n
    for every r < s. ValueError for n at or above _EXACT_BELOW."""
    if n >= _EXACT_BELOW:
        raise ValueError(f"{n} is too large for a deterministic primality test")
    if n < 2:
        return False
    if n in _WITNESSES:
        return True
    if any(n % a == 0 for a in _WITNESSES):
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # twos in n - 1
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


def _leading(rows: np.ndarray, offset: int, empty: int) -> np.ndarray:
    """offset plus the column of each row's first nonzero; empty for a zero row."""
    nonzero = rows != 0
    first = nonzero.argmax(axis=1) if rows.shape[1] else 0
    return np.where(nonzero.any(axis=1), offset + first, empty)


def _rref(matrix, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of matrix mod p; returns (rows, pivot cols).

    Gauss-Jordan on an int64 copy, reducing mod p after every product, so
    no intermediate exceeds 2**62 for p < 2**31. The reduced echelon form
    is unique, so the order rows are taken in changes only the work: rows
    go sparsest first, which keeps sparse pivot rows from filling in. The
    rows not yet pivoted are zero left of the last pivot column, so the
    next pivot column is the leftmost leading nonzero among them, and only
    pivot columns are visited. Each pivot step touches only the rows with
    a nonzero in the pivot column, and in them only the columns from the
    pivot on (the pivot row is zero to its left), narrowed to the pivot
    row's nonzero columns when those are under half of them.
    """
    a = np.asarray(matrix, dtype=np.int64)
    a = a[np.argsort(np.count_nonzero(a, axis=1), kind="stable")]
    np.remainder(a, p, out=a)
    n_rows, n_cols = a.shape
    lead = _leading(a, 0, n_cols)
    pivots: list[int] = []
    for r in range(n_rows):
        pr = r + int(np.argmin(lead[r:]))
        c = int(lead[pr])
        if c == n_cols:
            break
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            lead[[r, pr]] = lead[[pr, r]]
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
            below = hit[hit > r]
            lead[below] = _leading(a[below, c + 1:], c + 1, n_cols)
        pivots.append(c)
    return a, pivots


def _reduce_vector(vec, rows, pivots: list[int], p: int) -> np.ndarray:
    """Reduce vec against RREF pivot rows; zero residual means membership.

    Each row comes sparse, as (its nonzero columns, their values), so only
    those entries of vec change.
    """
    v = np.asarray(vec, dtype=np.int64) % p
    for (cols, vals), c in zip(rows, pivots):
        f = int(v[c])
        if f:
            v[cols] = (v[cols] - f * vals) % p
    return v
