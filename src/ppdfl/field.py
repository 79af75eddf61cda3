"""Exact arithmetic over GF(p) for a public prime modulus p.

Residues are plain Python integers, or int64 arrays, reduced into [0, p),
so every result is exact. PrimeModulus validates p and caps it below
2**31, so a product of two residues stays below 2**62 in int64 and a
residue is exact as a double.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """In-place-style reduced row echelon form; returns (rows, pivot cols)."""
    rows = [list(r) for r in rows]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = _inverse_int(rows[r][c], p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        lead = rows[r]
        for i in range(n_rows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def _reduce_vector(
    vec: list[int], rows: list[list[int]], pivots: list[int], p: int
) -> list[int]:
    """Reduce vec against RREF rows; zero residual means membership."""
    v = [x % p for x in vec]
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v
