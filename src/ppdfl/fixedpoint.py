"""Signed fixed-point transport into and out of GF(p).

A real x is carried as trunc(10**sigma * x) mod p; residues in the upper
half of [0, p) stand for negatives. Decoding is exact at sigma fraction
digits as long as the scaled magnitude stays within (p-1)/2, which is what
the modulus bound check below guarantees for aggregated models.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# Scaled values within this distance of an integer are snapped to it, so
# sigma-digit decimals encode exactly despite binary float representation
# (e.g. 1.23 * 100 == 122.99999999999999).
_INTEGER_SNAP = 1e-6


class OutOfRange(ValueError):
    """Magnitude too large to encode with a decodable sign."""


@dataclass(frozen=True)
class Precision:
    """Count of retained fraction digits; 10**sigma must be a finite float,
    as the array codecs scale by float(10**sigma)."""

    sigma: int

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma={self.sigma}, below 0")
        if self.sigma > sys.float_info.max_10_exp:
            raise ValueError(f"sigma={self.sigma}, above {sys.float_info.max_10_exp}: "
                             "10**sigma is not a finite float")

    @property
    def scale(self) -> int:
        return 10**self.sigma


def scaled_trunc(x: float, prec: Precision) -> int:
    """trunc(scale * x) toward zero, with an integer snap guard digit."""
    scaled = x * prec.scale
    nearest = round(scaled)
    if abs(scaled - nearest) < _INTEGER_SNAP:
        return int(nearest)
    return math.trunc(scaled)


def scaled_trunc_array(x: np.ndarray, prec: Precision) -> np.ndarray:
    """scaled_trunc of every entry of a finite float array, as int64.

    float(scale) is the float Python multiplies by in scaled_trunc, and
    np.rint rounds ties to even like round(), so each entry snaps and
    truncates exactly as the scalar rule does.
    """
    scaled = np.asarray(x, dtype=float) * float(prec.scale)
    nearest = np.rint(scaled)
    snapped = np.abs(scaled - nearest) < _INTEGER_SNAP
    return np.where(snapped, nearest, np.trunc(scaled)).astype(np.int64)


def encode_fixed(x: float, prec: Precision, p: int) -> int:
    """Encode a signed real as a residue; rejects magnitudes past (p-1)/2."""
    scaled = scaled_trunc(x, prec)
    if abs(scaled) > (p - 1) // 2:
        raise OutOfRange(
            f"|{x}| at {prec.sigma} digits does not fit the signed range of "
            f"modulus {p}"
        )
    return scaled % p


def signed_residue(z: int, p: int) -> int:
    """Map a residue in [0, p) to its signed representative."""
    return z if z <= (p - 1) // 2 else z - p


def decode_residues(z: np.ndarray, prec: Precision, p: int) -> np.ndarray:
    """Inverse of encode_fixed on the decodable range, for a residue or an
    array of residues."""
    z = np.asarray(z, dtype=np.int64)
    signed = np.where(z > (p - 1) // 2, z - p, z)
    return signed / prec.scale


def check_p_bound(
    p: int,
    n_parties: int,
    prec: Precision,
    theta_max: float,
) -> tuple[bool, float]:
    """Decide whether the modulus supports n_parties models of size theta_max.

    The modulus must exceed both the party count and 1 + 2*scale*N*theta_max
    so that every aggregate stays inside the signed-decodable half-range.
    Returns (verdict, largest admissible coordinate magnitude).
    """
    if theta_max < 0:
        raise ValueError("theta_max must be non-negative")
    max_admissible = (p - 1) / (2 * prec.scale * n_parties)
    ok = p > n_parties and theta_max < max_admissible
    return ok, max_admissible
