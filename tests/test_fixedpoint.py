import math
import random

import numpy as np
import pytest

from ppdfl.fixedpoint import (
    OutOfRange,
    Precision,
    check_p_bound,
    decode_residues,
    encode_fixed,
    scaled_trunc,
    scaled_trunc_array,
    signed_residue,
)

P = 1020431
S2 = Precision(2)


def test_precision_validation():
    with pytest.raises(ValueError):
        Precision(-1)
    assert Precision(0).scale == 1
    assert Precision(4).scale == 10_000
    # The array codecs scale by float(10**sigma), finite up to sigma 308.
    assert float(Precision(308).scale) == 1e308
    for sigma in (309, 400):
        with pytest.raises(ValueError, match=f"sigma={sigma}, above 308"):
            Precision(sigma)


def test_encode_truncates_extra_digits():
    assert encode_fixed(1.239, S2, P) == 123


def test_encode_negative_wraps():
    assert encode_fixed(-0.5, S2, P) == 1020431 - 50 == 1020381


def test_encode_zero():
    assert encode_fixed(0.0, S2, P) == 0
    assert encode_fixed(0.0, Precision(0), 11) == 0


def test_encode_guard_digit():
    # 1.23 * 100 is 122.99999999999999 in binary floating point
    assert scaled_trunc(1.23, S2) == 123
    assert scaled_trunc(-1.23, S2) == -123
    assert scaled_trunc(1.239, S2) == 123
    assert scaled_trunc(-0.375, S2) == -37  # toward zero, not floor


def test_encode_out_of_range():
    with pytest.raises(OutOfRange):
        encode_fixed(5200.0, S2, P)  # 520000 > (p-1)/2 = 510215


def test_decode_examples():
    assert decode_residues(123, S2, P) == 1.23
    assert decode_residues(1020381, S2, P) == -0.50
    # boundary (p-1)/2 stays non-negative
    assert decode_residues(510215, S2, P) == 5102.15
    assert decode_residues([123, 1020381, 510215], S2, P).tolist() == [
        1.23, -0.50, 5102.15
    ]


def test_roundtrip_exact_at_sigma_digits():
    rng = random.Random(21)
    for _ in range(200):
        sigma = rng.randrange(0, 5)
        prec = Precision(sigma)
        bound = (P - 1) // (2 * prec.scale)
        scaled = rng.randrange(-bound, bound + 1)
        x = scaled / prec.scale  # exactly sigma fraction digits
        assert decode_residues(encode_fixed(x, prec, P), prec, P) == x


def test_sign_mapping():
    rng = random.Random(22)
    for _ in range(100):
        scaled = rng.randrange(1, (P - 1) // 2)
        neg = encode_fixed(-scaled / 100, S2, P)
        assert neg > (P - 1) // 2
        assert decode_residues(neg, S2, P) == -scaled / 100
        assert signed_residue(neg, P) == -scaled


def test_modular_sum_homomorphism_brute_force():
    # decode(sum of encodings) equals the sum of truncations whenever the
    # scaled total stays in the signed half-range
    rng = random.Random(23)
    for _ in range(100):
        xs = [rng.uniform(-50, 50) for _ in range(rng.randrange(1, 8))]
        truncated = [scaled_trunc(x, S2) for x in xs]
        total = sum(truncated)
        assert abs(total) <= (P - 1) // 2
        acc = 0
        for x in xs:
            acc = (acc + encode_fixed(x, S2, P)) % P
        assert decode_residues(acc, S2, P) == total / 100


def test_p_bound_reference_point():
    ok, admissible = check_p_bound(P, 100, S2, 51.02)
    assert ok
    assert abs(admissible - 51.0215) < 1e-9


def test_p_bound_rejects_small_modulus():
    ok, _ = check_p_bound(5, 100, S2, 0.0)
    assert not ok


def test_p_bound_theta_threshold():
    ok_lo, _ = check_p_bound(P, 100, S2, 51.02)
    ok_hi, _ = check_p_bound(P, 100, S2, 51.03)
    assert ok_lo and not ok_hi


def scalar_rule(x, prec):
    """trunc toward zero after snapping to an integer within 1e-6, one
    Python float at a time."""
    scaled = x * prec.scale
    nearest = round(scaled)
    return int(nearest) if abs(scaled - nearest) < 1e-6 else math.trunc(scaled)


@pytest.mark.parametrize("sigma", [0, 2, 4])
def test_scaled_trunc_array_matches_scalar_rule(sigma):
    prec = Precision(sigma)
    rng = random.Random(sigma)
    xs = [1.23, -1.23, -0.375, 0.375, 1.005, -1.005, 2.675, 0.125, 0.0, -0.0,
          50.0, -50.0, 51.02, -51.02, 0.999999, 1e-9, -1e-9]
    # Weighted coordinates w * theta with w = 1/N, as the share phase forms them.
    for n in (3, 7, 100, 1000):
        xs += [theta / n for theta in (50.0, -50.0, 1.23, -0.375, 12.345)]
    # Just inside and outside the snap distance of an integer.
    xs += [(k + d) / prec.scale
           for k in (-3, 0, 7) for d in (9e-7, 1.1e-6, -9e-7, -1.1e-6)]
    xs += [rng.uniform(-50, 50) for _ in range(500)]
    xs += [round(rng.uniform(-50, 50), sigma + 1) for _ in range(500)]
    got = scaled_trunc_array(np.array(xs).reshape(-1, 1), prec)
    assert got.dtype == np.int64 and got.shape == (len(xs), 1)
    assert got[:, 0].tolist() == [scalar_rule(x, prec) for x in xs]
    assert got[:, 0].tolist() == [scaled_trunc(x, prec) for x in xs]
