import itertools
import math
import random

import numpy as np
import pytest

from ppdfl.field import PrimeModulus
from ppdfl.sharing import (
    ShareholderSet,
    _draw_coefficients,
    _generate_share_values,
    interpolation_weights,
)

P11 = PrimeModulus(11)


class StubRng:
    """Feeds fixed coefficient draws to _draw_coefficients."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, *_):
        return self.values.pop(0)


def weights(ids, p=11):
    return interpolation_weights(ShareholderSet(ids), PrimeModulus(p)).tolist()


def share_values(secret, tau, ids, rng, p=11):
    """H(j) at every id for one secret, with tau drawn coefficients."""
    coeffs = _draw_coefficients(rng, tau, p)
    return _generate_share_values([secret], [coeffs], tuple(ids), p)[0].tolist()


def interpolate_at_zero(shares, p=11):
    """sum_j w_j H(j) over the holders in shares, with their own weights."""
    ids = sorted(shares)
    return sum(w * shares[j] for j, w in zip(ids, weights(ids, p))) % p


def test_holder_set_validation():
    with pytest.raises(ValueError):
        ShareholderSet(())
    with pytest.raises(ValueError):
        ShareholderSet((0, 1))
    with pytest.raises(ValueError):
        ShareholderSet((1, 1))
    assert ShareholderSet((3, 1, 2)).ids == (1, 2, 3)


def test_delta_singleton_is_empty_product():
    assert weights((7,)) == [1]


def test_delta_hand_derived_pairs():
    # 2 * inv(2-1) and 1 * inv(-1) = inv(10)
    assert weights((1, 2)) == [2, 10]


def test_delta_hand_derived_triple():
    # (2/1)*(3/2) = 2 * 3 * inv(2) = 36 = 3 mod 11
    assert weights((1, 2, 3)) == [3, 8, 1]


def test_delta_interpolates_constant_one():
    # sum of deltas over any set reconstructs the constant polynomial 1
    rng = random.Random(2)
    for _ in range(20):
        ids = tuple(sorted(rng.sample(range(1, 11), rng.randrange(1, 6))))
        w = interpolation_weights(ShareholderSet(ids), P11)
        assert int(w.sum()) % 11 == 1


def reference_weights(ids, p):
    """Lagrange weights at zero straight from the definition, one
    inversion per factor."""
    out = []
    for j in ids:
        w = 1
        for k in ids:
            if k != j:
                w = w * k * pow(k - j, -1, p) % p
        out.append(w)
    return out


@pytest.mark.parametrize("p", [11, 2**31 - 1])
def test_interpolation_weights_match_definition(p):
    rng = random.Random(p)
    top = min(p - 1, 1000)
    sizes = [1, 1, 2, 3, 5, 8, 10, min(top, 97)]
    sizes += [rng.randrange(1, 11) for _ in range(30)]
    for size in sizes:
        ids = tuple(sorted(rng.sample(range(1, top + 1), size)))
        weights = interpolation_weights(ShareholderSet(ids), PrimeModulus(p))
        assert weights.dtype == np.int64
        assert weights.tolist() == reference_weights(ids, p)


@pytest.mark.parametrize("p", [11, 2**31 - 1])
def test_share_values_match_direct_evaluation(p):
    rng = random.Random(p + 1)
    top = min(p - 1, 1000)
    for _ in range(20):
        ids = tuple(sorted(rng.sample(range(1, top + 1), rng.randrange(1, 10))))
        n, tau = rng.randrange(1, 5), rng.randrange(0, 12)
        secrets = [rng.randrange(p) for _ in range(n)]
        coeffs = [[rng.randrange(p) for _ in range(tau)] for _ in range(n)]
        got = _generate_share_values(secrets, coeffs, ids, p)
        assert got.shape == (n, len(ids))
        expected = [
            [(s + sum(c * x ** (m + 1) for m, c in enumerate(cs))) % p for x in ids]
            for s, cs in zip(secrets, coeffs)
        ]
        assert got.tolist() == expected


def test_share_values_hand_polynomial():
    # H(x) = 5 + 3x over GF(11) at points 1, 2, 3
    assert share_values(5, 1, (1, 2, 3), StubRng([3])) == [8, 0, 3]


def test_share_values_constant_term_is_secret():
    rng = random.Random(4)
    for _ in range(25):
        p = rng.choice([11, 101, 1020431])
        secret = rng.randrange(p)
        ids = tuple(sorted(rng.sample(range(1, 10), rng.randrange(2, 6))))
        tau = rng.randrange(1, len(ids))
        values = share_values(secret, tau, ids, rng, p)
        # interpolate from all shares: the polynomial's value at zero
        assert interpolate_at_zero(dict(zip(ids, values)), p) == secret


def test_share_values_single_holder_is_the_secret():
    # a lone holder gets a degree-0 polynomial: no draws, share == secret
    assert _draw_coefficients(random.Random(0), 0, 11) == []
    assert share_values(6, 0, (1,), random.Random(0)) == [6]
    assert interpolate_at_zero({1: 6}) == 6


def test_draw_coefficients_deterministic_per_seed():
    ids = (1, 2, 5)
    a = _draw_coefficients(random.Random(99), 2, 11)
    b = _draw_coefficients(random.Random(99), 2, 11)
    c = _draw_coefficients(random.Random(100), 2, 11)
    assert a == b
    assert a != c
    assert share_values(7, 2, ids, random.Random(99)) == share_values(
        7, 2, ids, random.Random(99)
    )
    assert share_values(7, 2, ids, random.Random(99)) != share_values(
        7, 2, ids, random.Random(100)
    )


def weighted(raw, ids, p=11):
    """Each raw share times its holder's interpolation weight, as
    execute_round weights them."""
    w = interpolation_weights(ShareholderSet(ids), PrimeModulus(p))
    return (np.asarray(raw, dtype=np.int64) * w % p).tolist()


def test_weighted_shares_zero_stays_zero():
    assert weighted([0, 0], (1, 2)) == [0, 0]


def test_weighted_shares_hand_values():
    assert weighted([8, 0], (1, 2)) == [16 % 11, 0] == [5, 0]


def test_weighted_share_sum_equals_secret_for_full_degree():
    rng = random.Random(8)
    for _ in range(25):
        ids = tuple(sorted(rng.sample(range(1, 11), rng.randrange(2, 6))))
        secret = rng.randrange(11)
        raw = share_values(secret, len(ids) - 1, ids, rng)
        assert sum(weighted(raw, ids)) % 11 == secret


def test_reconstruct_hand_values():
    shares = {1: 8, 2: 0, 3: 3}  # H(x) = 5 + 3x over GF(11)
    # C' = {1,2}: deltas 2 and 10, so 8*2 + 0*10 = 16 = 5 mod 11
    assert weights((1, 2)) == [2, 10]
    assert interpolate_at_zero({1: 8, 2: 0}) == 5
    # C' = {2,3}: deltas 3 and 9, so 0*3 + 3*9 = 27 = 5 mod 11
    assert weights((2, 3)) == [3, 9]
    assert interpolate_at_zero({2: 0, 3: 3}) == 5
    assert interpolate_at_zero(shares) == 5


def test_reconstruct_too_few():
    # tau shares of a degree-tau polynomial interpolate to
    # s - c_tau (-1)^tau prod_j x_j, which misses s unless c_tau == 0
    rng = random.Random(17)
    for _ in range(30):
        ids = tuple(sorted(rng.sample(range(1, 11), rng.randrange(2, 6))))
        tau = rng.randrange(1, len(ids))
        secret = rng.randrange(11)
        coeffs = _draw_coefficients(rng, tau, 11)
        if rng.random() < 0.3:
            coeffs[-1] = 0
        (values,) = _generate_share_values([secret], [coeffs], ids, 11).tolist()
        shares = dict(zip(ids, values))
        for subset in itertools.combinations(ids, tau):
            got = interpolate_at_zero({j: shares[j] for j in subset})
            offset = coeffs[-1] * (-1) ** tau * math.prod(subset)
            assert got == (secret - offset) % 11
            assert (got == secret) == (coeffs[-1] == 0)


def test_reconstruction_exhaustive_over_subsets():
    # every subset of size >= tau+1 recovers the secret
    rng = random.Random(13)
    for _ in range(15):
        ids = tuple(sorted(rng.sample(range(1, 11), rng.randrange(3, 7))))
        tau = rng.randrange(1, len(ids))
        secret = rng.randrange(11)
        shares = dict(zip(ids, share_values(secret, tau, ids, rng)))
        for size in range(tau + 1, len(ids) + 1):
            for subset in itertools.combinations(ids, size):
                assert interpolate_at_zero({j: shares[j] for j in subset}) == secret


def enumerate_share_distribution(secret, tau, holders, points):
    """Oracle: exact joint distribution of the shares at the given points,
    by enumerating every coefficient vector of the scheme."""
    counts = {}
    p = 11
    for coeffs in itertools.product(range(p), repeat=tau):
        values = tuple(
            (secret + sum(c * pow(x, m + 1, p) for m, c in enumerate(coeffs))) % p
            for x in points
        )
        counts[values] = counts.get(values, 0) + 1
    return counts


@pytest.mark.parametrize("tau", [1, 2])
def test_perfect_secrecy_by_enumeration(tau):
    """Any tau shares have a secret-independent joint distribution (exact)."""
    holders = ShareholderSet((1, 2, 3))
    for points in itertools.combinations(holders.ids, tau):
        baseline = enumerate_share_distribution(0, tau, holders, points)
        for secret in range(1, 11):
            dist = enumerate_share_distribution(secret, tau, holders, points)
            tv = sum(
                abs(dist.get(k, 0) - baseline.get(k, 0))
                for k in set(dist) | set(baseline)
            )
            assert tv == 0
