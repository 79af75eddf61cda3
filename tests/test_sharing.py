import itertools
import random

import numpy as np
import pytest

from ppdfl.field import PrimeModulus
from ppdfl.sharing import (
    _generate_share_values,
    BadDegree,
    KeySetMismatch,
    NotMember,
    RawShare,
    ShareholderSet,
    TooFewShares,
    generate_shares,
    interpolation_weights,
    lagrange_delta,
    reconstruct,
    weight_shares,
)

P11 = PrimeModulus(11)


class StubRng:
    """Feeds fixed coefficient draws to share generation."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, *_):
        return self.values.pop(0)


def test_holder_set_validation():
    with pytest.raises(ValueError):
        ShareholderSet(())
    with pytest.raises(ValueError):
        ShareholderSet((0, 1))
    with pytest.raises(ValueError):
        ShareholderSet((1, 1))
    assert ShareholderSet((3, 1, 2)).ids == (1, 2, 3)


def test_delta_singleton_is_empty_product():
    assert lagrange_delta(ShareholderSet((7,)), 7, P11).value == 1


def test_delta_hand_derived_pairs():
    c = ShareholderSet((1, 2))
    assert lagrange_delta(c, 1, P11).value == 2  # 2 * inv(2-1)
    assert lagrange_delta(c, 2, P11).value == 10  # 1 * inv(-1) = inv(10)


def test_delta_hand_derived_triple():
    c = ShareholderSet((1, 2, 3))
    # (2/1)*(3/2) = 2 * 3 * inv(2) = 36 = 3 mod 11
    assert lagrange_delta(c, 1, P11).value == 3


def test_delta_not_member():
    with pytest.raises(NotMember):
        lagrange_delta(ShareholderSet((1, 2)), 3, P11)


def test_delta_interpolates_constant_one():
    # sum of deltas over any set reconstructs the constant polynomial 1
    rng = random.Random(2)
    for _ in range(20):
        ids = tuple(sorted(rng.sample(range(1, 11), rng.randrange(1, 6))))
        weights = interpolation_weights(ShareholderSet(ids), P11)
        assert int(weights.sum()) % 11 == 1


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


def test_generate_shares_hand_polynomial():
    # H(x) = 5 + 3x over GF(11) at points 1, 2, 3
    shares = generate_shares(P11.element(5), 1, ShareholderSet((1, 2, 3)), StubRng([3]))
    assert {j: s.value.value for j, s in shares.items()} == {1: 8, 2: 0, 3: 3}


def test_generate_shares_constant_term_is_secret():
    rng = random.Random(4)
    for _ in range(25):
        p = PrimeModulus(rng.choice([11, 101, 1020431]))
        secret = p.element(rng.randrange(p.p))
        ids = tuple(sorted(rng.sample(range(1, 10), rng.randrange(2, 6))))
        tau = rng.randrange(1, len(ids))
        shares = generate_shares(secret, tau, ShareholderSet(ids), rng)
        # reconstruct from all shares: the polynomial's value at zero
        assert reconstruct(shares, tau, p).value == secret.value


def test_generate_shares_degree_validation():
    holders = ShareholderSet((1, 2, 3))
    with pytest.raises(BadDegree):
        generate_shares(P11.element(1), 3, holders, random.Random(0))
    with pytest.raises(BadDegree):
        generate_shares(P11.element(1), 0, holders, random.Random(0))
    with pytest.raises(BadDegree):
        generate_shares(P11.element(1), -1, holders, random.Random(0))
    # degenerate single holder admits only degree 0
    single = ShareholderSet((1,))
    shares = generate_shares(P11.element(6), 0, single, random.Random(0))
    assert shares[1].value.value == 6


def test_generate_shares_deterministic_per_seed():
    holders = ShareholderSet((1, 2, 5))
    a = generate_shares(P11.element(7), 2, holders, random.Random(99))
    b = generate_shares(P11.element(7), 2, holders, random.Random(99))
    c = generate_shares(P11.element(7), 2, holders, random.Random(100))
    assert {j: s.value.value for j, s in a.items()} == {
        j: s.value.value for j, s in b.items()
    }
    assert {j: s.value.value for j, s in a.items()} != {
        j: s.value.value for j, s in c.items()
    }


def test_weight_shares_zero_stays_zero():
    holders = ShareholderSet((1, 2))
    raw = {j: RawShare(j, P11.element(0)) for j in holders}
    weighted = weight_shares(raw, holders)
    assert all(w.value.value == 0 for w in weighted.values())


def test_weight_shares_hand_values():
    holders = ShareholderSet((1, 2))
    raw = {1: RawShare(1, P11.element(8)), 2: RawShare(2, P11.element(0))}
    weighted = weight_shares(raw, holders)
    assert weighted[1].value.value == 16 % 11 == 5
    assert weighted[2].value.value == 0


def test_weight_shares_key_mismatch():
    holders = ShareholderSet((1, 2))
    with pytest.raises(KeySetMismatch):
        weight_shares({1: RawShare(1, P11.element(8))}, holders)


def test_weighted_share_sum_equals_secret_for_full_degree():
    rng = random.Random(8)
    for _ in range(25):
        ids = tuple(sorted(rng.sample(range(1, 11), rng.randrange(2, 6))))
        holders = ShareholderSet(ids)
        secret = P11.element(rng.randrange(11))
        raw = generate_shares(secret, len(ids) - 1, holders, rng)
        weighted = weight_shares(raw, holders)
        assert sum(w.value.value for w in weighted.values()) % 11 == secret.value


def test_reconstruct_hand_values():
    shares = {1: RawShare(1, P11.element(8)), 2: RawShare(2, P11.element(0)),
              3: RawShare(3, P11.element(3))}
    assert reconstruct({1: shares[1], 2: shares[2]}, 1, P11).value == 5
    # C' = {2,3}: deltas 3 and 9, so 0*3 + 3*9 = 27 = 5 mod 11
    assert reconstruct({2: shares[2], 3: shares[3]}, 1, P11).value == 5
    assert reconstruct(shares, 1, P11).value == 5


def test_reconstruct_too_few():
    with pytest.raises(TooFewShares):
        reconstruct({1: RawShare(1, P11.element(8))}, 1, P11)


def test_reconstruction_exhaustive_over_subsets():
    # every subset of size >= tau+1 recovers the secret
    rng = random.Random(13)
    for _ in range(15):
        ids = tuple(sorted(rng.sample(range(1, 11), rng.randrange(3, 7))))
        holders = ShareholderSet(ids)
        tau = rng.randrange(1, len(ids))
        secret = P11.element(rng.randrange(11))
        shares = generate_shares(secret, tau, holders, rng)
        for size in range(tau + 1, len(ids) + 1):
            for subset in itertools.combinations(ids, size):
                picked = {j: shares[j] for j in subset}
                assert reconstruct(picked, tau, P11).value == secret.value


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
