import itertools
import math
import random

import numpy as np
import pytest

from ppdfl import sharing
from ppdfl.sharing import (
    _coefficient_streams,
    _generate_share_values,
    interpolation_weights,
)
from ppdfl.topology import generate_topology, holder_sets


def weights(ids, p=11):
    return interpolation_weights(np.array(ids), p).tolist()


def set_coefficients(gen, n, tau, p):
    """(n, tau) coefficients of one set, on a Philox key the numpy
    Generator gen supplies."""
    return _coefficient_streams(gen.bit_generator.random_raw(2), [tau], n, p)


def share_values(secret, tau, ids, gen, p=11):
    """H(j) at every id for one secret, with tau coefficients drawn on a
    key from the numpy Generator gen."""
    coeffs = set_coefficients(gen, 1, tau, p)
    return _generate_share_values([[secret]], coeffs, [tau], [ids], p)[:, 0].tolist()


def interpolate_at_zero(shares, p=11):
    """sum_j w_j H(j) over the holders in shares, with their own weights."""
    ids = sorted(shares)
    return sum(w * shares[j] for j, w in zip(ids, weights(ids, p))) % p


def test_holder_set_validation():
    with pytest.raises(ValueError):
        weights((1, 1))
    with pytest.raises(ValueError):
        weights((-1, 2))
    with pytest.raises(ValueError):
        weights((3, 11))
    # A repeated id in a set holding most of the batch's ids, which is
    # weighted through its complement.
    with pytest.raises(ValueError):
        interpolation_weights(np.array([[1, 2, 3, 3], [4, 0, 0, 0]]), 11)
    # Zeros are padding, and a set's slot order does not matter.
    assert weights((0, 1, 2, 0)) == [0] + weights((1, 2)) + [0]
    assert weights((3, 1, 2)) == [1, 3, 8]


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
        assert sum(weights(ids)) % 11 == 1


def reference_weights(ids, p):
    """Lagrange weights at zero straight from the definition, one
    inversion per holder."""
    out = []
    for j in ids:
        num = den = 1
        for k in ids:
            if k != j:
                num, den = num * k % p, den * (k - j) % p
        out.append(num * pow(den, -1, p) % p)
    return out


def padded(sets):
    """The sets as rows of one int64 batch, zero-padded to the widest."""
    out = np.zeros((len(sets), max(map(len, sets))), dtype=np.int64)
    for row, ids in zip(out, sets):
        row[: len(ids)] = ids
    return out


def graph_holder_sets(p):
    """Closed neighbourhoods of random, star, complete and line graphs, on
    as many nodes as fit below p, up to 200."""
    for n in sorted({3, 7, min(p - 1, 60), min(p - 1, 200)}):
        for kind, extra in (("random_connected", {"avg_degree": min(4.0, n - 1)}),
                            ("star", {}), ("complete", {}), ("line", {})):
            yield holder_sets(generate_topology(kind, n, seed=n, **extra))


@pytest.mark.parametrize("p", [11, 1020431, 2**31 - 1])
def test_interpolation_weights_match_definition(p):
    rng = random.Random(p)
    top = min(p - 1, 1000)
    sizes = [1, 1, 2, 3, 5, 8, 10, min(top, 97)]
    sizes += [rng.randrange(1, 11) for _ in range(30)]
    sets = [rng.sample(range(1, top + 1), size) for size in sizes]
    batches = [padded(sets), *graph_holder_sets(p)]
    if p > 2**30:
        # ids near p give factors near p: the least room for lazy reduction
        batches.append(padded([[p - 1, p - 2, 1, 2], [p - 1], [p - 3, p - 5]]))
        # Sets holding more than half of eight scattered ids near p, in any
        # order and with padding between, beside sets holding fewer.
        far = [p - 1, p - 3, p - 8, p - 1000, 7, 12345, 2**30 + 1, 99]
        batches.append(padded([far, far[:5], far[3:], [far[6], far[1], far[0], far[4], far[2]],
                               far[::2], [far[7], far[2]], [far[5]]]))
        batches.append(np.array([[far[0], 0, far[1], far[2], 0, far[3], far[4]],
                                 [0, 0, far[5], far[6], far[7], 0, 0]]))
    for batch in batches:
        got = interpolation_weights(batch, p)
        assert got.dtype == np.int64 and got.shape == batch.shape
        # Each distinct set once: a complete graph repeats one set N times.
        rows = {tuple(ids): row for row, ids in zip(got.tolist(), batch.tolist())}
        for ids, row in rows.items():
            kept = [x for x in ids if x]
            assert [w for w, x in zip(row, ids) if x] == reference_weights(kept, p)
            assert all(w == 0 for w, x in zip(row, ids) if not x)


@pytest.mark.parametrize("p", [11, 1020431, 2**31 - 1])
def test_share_values_match_direct_evaluation(p, monkeypatch):
    # Batches of zero-padded holder sets whose polynomials differ in degree,
    # run whole and in blocks of a few sets, against Python-int evaluation
    # at every holder; padded columns are dropped.
    rng = random.Random(p + 1)
    top = min(p - 1, 1000)
    for trial in range(20):
        sets = [rng.sample(range(1, top + 1), rng.randrange(1, 10))
                for _ in range(rng.randrange(1, 6))]
        if p > 2**30:
            sets.append([p - 1, p - 2])
        ids = padded(sets)
        if trial % 4 == 0:  # padding need not trail
            ids = ids[:, ::-1].copy()
        n, tau = rng.randrange(1, 5), rng.randrange(0, 12)
        secrets = [[rng.randrange(p) for _ in range(n)] for _ in sets]
        coeffs = [[[rng.randrange(p) for _ in range(max(0, tau - k))]
                   for _ in range(n)] for k in range(len(sets))]
        assert_direct_evaluation(secrets, coeffs, ids, p, monkeypatch)
    # Closed neighbourhoods of whole graphs: complete graphs and small
    # stars are evaluated at all ids, sparse graphs at their own holders,
    # and blocks of one set mix the two.
    for ids in graph_holder_sets(p):
        sizes = np.count_nonzero(ids, axis=1).tolist()
        secrets = [[rng.randrange(p) for _ in range(2)] for _ in sizes]
        coeffs = [[[rng.randrange(p) for _ in range(min(size - 1, 6))] for _ in range(2)]
                  for size in sizes]
        assert_direct_evaluation(secrets, coeffs, ids, p, monkeypatch)


def direct_shares(secrets, coeffs, ids, p):
    """Oracle: every set's polynomials at each of its nonzero ids, in Python
    ints, one row per holder in row-major order."""
    return [
        [(s + sum(c * x ** (m + 1) for m, c in enumerate(cs))) % p
         for s, cs in zip(ss, css)]
        for ss, css, xs in zip(secrets, coeffs, np.asarray(ids).tolist()) for x in xs if x
    ]


def flat(coeffs, n):
    """Per-set (n, tau_g) coefficient lists as the (n, sum tau_g) matrix
    and the taus that _generate_share_values takes."""
    taus = [np.shape(c)[1] for c in coeffs]
    blocks = [np.asarray(c, dtype=np.int64).reshape(n, t) for c, t in zip(coeffs, taus)]
    return np.concatenate(blocks, axis=1), taus


def assert_direct_evaluation(secrets, coeffs, ids, p, monkeypatch):
    """The share table equals the oracle's with the default block size, in
    blocks of one set, in blocks of about three sets, and in one block."""
    expected = direct_shares(secrets, coeffs, ids, p)
    width = np.shape(ids)[1]
    n = len(secrets[0])
    matrix, taus = flat(coeffs, n)
    terms = 1 + max(taus)
    span = sharing._limb_split(p, terms)[0] * terms
    few = 3 * ((width + n) * span + width * n)
    for block in (sharing._BLOCK_ENTRIES, 1, few, 2**62):
        monkeypatch.setattr(sharing, "_BLOCK_ENTRIES", block)
        got = _generate_share_values(secrets, matrix, taus, ids, p)
        assert got.dtype == np.int64 and got.shape == (len(expected), n)
        assert got.tolist() == expected


def test_limb_split_keeps_every_sum_exact():
    # limbs * terms products of a limb below 2**bits and a residue sum to at
    # most 2**53, the limbs cover every residue, and one limb fewer would
    # not do.
    for p in (2, 3, 11, 16007, 1020431, 2**31 - 1):
        top = (p - 1).bit_length()
        for terms in [*range(1, 70), 99, 100, 101, 682, 683, 684, 4096, 10**5]:
            limbs, bits = sharing._limb_split(p, terms)
            assert limbs * bits >= top
            assert limbs * terms * (2**bits - 1) * (p - 1) <= 2**53
            if limbs > 1:
                fewer = -(-top // (limbs - 1))
                assert (limbs - 1) * terms * (2**fewer - 1) * (p - 1) > 2**53
    assert sharing._limb_split(1020431, 100) == (1, 20)
    assert sharing._limb_split(2**31 - 1, 16) == (2, 16)
    with pytest.raises(ValueError):
        sharing._limb_split(2**31 - 1, 10**6)


@pytest.mark.parametrize("terms", [2, 4, 8, 16, 17, 31, 32, 33, 34, 64, 65, 683, 684])
def test_share_values_exact_at_31_bits(terms, monkeypatch):
    # p = 2**31 - 1 with ids and coefficients up to p - 1, the largest
    # products the float64 sums meet, at term counts on both sides of each
    # change of the limb split and of each power of two.
    p = 2**31 - 1
    splits = [sharing._limb_split(p, t) for t in range(1, 700)]
    assert [t for t in range(2, 700) if splits[t - 1] != splits[t - 2]] == [33, 684]
    rng = random.Random(terms)
    sets = [[p - 1, 1, p - 2], [rng.randrange(1, p) for _ in range(5)], [p - 1], [2, p - 3]]
    secrets = [[p - 1, rng.randrange(p)] for _ in sets]
    # Set k has degree terms - 1 - k (at least 0), with coordinate 0's
    # coefficients all p - 1.
    taus = [max(0, terms - 1 - k) for k in range(len(sets))]
    coeffs = [[[p - 1] * tau, [rng.randrange(p) for _ in range(tau)]] for tau in taus]
    assert_direct_evaluation(secrets, coeffs, padded(sets), p, monkeypatch)


def test_share_values_exact_with_one_limb(monkeypatch):
    # p = 1020431 with 100 terms, a dense_ref holder set's size: one limb of
    # 20 bits, so each coefficient meets the powers whole.
    p = 1020431
    assert sharing._limb_split(p, 100)[0] == 1
    rng = random.Random(100)
    sets = [rng.sample(range(1, p), 100), rng.sample(range(1, p), 57), [p - 1, p - 2]]
    ids = padded(sets)
    secrets = [[rng.randrange(p) for _ in range(3)] for _ in sets]
    coeffs = [[[p - 1] * 99, [rng.randrange(p) for _ in range(99)], [0] * 98 + [p - 1]],
              [[rng.randrange(p) for _ in range(56)] for _ in range(3)],
              [[rng.randrange(p)] for _ in range(3)]]
    assert_direct_evaluation(secrets, coeffs, ids, p, monkeypatch)


@pytest.mark.parametrize("p", [11, 2**31 - 1])
def test_share_values_degree_zero_width_one_and_inner_padding(p, monkeypatch):
    rng = random.Random(p + 2)
    top = min(p - 1, 1000)
    # Degree-0 sets only: every share is its set's secret.
    ids = padded([[1, 2, 3], [4], [5, 6]])
    secrets = [[rng.randrange(p) for _ in range(2)] for _ in range(3)]
    coeffs = [np.zeros((2, 0), dtype=np.int64)] * 3
    assert_direct_evaluation(secrets, coeffs, ids, p, monkeypatch)
    assert _generate_share_values(secrets, *flat(coeffs, 2), ids, p).tolist() == [
        secrets[0]] * 3 + [secrets[1]] + [secrets[2]] * 2
    # Width 1: each set is a single holder, of any degree.
    ids = np.array([[rng.randrange(1, top + 1)] for _ in range(4)])
    coeffs = [[[rng.randrange(p) for _ in range(k)]] for k in (0, 1, 5, 9)]
    secrets = [[rng.randrange(p)] for _ in range(4)]
    assert_direct_evaluation(secrets, coeffs, ids, p, monkeypatch)
    # Padding between and before holders, and a set of padding only.
    ids = np.array([[0, 3, 0, 7], [5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 9]])
    coeffs = [[[rng.randrange(p) for _ in range(k)] for _ in range(3)] for k in (1, 3, 0, 2)]
    secrets = [[rng.randrange(p) for _ in range(3)] for _ in range(4)]
    assert_direct_evaluation(secrets, coeffs, ids, p, monkeypatch)


def test_share_values_hand_polynomial():
    # H(x) = 5 + 3x over GF(11) at points 1, 2, 3
    got = _generate_share_values([[5]], [[3]], [1], [[1, 2, 3]], 11)
    assert got.tolist() == [[8], [0], [3]]


def test_share_values_constant_term_is_secret():
    rng = random.Random(4)
    gen = np.random.default_rng(4)
    for _ in range(25):
        p = rng.choice([11, 101, 1020431])
        secret = rng.randrange(p)
        ids = tuple(sorted(rng.sample(range(1, 10), rng.randrange(2, 6))))
        tau = rng.randrange(1, len(ids))
        values = share_values(secret, tau, ids, gen, p)
        # interpolate from all shares: the polynomial's value at zero
        assert interpolate_at_zero(dict(zip(ids, values)), p) == secret


def test_share_values_single_holder_is_the_secret():
    # a lone holder gets a degree-0 polynomial: no draws, share == secret
    assert set_coefficients(np.random.default_rng(0), 1, 0, 11).shape == (1, 0)
    assert share_values(6, 0, (1,), np.random.default_rng(0)) == [6]
    assert interpolate_at_zero({1: 6}) == 6


def test_draw_coefficients_deterministic_per_seed():
    ids = (1, 2, 5)

    def draw(seed):
        return set_coefficients(np.random.default_rng(seed), 3, 2, 11)

    assert draw(99).shape == (3, 2) and draw(99).dtype == np.int64
    assert np.array_equal(draw(99), draw(99))
    assert not np.array_equal(draw(99), draw(100))
    assert share_values(7, 2, ids, np.random.default_rng(99)) == share_values(
        7, 2, ids, np.random.default_rng(99)
    )
    assert share_values(7, 2, ids, np.random.default_rng(99)) != share_values(
        7, 2, ids, np.random.default_rng(100)
    )


KEY = np.array([0x0123456789ABCDEF, 0xFEDCBA9876543210], dtype=np.uint64)


def philox_block(key, counter):
    """The Philox4x64-10 block of a counter (four 64-bit words, word 0
    lowest) under key, from a fresh np.random.Philox. numpy adds one to
    its counter before each block, so it starts one below, borrowing from
    the higher words when word 0 is 0."""
    value = sum(w << (64 * k) for k, w in enumerate(counter)) - 1
    below = [(value % 2**256 >> (64 * k)) % 2**64 for k in range(4)]
    gen = np.random.Philox(key=key, counter=np.array(below, dtype=np.uint64))
    return gen.random_raw(4).tolist()


def reference_stream(key, i, count, p):
    """The first count kept values of set i's stream, one candidate at a
    time: block j on counter (j, i, 0, 0), the low then the high half of
    each word, masked to bitlength(p - 1) bits and kept below p."""
    mask = (1 << (p - 1).bit_length()) - 1
    out, j = [], 0
    while len(out) < count:
        block = philox_block(key, [j, i, 0, 0])
        halves = [h & mask for word in block for h in (word & 0xFFFFFFFF, word >> 32)]
        out += [h for h in halves if h < p]
        j += 1
    return out[:count]


@pytest.mark.parametrize("p", [2, 17, 1020431, 2**31 - 1])
def test_coefficient_streams_follow_the_counter_layout(p, monkeypatch):
    taus, n = [3, 0, 7, 1, 12], 4
    got = _coefficient_streams(KEY, taus, n, p)
    assert got.dtype == np.int64 and got.shape == (n, sum(taus))
    start = 0
    for i, tau in enumerate(taus, start=1):
        want = np.array(reference_stream(KEY, i, n * tau, p), dtype=np.int64)
        assert got[:, start : start + tau].tolist() == want.reshape(n, tau).tolist()
        start += tau
    # Sets that fall short of their first estimate go on drawing: one
    # block at a time gives the same values.
    monkeypatch.setattr(sharing, "_stream_blocks", lambda need, accept: np.ones_like(need))
    assert np.array_equal(_coefficient_streams(KEY, taus, n, p), got)


def test_coefficient_streams_depend_on_own_set_only():
    p = 1020431
    full = _coefficient_streams(KEY, [3, 5, 2], 4, p)
    assert np.array_equal(_coefficient_streams(KEY, [9, 5], 4, p)[:, 9:], full[:, 3:8])
    assert np.array_equal(_coefficient_streams(KEY, [3], 4, p), full[:, :3])
    assert _coefficient_streams(KEY, [], 4, p).shape == (4, 0)
    other = np.array([KEY[0], KEY[1] + np.uint64(1)], dtype=np.uint64)
    assert not np.array_equal(_coefficient_streams(other, [3, 5, 2], 4, p), full)


@pytest.mark.parametrize("p, bins", [(17, 17), (2**31 - 1, 64)])
def test_coefficient_streams_are_uniform(p, bins):
    # Rejection keeps every residue exactly equally likely, also at p = 17,
    # where about 47% of the 5-bit candidates are rejected. chi^2 over bins
    # of equal mass (to within one residue) at fixed keys, so the test is
    # deterministic; the bound is the mean plus six standard deviations.
    counts = np.zeros(bins)
    for k in range(4):
        key = np.array([k, 99], dtype=np.uint64)
        values = _coefficient_streams(key, [250] * 50, 2, p).ravel()
        counts += np.bincount(values * bins // p, minlength=bins)
    expected = counts.sum() * np.diff(np.ceil(np.arange(bins + 1) * p / bins)) / p
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < bins - 1 + 6 * np.sqrt(2 * (bins - 1))


def weighted(raw, ids, p=11):
    """Each raw share times its holder's interpolation weight, as
    execute_round weights them."""
    w = interpolation_weights(np.array(ids), p)
    return (np.asarray(raw, dtype=np.int64) * w % p).tolist()


def test_weighted_shares_zero_stays_zero():
    assert weighted([0, 0], (1, 2)) == [0, 0]


def test_weighted_shares_hand_values():
    assert weighted([8, 0], (1, 2)) == [16 % 11, 0] == [5, 0]


def test_weighted_share_sum_equals_secret_for_full_degree():
    rng = random.Random(8)
    gen = np.random.default_rng(8)
    for _ in range(25):
        ids = tuple(sorted(rng.sample(range(1, 11), rng.randrange(2, 6))))
        secret = rng.randrange(11)
        raw = share_values(secret, len(ids) - 1, ids, gen)
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
    gen = np.random.default_rng(17)
    for _ in range(30):
        ids = tuple(sorted(rng.sample(range(1, 11), rng.randrange(2, 6))))
        tau = rng.randrange(1, len(ids))
        secret = rng.randrange(11)
        (coeffs,) = set_coefficients(gen, 1, tau, 11).tolist()
        if rng.random() < 0.3:
            coeffs[-1] = 0
        values = _generate_share_values([[secret]], [coeffs], [tau], [ids], 11)[:, 0]
        values = values.tolist()
        shares = dict(zip(ids, values))
        for subset in itertools.combinations(ids, tau):
            got = interpolate_at_zero({j: shares[j] for j in subset})
            offset = coeffs[-1] * (-1) ** tau * math.prod(subset)
            assert got == (secret - offset) % 11
            assert (got == secret) == (coeffs[-1] == 0)


def test_reconstruction_exhaustive_over_subsets():
    # every subset of size >= tau+1 recovers the secret
    rng = random.Random(13)
    gen = np.random.default_rng(13)
    for _ in range(15):
        ids = tuple(sorted(rng.sample(range(1, 11), rng.randrange(3, 7))))
        tau = rng.randrange(1, len(ids))
        secret = rng.randrange(11)
        shares = dict(zip(ids, share_values(secret, tau, ids, gen)))
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
    holders = (1, 2, 3)
    for points in itertools.combinations(holders, tau):
        baseline = enumerate_share_distribution(0, tau, holders, points)
        for secret in range(1, 11):
            dist = enumerate_share_distribution(secret, tau, holders, points)
            tv = sum(
                abs(dist.get(k, 0) - baseline.get(k, 0))
                for k in set(dist) | set(baseline)
            )
            assert tv == 0
