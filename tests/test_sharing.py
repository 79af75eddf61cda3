import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from ppdfl import sharing
from ppdfl.sharing import (
    _generate_share_values,
    _share_streams,
    interpolation_weights,
)
from ppdfl.topology import HolderSets, generate_topology, holder_sets


def flat_holders(sets):
    """The id lists as one flat HolderSets batch over their distinct ids."""
    ids = np.array([x for s in sets for x in s], dtype=np.int64)
    points = np.unique(ids)
    indptr = np.cumsum([0, *map(len, sets)])
    return HolderSets(indptr, np.searchsorted(points, ids), points)


def holder_lists(holders):
    """The id lists of a flat HolderSets batch, set by set."""
    indptr, slot, points = holders
    return [points[slot[a:b]].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def weights(ids, p=11):
    return interpolation_weights(flat_holders([ids]), p).tolist()


def set_coefficients(gen, n, tau, p):
    """(tau, n) uniform residues for one set's coefficients, on a Philox
    key the numpy Generator gen supplies."""
    return _share_streams(gen.bit_generator.random_raw(2), [tau], n, p)


def evaluate(secret, coeffs, ids, p=11):
    """Reference evaluator: H(x) = secret + sum_m coeffs[m-1] x**m at every
    id, in Python ints."""
    return [(secret + sum(c * pow(x, m, p) for m, c in enumerate(coeffs, 1))) % p for x in ids]


def share_values(secret, tau, ids, gen, p=11):
    """H(j) at every id for one secret, with tau coefficients drawn on a
    key from the numpy Generator gen."""
    return evaluate(secret, set_coefficients(gen, 1, tau, p)[:, 0].tolist(), ids, p)


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
    # A repeated id in a set holding most of the batch's ids.
    with pytest.raises(ValueError):
        interpolation_weights(flat_holders([[1, 2, 3, 3], [4]]), 11)
    # Points must be distinct and increasing.
    with pytest.raises(ValueError):
        interpolation_weights(HolderSets(np.array([0, 2]), np.array([0, 1]), np.array([4, 1])), 11)
    # A set's weights do not depend on the other sets of the batch, on
    # points it does not hold, or on its slot order.
    assert interpolation_weights(flat_holders([(1, 2), (5,), ()]), 11).tolist() == [
        *weights((1, 2)), *weights((5,))]
    spare = HolderSets(np.array([0, 2]), np.array([0, 2]), np.array([1, 2, 4, 9]))
    assert interpolation_weights(spare, 11).tolist() == weights((1, 4))
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
    batches = [flat_holders(sets), *graph_holder_sets(p)]
    if p > 2**30:
        # ids near p give factors near p: the least room for lazy reduction
        batches.append(flat_holders([[p - 1, p - 2, 1, 2], [p - 1], [p - 3, p - 5]]))
        # Sets holding more than half of eight scattered ids near p, in any
        # order, beside sets holding fewer.
        far = [p - 1, p - 3, p - 8, p - 1000, 7, 12345, 2**30 + 1, 99]
        batches.append(flat_holders([far, far[:5], far[3:], [far[6], far[1], far[0], far[4], far[2]],
                                     far[::2], [far[7], far[2]], [far[5]]]))
        batches.append(flat_holders([[far[0], far[1], far[2], far[3], far[4]],
                                     [far[5], far[6], far[7]]]))
    for batch in batches:
        got = interpolation_weights(batch, p)
        assert got.dtype == np.int64 and got.shape == batch.slot.shape
        sets = holder_lists(batch)
        # Each distinct set once: a complete graph repeats one set N times.
        rows = {tuple(ids): got[a:b].tolist()
                for ids, a, b in zip(sets, batch.indptr[:-1], batch.indptr[1:])}
        for ids, row in rows.items():
            assert row == reference_weights(ids, p)


def test_interpolation_weights_invert_once_per_batch(monkeypatch):
    # A batch of dense sets, then a star's: the hub's set holds every id,
    # the leaves' sets form one size class. Every denominator of the batch
    # is inverted together.
    calls = []
    inverse = sharing._inverse_int
    monkeypatch.setattr(sharing, "_inverse_int", lambda a, p: calls.append(a) or inverse(a, p))
    for g in (generate_topology("random_connected", 12, seed=3, avg_degree=8.0),
              generate_topology("star", 12)):
        calls.clear()
        interpolation_weights(holder_sets(g), 1020431)
        assert len(calls) == 1


@pytest.mark.parametrize("ids", [(1, 2), (1, 2, 3), (2, 5, 7), (1, 3, 4, 9), (1, 10), (8, 9, 10)])
def test_completed_shares_are_the_weighted_polynomial_shares(ids):
    # Exhaustively at p = 11: for every secret and wherever the holder that
    # completes the set sits among the ids, the completion maps the p**tau
    # drawn vectors one to one onto the delta-weighted evaluation vectors
    # of all polynomials of degree tau = |C| - 1 with H(0) = s.
    p, tau = 11, len(ids) - 1
    delta = reference_weights(ids, p)
    everything = list(itertools.product(range(p), repeat=tau))
    drawn = np.array(everything, dtype=np.int64).reshape(-1, 1)
    sets = len(everything)
    indptr = np.arange(sets + 1) * tau
    for own in range(len(ids)):
        rows = np.arange(sets) * len(ids) + own
        for secret in range(p):
            table = _generate_share_values(np.full((sets, 1), secret), drawn, indptr, rows, p)
            got = sorted(map(tuple, table.reshape(sets, len(ids)).tolist()))
            want = sorted(tuple(d * h % p for d, h in zip(delta, evaluate(secret, coeffs, ids, p)))
                          for coeffs in everything)
            assert got == want
            assert len(set(got)) == sets


def test_share_values_hand_polynomial():
    # H(x) = 5 + 3x over GF(11) at 1, 2, 3 is 8, 0, 3; weighted by 3, 8, 1
    # (test_delta_hand_derived_triple) the shares are 2, 0, 3. Drawn as
    # holder 2's and 3's, the completion gives holder 1's; drawn as holder
    # 1's and 2's, holder 3's.
    assert _generate_share_values([[5]], [[0], [3]], [0, 2], [0], 11).tolist() == [[2], [0], [3]]
    assert _generate_share_values([[5]], [[2], [0]], [0, 2], [2], 11).tolist() == [[2], [0], [3]]


@pytest.mark.parametrize("p", [2, 11, 1020431, 2**31 - 1, 4294967291])
def test_share_values_match_reference_completion(p):
    # Batches of sets drawing from none to a few dozen rows, each set's
    # last share at any of its rows, against Python ints; every fifth
    # batch with every secret and drawn residue p - 1, the largest sums the
    # completion meets.
    rng = random.Random(p)
    for trial in range(20):
        n = rng.randrange(1, 5)
        counts = [rng.choice([0, 1, 2, 5, rng.randrange(40)]) for _ in range(rng.randrange(1, 8))]
        value = (lambda: p - 1) if trial % 5 == 0 else (lambda: rng.randrange(p))
        secrets = [[value() for _ in range(n)] for _ in counts]
        drawn = [[value() for _ in range(n)] for _ in range(sum(counts))]
        own = [rng.randrange(count + 1) for count in counts]
        indptr = np.cumsum([0, *counts])
        rows = indptr[:-1] + np.arange(len(counts)) + own
        table = _generate_share_values(secrets, np.array(drawn, dtype=np.int64).reshape(-1, n),
                                       indptr, rows, p)
        assert table.dtype == np.int64 and table.shape == (sum(counts) + len(counts), n)
        expected, start = [], 0
        for secret, count, at in zip(secrets, counts, own):
            mine, start = drawn[start : start + count], start + count
            last = [(s - sum(row[l] for row in mine)) % p for l, s in enumerate(secret)]
            expected += mine[:at] + [last] + mine[at:]
        assert table.tolist() == expected


def test_share_values_leave_their_inputs_untouched():
    # The completion subtracts and reduces in place, on its own copy of the
    # secrets: the caller's secrets and drawn rows keep their values.
    secrets = np.array([[3, 4], [5, 6]], dtype=np.int64)
    drawn = np.array([[7, 8], [9, 10], [1, 2]], dtype=np.int64)
    before = secrets.copy(), drawn.copy()
    table = _generate_share_values(secrets, drawn, [0, 2, 3], [1, 3], 11)
    assert np.array_equal(secrets, before[0]) and np.array_equal(drawn, before[1])
    assert table.tolist() == [[7, 8], [9, 8], [9, 10], [4, 4], [1, 2]]


def test_share_table_of_sets_that_draw_nothing():
    # Sets without a drawn row, first, between others and last, keep their
    # secret; the others complete their drawn rows to theirs, at their rows.
    p = 11
    secrets = [[3, 4], [5, 6], [7, 8], [9, 10], [1, 2]]
    drawn = [[1, 2], [3, 4], [5, 6]]
    table = _generate_share_values(secrets, drawn, [0, 0, 2, 2, 3, 3], [0, 1, 4, 5, 7], p)
    assert table.dtype == np.int64
    assert table.tolist() == [[3, 4], [1, 0], [1, 2], [3, 4], [7, 8], [4, 4], [5, 6], [1, 2]]


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
    assert set_coefficients(np.random.default_rng(0), 1, 0, 11).shape == (0, 1)
    assert share_values(6, 0, (1,), np.random.default_rng(0)) == [6]
    assert _generate_share_values([[6]], np.zeros((0, 1)), [0, 0], [0], 11).tolist() == [[6]]
    assert interpolate_at_zero({1: 6}) == 6


def test_draw_coefficients_deterministic_per_seed():
    ids = (1, 2, 5)

    def draw(seed):
        return set_coefficients(np.random.default_rng(seed), 3, 2, 11)

    assert draw(99).shape == (2, 3) and draw(99).dtype == np.int64
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


def reference_stream(key, g, sets, count, p):
    """The first count kept values of lane g of a batch of `sets` sets, one
    candidate at a time: its block j is block j * sets + g - 1 of a fresh
    np.random.Philox, which is on counter j * sets + g; the low then the
    high half of each word, masked to bitlength(p - 1) bits and kept below
    p."""
    mask = (1 << (p - 1).bit_length()) - 1
    out, j = [], 0
    while len(out) < count:
        block = philox_block(key, [j * sets + g, 0, 0, 0])
        halves = [h & mask for word in block for h in (word & 0xFFFFFFFF, word >> 32)]
        out += [h for h in halves if h < p]
        j += 1
    return out[:count]


@pytest.mark.parametrize("p", [2, 17, 1020431, 2**31 - 1, 4294967291])
def test_share_streams_follow_the_counter_layout(p, monkeypatch):
    # Block b of the stream is the b-th block of a fresh np.random.Philox.
    assert np.random.Philox(key=KEY).random_raw(8).tolist() == (
        philox_block(KEY, [1, 0, 0, 0]) + philox_block(KEY, [2, 0, 0, 0]))
    n = 4
    # As drawn, and with lane windows (see _share_streams) taken
    # whatever the number of lanes they skip.
    for skip in (sharing._SKIP_BLOCKS, 1):
        monkeypatch.setattr(sharing, "_SKIP_BLOCKS", skip)
        for taus in ([3, 0, 7, 1, 12], [12] + [1] * 30, [1] * 30 + [12], [0, 9, 1, 1, 0, 8]):
            got = _share_streams(KEY, taus, n, p)
            assert got.dtype == np.int64 and got.shape == (sum(taus), n)
            start = 0
            for g, tau in enumerate(taus, start=1):
                want = reference_stream(KEY, g, len(taus), n * tau, p)
                assert got[start : start + tau].ravel().tolist() == want
                start += tau


@pytest.mark.parametrize("p", [17, 2**31 - 1])
def test_share_streams_do_not_depend_on_chunk_rows(p, monkeypatch):
    # One row per chunk, and chunks sized one row at a time, give the
    # values of the default chunks: sets finish inside chunks and leave
    # later ones at different points, but every set reads its own lane.
    # Once the sets still drawing lie within half a row (the hub of a star,
    # first or last, or two sets near each other) a chunk holds their lanes
    # alone, and the generator skips the others: here whatever the number
    # of lanes skipped.
    monkeypatch.setattr(sharing, "_SKIP_BLOCKS", 1)
    n = 5
    for taus in ([3, 0, 7, 1, 12, 2], [12] + [1] * 30, [1] * 30 + [12], [1] * 9 + [6, 0, 7] + [1] * 9):
        want = _share_streams(KEY, taus, n, p)
        with monkeypatch.context() as m:
            m.setattr(sharing, "_BLOCK_ENTRIES", 1)
            assert np.array_equal(_share_streams(KEY, taus, n, p), want)
        with monkeypatch.context() as m:
            m.setattr(sharing, "_stream_blocks", lambda need, accept: np.ones_like(need))
            assert np.array_equal(_share_streams(KEY, taus, n, p), want)


def test_share_streams_depend_on_own_set_only():
    # At a fixed batch size G = 3, a set's block stays the same whatever
    # the other sets' degrees.
    p = 1020431
    full = _share_streams(KEY, [3, 5, 2], 4, p)
    assert np.array_equal(_share_streams(KEY, [9, 5, 0], 4, p)[9:], full[3:8])
    assert np.array_equal(_share_streams(KEY, [3, 0, 11], 4, p)[:3], full[:3])
    assert np.array_equal(_share_streams(KEY, [0, 1, 2], 4, p)[1:], full[8:])
    # The lanes interleave by G, so another batch size moves them.
    assert not np.array_equal(_share_streams(KEY, [3, 5], 4, p)[3:], full[3:8])
    assert _share_streams(KEY, [], 4, p).shape == (0, 4)
    other = np.array([KEY[0], KEY[1] + np.uint64(1)], dtype=np.uint64)
    assert not np.array_equal(_share_streams(other, [3, 5, 2], 4, p), full)


@pytest.mark.parametrize("p, bins", [(17, 17), (2**31 - 1, 64)])
def test_share_streams_are_uniform(p, bins):
    # Rejection keeps every residue exactly equally likely, also at p = 17,
    # where about 47% of the 5-bit candidates are rejected. chi^2 over bins
    # of equal mass (to within one residue) at fixed keys, so the test is
    # deterministic; the bound is the mean plus six standard deviations.
    counts = np.zeros(bins)
    for k in range(4):
        key = np.array([k, 99], dtype=np.uint64)
        values = _share_streams(key, [250] * 50, 2, p).ravel()
        counts += np.bincount(values * bins // p, minlength=bins)
    expected = counts.sum() * np.diff(np.ceil(np.arange(bins + 1) * p / bins)) / p
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < bins - 1 + 6 * np.sqrt(2 * (bins - 1))


# sha256 of _share_streams(KEY, [3, 0, 7, 1, 12], 4, p) as little-endian
# int64 bytes, for p = 17, 1020431 and 2**31 - 1 in turn: the matrices
# version 0.6.0's coefficient draw returned for the same key. 0.7.0 hands
# these values out as shares, so a change to them changes every bundle and
# must bump __version__ together with this pin.
SHARE_STREAM_SHA256 = "0983c44ce854bdaab89385793042e7b4cd9ea282bf872580a306ec0143e6ccb3"


def test_share_stream_is_pinned():
    digest = hashlib.sha256()
    for p in (17, 1020431, 2**31 - 1):
        digest.update(np.ascontiguousarray(_share_streams(KEY, [3, 0, 7, 1, 12], 4, p),
                                           dtype="<i8").tobytes())
    assert digest.hexdigest() == SHARE_STREAM_SHA256


def weighted(raw, ids, p=11):
    """Each raw share times its holder's interpolation weight, as
    execute_round weights them."""
    w = interpolation_weights(flat_holders([ids]), p)
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
        coeffs = set_coefficients(gen, 1, tau, 11)[:, 0].tolist()
        if rng.random() < 0.3:
            coeffs[-1] = 0
        shares = dict(zip(ids, evaluate(secret, coeffs, ids)))
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
