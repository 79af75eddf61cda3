"""Shamir secret sharing over GF(p) in its additive form.

A secret s is split by sampling a random polynomial H with H(0) = s and
handing holder j the evaluation H(j); holder ids double as evaluation
points, so they must be distinct, nonzero and below the modulus. Any
tau+1 holders C recover s by Lagrange interpolation at zero: s is the sum
of their shares, each times its interpolation weight

    delta(C, j) = prod_{k in C, k != j}  k / (k - j)   (mod p),

which interpolation_weights computes for one holder set from this
definition. Weighted shares thus sum to the secret, which is what lets
sums of shares travel through an averaging layer.

A learner shares over its closed neighbourhood C with a polynomial of
degree |C| - 1. Evaluation at |C| distinct points is then a bijection from
(s, coefficients) to share values, so for a fixed s the weighted shares
are exactly uniform on the vectors that sum to s: the Lagrange conversion
of Shamir shares to additive ones (Cramer, Damgard & Nielsen, Secure
Multiparty Computation and Secret Sharing, 2015). A round therefore draws
them directly: |C| - 1 uniform residues from a Philox lane
(_share_streams), and the last share, s minus their sum, by the
completion (_generate_share_values). It evaluates no polynomial and
computes no weight. Secrets and shares are int64 residue arrays.
"""

from __future__ import annotations

import numpy as np

from .field import _inverse_int

# Entries (512 KB of int64) that the raw words and candidates of a chunk of
# the draw hold together, unless one row alone needs more.
_BLOCK_ENTRIES = 2**16

# Philox blocks a row must skip before the draw takes only the live sets'
# lanes: the pass of its Python loop that each row then costs (an advance
# and a random_raw call, some 3 us) is worth some 170 blocks (17 ns each,
# numpy 2 on x86-64).
_SKIP_BLOCKS = 256

# Spread of the sets' needs up to which a batch draws its first rows as one
# block (see _share_streams): the rows the neediest set is expected to read
# times the number of sets, over the sum of every set's expected rows. The
# block draws and ranks every set's candidates for the neediest set's rows,
# where the chunked loop reads only each set's own, but it builds no index
# array. At 20- and 31-bit primes, which keep nearly every candidate, the
# block is 30-55% faster than the loop up to spread 2, for 24 to 300 sets
# and n = 1 to 64; at 14-bit primes, which reject 41%, it breaks even near
# spread 1.2-1.3 once it holds 30000 candidates or more (numpy 2.4). The
# spread is 1.07-1.12 on configs/large_random.json's rounds (seeds 0-59),
# 1.46-1.49 at every point of the acceptance tests' share sweep, and
# 2.25-2.75 on the sparse N=1000 rounds.
_UNIFORM = 1.2


def interpolation_weights(ids, p: int) -> list[int]:
    """delta(C, j) for each id j of the holder set C = ids, in order, as
    Python ints; ids must be distinct and in [1, p)."""
    ids = [int(k) for k in ids]
    if len(set(ids)) < len(ids) or not all(0 < k < p for k in ids):
        raise ValueError(f"holder ids must be distinct ids in [1, {p})")
    weights = []
    for j in ids:
        num = den = 1
        for k in ids:
            if k != j:
                num, den = num * k % p, den * (k - j) % p
        weights.append(num * _inverse_int(den, p) % p)
    return weights


def _stream_blocks(need, accept: float):
    """Philox blocks of eight candidates to draw for a set still needing
    need kept values, a candidate being kept with probability accept: room
    for the expected rejections plus five standard deviations, rounded
    down."""
    lost = need * (1 - accept)
    spare = np.floor((lost + 5 * np.sqrt(lost)) / accept)
    return np.ceil((need + spare) / 8).astype(np.int64)


def _share_streams(key, counts, n: int, p: int) -> np.ndarray:
    """Uniform residues for the shares a batch of G sets hands out, from
    one 128-bit Philox key: a (sum(counts), n) int64 matrix whose rows
    [T_g, T_g + counts[g]), T_g = sum of the counts before set g, hold set
    g's drawn shares, one row per holder it hands a share to.

    Block b of the stream is the b-th Philox4x64-10 block of
    np.random.Philox(key=key) (Salmon et al., "Parallel random numbers: as
    easy as 1, 2, 3", SC 2011), and the stream is lane-major: set g
    (counting from 1) owns lane g, blocks g - 1, G + g - 1, 2G + g - 1, ...
    Each block's four words give eight 32-bit halves, low half first; each
    is masked to bitlength(p - 1) bits and kept only if it is below p
    (< 2**32), so every kept value is exactly uniform on [0, p). Set g's
    shares are its lane's first n * counts[g] kept values, row-major in its
    (counts[g], n) block: they depend on (key, g, G, n, counts[g]) alone.
    The shares a set hands out are drawn without its secret, and their
    exact uniformity makes them, with the last share that completes them
    to the secret (_generate_share_values), distributed as the weighted
    shares of a uniformly drawn polynomial: any counts[g] of the set's
    shares are independent of its secret.

    The stream is drawn a chunk of rows at a time: the rows _stream_blocks
    expects the neediest set still drawing to need, at most as many as
    keep a chunk's raw words and its candidates within _BLOCK_ENTRIES
    8-byte entries, unless one row alone needs more. A chunk holds whole
    rows, or, once the lanes outside the span of the sets still drawing
    outnumber that span and _SKIP_BLOCKS (as around a star's hub), only
    the span, the generator advanced past the rest. From a chunk each set
    reads only the rows _stream_blocks expects it to need, so the
    candidates sorted grow with the values drawn, not with the chunks; a
    set that falls short reads on, into the next chunk if need be, and a
    set leaves once it has all its values. How many rows a chunk holds or
    a set reads at once changes no value.

    A batch whose needs are near-uniform skips the loop's bookkeeping: when
    one chunk holds the rows _stream_blocks expects the neediest set to
    need (8 * rows * G <= _BLOCK_ENTRIES) and those rows times G are at
    most _UNIFORM times the sum of every set's expected rows, the first
    chunk is drawn as one (8 * rows, G) block of candidates, lane g in
    column g - 1. One cumsum down the columns ranks each lane's kept
    candidates, and each set's values are taken in place, by rank, set by
    set, with no index array. A set the block leaves short (the five-sigma
    tail) reads on in the loop from the next row. The block is faster than
    the loop at spreads up to 2 when few candidates are rejected, and at
    14-bit primes up to about 1.2 (see _UNIFORM).
    """
    if p >= 2**32:
        raise ValueError(f"modulus {p} does not fit 32-bit candidates")
    counts = np.asarray(counts, dtype=np.int64)
    n_sets = len(counts)
    bits = max(1, (p - 1).bit_length())
    low = (1 << bits) - 1
    # Both 32-bit halves of a word masked at once.
    mask = np.uint64(low * (2**32 + 1))
    accept = p / 2**bits
    out = np.empty((int(counts.sum()), n), dtype=np.int64)
    flat = out.reshape(-1)
    left = n * counts  # values each set still needs
    at = np.cumsum(left) - left  # where each set's next value goes in flat
    gen = np.random.Philox(key=key)
    row = np.zeros(n_sets, dtype=np.int64)  # each set's next row to read
    base = drawn = pos = 0  # the chunk in hand holds rows [base, drawn); gen is at block pos
    span = int(_stream_blocks(left.max(initial=0), accept))  # the neediest set's rows
    if (0 < 8 * span * n_sets <= _BLOCK_ENTRIES
            and span * n_sets <= _UNIFORM * _stream_blocks(left, accept).sum()):
        # Every set reads the first span rows whole. cand[c, g - 1] is
        # candidate c of lane g: one cumsum down the columns ranks a lane's
        # kept candidates, and its values are those ranked 1 to left[g - 1].
        words = gen.random_raw(4 * span * n_sets).astype("<u8", copy=False)
        cand = np.empty((span, 8, n_sets), dtype="<u4")
        np.bitwise_and(words.view("<u4").reshape(span, n_sets, 8).transpose(0, 2, 1),
                       np.uint32(low), out=cand)
        cand = cand.reshape(8 * span, n_sets)
        keep = cand < np.uint32(p)
        rank = keep.astype(np.int32)
        np.cumsum(rank, axis=0, out=rank)
        keep &= rank <= left.astype(np.int32)
        take = np.minimum(rank[-1], left)
        if (take == left).all():
            flat[:] = cand.T[keep.T]
        else:  # a set left short (the 5-sigma tail) reads on below
            dest = np.repeat(at - (np.cumsum(take) - take), take)
            dest += np.arange(len(dest))
            flat[dest] = cand.T[keep.T]
        row[:] = drawn = span
        pos = span * n_sets
        at += take
        left -= take
    live = np.flatnonzero(left)
    while len(live):
        if (row[live] == drawn).all():  # every set has read the chunk out
            # Lanes [lo, lo + width): the live sets' alone when the lanes
            # skipped outnumber them and pay for a pass of this loop per row.
            lo = int(live[0])
            width = int(live[-1] + 1 - live[0])
            if n_sets - width < max(width, _SKIP_BLOCKS):
                lo = 0
                width = n_sets
            rows = min(max(1, _BLOCK_ENTRIES // (8 * width)),
                       int(_stream_blocks(left[live].max(), accept)))
            run = width if width < n_sets else rows * n_sets
            words = []
            for block0 in range(drawn * n_sets + lo, (drawn + rows) * n_sets, max(run, n_sets)):
                gen.advance(block0 - pos)
                words.append(gen.random_raw(4 * run))
                pos = block0 + run
            # Whole rows come in one call, used as drawn: copying them would
            # add a tenth to the draw of a small graph.
            chunk = words[0] if len(words) == 1 else np.concatenate(words)
            # Row base + r of set g is at r * width + g - lo.
            chunk = chunk.astype("<u8", copy=False).reshape(rows * width, 4)
            base, drawn = drawn, drawn + rows
        # Each set reads on for the rows _stream_blocks expects it to need,
        # as far as the chunk goes; cand holds their blocks set by set.
        upto = np.minimum(drawn, row[live] + _stream_blocks(left[live], accept))
        more = upto > row[live]
        reading = live[more]
        count = upto[more] - row[reading]
        start = np.cumsum(count) - count
        blocks = np.repeat((row[reading] - base - start) * width + reading - lo, count)
        blocks += np.arange(len(blocks)) * width
        cand = np.take(chunk, blocks, axis=0)
        cand &= mask
        cand = cand.reshape(-1).view("<u4")
        keep = cand < np.uint32(p)
        kept = np.compress(keep, cand)  # faster than cand[keep]
        have = np.add.reduceat(keep, 8 * start, dtype=np.int64)
        need = left[reading]
        take = np.minimum(have, need)
        # The first take[i] of reading set i's kept values go to
        # flat[at[i]:]; dest holds the slot of each value taken, set by set.
        first = np.cumsum(take) - take
        dest = np.repeat(at[reading] - first, take)
        dest += np.arange(len(dest))
        if (take < have).any():  # a set that finishes drops its surplus
            src = np.repeat(np.cumsum(have) - have - first, take)
            src += np.arange(len(src))
            kept = kept[src]
        flat[dest] = kept
        row[reading] += count
        at[reading] += take
        left[reading] = need - take
        live = live[left[live] > 0]
    return out


def _generate_share_values(secrets, drawn, indptr, rows, p: int) -> np.ndarray:
    """The share table of a flat batch of G sets, each set's shares summing
    to its secret mod p.

    secrets is (G, n) and drawn the matrix _share_streams lays out, set g's
    rows indptr[g]:indptr[g+1]. Set g's last share, its secret minus the
    sum of those rows mod p, takes row rows[g] of the table, rows
    increasing; the drawn rows fill the other rows in order.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    drawn = np.asarray(drawn, dtype=np.int64)
    last = np.array(secrets, dtype=np.int64)
    # reduceat gives an empty run an element, not 0: only sets that drew sum.
    drew = np.flatnonzero(np.diff(indptr))
    if len(drew):
        last[drew] -= np.add.reduceat(drawn, indptr[drew], axis=0)
    last %= p
    rows = np.asarray(rows, dtype=np.int64)
    return np.insert(drawn, rows - np.arange(len(rows)), last, axis=0)
