"""Shamir secret sharing over GF(p) in its additive form.

A secret s is split by sampling a random polynomial H with H(0) = s and
handing holder j the evaluation H(j); holder ids double as evaluation
points, so they must be distinct, nonzero and below the modulus. Any
tau+1 holders recover s by Lagrange interpolation at zero. Pre-multiplying
each share by its interpolation weight

    delta(C, j) = prod_{k in C, k != j}  k / (k - j)   (mod p)

turns reconstruction over the full holder set into a plain modular sum,
which is what lets sums of shares travel through an averaging layer.

A learner shares over its closed neighbourhood C with a polynomial of
degree |C| - 1. Evaluation at |C| distinct points is then a bijection from
(s, coefficients) to share values, and the weighted shares sum to H(0) =
s, so for a fixed s the weighted shares are exactly uniform on the vectors
that sum to s: the Lagrange conversion of Shamir shares to additive ones
(Cramer, Damgard & Nielsen, Secure Multiparty Computation and Secret
Sharing, 2015). A round therefore draws them directly: |C| - 1 uniform
residues (_share_streams) and the last share, s minus their sum
(_generate_share_values). It evaluates no polynomial and computes no
weight. interpolation_weights, which reconstruction from any other holder
set needs, takes holder sets laid out flat, with no padding
(topology.HolderSets), and gives one weight per holder in that order.
Secrets, weights and shares are int64 residue arrays.
"""

from __future__ import annotations

import numpy as np

from .field import _inverse_int

# Entries (512 KB of int64) that the temporaries of a block of difference
# matrices, or of a chunk of the draw, hold together, unless one set or row
# alone needs more.
_BLOCK_ENTRIES = 2**16

# Philox blocks a row must skip before the draw takes only the live sets'
# lanes: the pass of its Python loop that each row then costs (an advance
# and a random_raw call, some 3 us) is worth some 170 blocks (17 ns each,
# numpy 2 on x86-64).
_SKIP_BLOCKS = 256

def _prefix_products(a: np.ndarray, p: int) -> np.ndarray:
    """Inclusive running products mod p of a 1-D array, by a Hillis-Steele
    scan in log2(len(a)) vectorized doubling steps."""
    out = a.copy()
    shift = 1
    while shift < len(out):
        out[shift:] = out[shift:] * out[:-shift] % p
        shift *= 2
    return out


def _products_of_others(a: np.ndarray, p: int) -> np.ndarray:
    """Entry j is the product mod p of every entry of a except a[j]: the
    exclusive prefix product times the exclusive suffix product."""
    one = np.ones(1, dtype=np.int64)
    before = _prefix_products(np.concatenate([one, a[:-1]]), p)
    after = _prefix_products(np.concatenate([one, a[:0:-1]]), p)[::-1]
    return before * after % p


def _batch_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of nonzero residues with a single inversion.

    Montgomery's trick: 1/a_j = (product of the other entries) / (product
    of all entries), so only the full product is ever inverted.
    """
    others = _products_of_others(a, p)
    total = int(others[0]) * int(a[0]) % p
    return others * _inverse_int(total, p) % p


def _row_products(f: np.ndarray, p: int, bound: int | None = None) -> np.ndarray:
    """Products mod p along the last axis of an int64 array of entries of
    magnitude at most bound (p - 1 if not given), by pairwise halving,
    reduced mod p only where the next multiply could leave int64."""
    big = p - 1 if bound is None else bound  # a bound on f's magnitudes
    while f.shape[-1] > 1:
        h, odd = divmod(f.shape[-1], 2)
        head = f[..., :h] * f[..., h : 2 * h]
        if odd:
            head[..., 0] = head[..., 0] % p * f[..., -1]
        f, big = head, max(big * big, (p - 1) * big * odd)
        if big * big >= 2**63:
            f %= p
            big = p - 1
    return f[..., 0] % p if f.shape[-1] else np.ones(f.shape[:-1], dtype=np.int64)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [starts[g], starts[g] + counts[g]) laid end to end."""
    out = np.repeat(starts - np.cumsum(counts) + counts, counts)
    out += np.arange(len(out))
    return out


def _denominators(x: np.ndarray, p: int, present: np.ndarray | None = None) -> np.ndarray:
    """x_j prod_{k != j} (x_k - x_j) mod p at every entry of each row of x,
    rows of distinct ids below p: row j of its row's difference matrix, x_j
    on the diagonal, multiplied out, a block of matrices at a time. Only
    the entries where the boolean present holds count."""
    rows, width = x.shape
    out = np.empty_like(x)
    top = int(x.max(initial=0))
    sets = max(1, _BLOCK_ENTRIES // max(1, width * width))
    step = max(1, _BLOCK_ENTRIES // max(1, sets * width))
    for a in range(0, rows, sets):
        xs = x[a : a + sets]
        for j in range(0, width, step):
            diff = xs[:, None, :] - xs[:, j : j + step, None]
            if present is not None:
                diff = np.where(present[a : a + sets, None, :], diff, 1)
            k = np.arange(diff.shape[1])
            diff[:, k, j + k] = xs[:, j + k]
            out[a : a + sets, j : j + step] = _row_products(diff, p, top)
    return out


def interpolation_weights(holders, p: int) -> np.ndarray:
    """Interpolation weights of every holder set in a flat batch.

    holders is (indptr, slot, points) as the module docstring lays it out,
    the points distinct ids in [1, p). Returns an int64 array with
    delta(C, x_j) = prod_C x_k / (x_j prod_{k != j} (x_k - x_j)) at each
    holder's entry, for a size class (bit length) of sets at a time (see
    _denominators). Every denominator of the call is inverted with one
    modular inversion.
    """
    indptr, slot, points = (np.asarray(a, dtype=np.int64) for a in holders)
    if points.size and (points[0] < 1 or points[-1] >= p or (np.diff(points) <= 0).any()):
        raise ValueError(f"holder ids must be increasing points in [1, {p})")
    ids = points[slot]
    sizes = np.diff(indptr)
    top = int(points.max(initial=0))  # the largest id
    classes = []  # (entries, numerators) per size class
    dens = []  # every denominator, inverted together below
    # Sets by size class, each padded with 1 to its largest.
    held = np.flatnonzero(sizes)
    held = held[np.argsort(np.frexp(sizes[held])[1], kind="stable")]
    for sets in np.split(held, np.flatnonzero(np.diff(np.frexp(sizes[held])[1])) + 1):
        if len(sets):
            entries = _ranges(indptr[sets], sizes[sets])
            present = np.arange(sizes[sets].max()) < sizes[sets][:, None]
            x = np.ones(present.shape, dtype=np.int64)
            x[present] = ids[entries]
            dens.append(_denominators(x, p, present)[present])
            if not dens[-1].all():
                raise ValueError("holder ids within a set must be distinct")
            classes.append((entries, np.repeat(_row_products(x, p, top), sizes[sets])))
    weights = np.empty(len(slot), dtype=np.int64)
    if not dens:  # no set holds anything
        return weights
    inv = _batch_inverse(np.concatenate(dens), p)
    inv = np.split(inv, np.cumsum([len(d) for d in dens])[:-1])
    for (entries, num), inv_c in zip(classes, inv):
        weights[entries] = num * inv_c % p
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
    """
    if p >= 2**32:
        raise ValueError(f"modulus {p} does not fit 32-bit candidates")
    counts = np.asarray(counts, dtype=np.int64)
    n_sets = len(counts)
    bits = max(1, (p - 1).bit_length())
    # Both 32-bit halves of a word masked at once.
    mask = np.uint64(((1 << bits) - 1) * (2**32 + 1))
    accept = p / 2**bits
    out = np.empty((int(counts.sum()), n), dtype=np.int64)
    flat = out.reshape(-1)
    left = n * counts  # values each set still needs
    at = np.cumsum(left) - left  # where each set's next value goes in flat
    gen = np.random.Philox(key=key)
    live = np.flatnonzero(left)
    row = np.zeros(n_sets, dtype=np.int64)  # each set's next row to read
    base = drawn = pos = 0  # the chunk in hand holds rows [base, drawn); gen is at block pos
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
