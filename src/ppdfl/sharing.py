"""Shamir secret sharing over GF(p) with interpolation-weighted shares.

A secret s is split by sampling a random polynomial H with H(0) = s and
handing holder j the evaluation H(j); holder ids double as evaluation
points, so they must be distinct, nonzero and below the modulus. Any
tau+1 holders recover s by Lagrange interpolation at zero. Pre-multiplying
each share by its interpolation weight

    delta(C, j) = prod_{k in C, k != j}  k / (k - j)   (mod p)

turns reconstruction over the full holder set into a plain modular sum,
which is what lets sums of shares travel through an averaging layer.
Secrets, coefficients, weights and shares are int64 residue arrays.

The kernels take holder sets laid out flat, with no padding
(topology.HolderSets), and give one row per holder in that order. Weights
are int64 products reduced mod p as they go. Coefficients come from one
Philox4x64-10 stream per batch, a lane per set. Shares are float64
matrix products of holder powers and limb-split coefficients, exact as
every partial sum is an integer of at most 2**53 (see _limb_split).
"""

from __future__ import annotations

import numpy as np

from .field import _inverse_int

# Entries (512 KB of float64 or int64) that a block's temporaries in either
# kernel -- powers, limb-split coefficients, products, difference matrices
# -- hold together, unless one set or row alone needs more. The float64
# products are exact whatever the size (_limb_split bounds every sum).
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


def _as_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous 2-D array as the items of a 1-D array,
    which numpy scatters several times faster than rows of a 2-D one."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).reshape(-1)


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
    delta(C, x_j) at each holder's entry.

    Let U be the m points. A set C is dense when |C| > m/2; its weights
    come from those of U through its complement (the barycentric-weight
    relation, Berrut & Trefethen, SIAM Review 2004):

        delta(C, j) = delta(U, j) prod_{k in U \\ C} (u_k - u_j) / u_k,

    with delta(U, j) = prod_U u_k / (u_j prod_{k != j} (u_k - u_j)), so a
    dense set loops over its complement's slots rather than its own. The
    other sets take delta_j = prod_C x_k / (x_j prod_{k != j} (x_k - x_j))
    a size class at a time (see _denominators). Every denominator of the
    call -- U's, the complements' prod u_k and the other sets' own -- is
    inverted with one modular inversion.
    """
    indptr, slot, points = (np.asarray(a, dtype=np.int64) for a in holders)
    if points.size and (points[0] < 1 or points[-1] >= p or (np.diff(points) <= 0).any()):
        raise ValueError(f"holder ids must be increasing points in [1, {p})")
    ids = points[slot]
    sizes = np.diff(indptr)
    m = len(points)
    top = int(points.max(initial=0))  # the largest id
    dense = 2 * sizes > m
    classes = []  # (entries, numerators) per size class
    dens = []  # every denominator, inverted together below
    # The other sets by size class (bit length), padded with 1 to its largest.
    sparse = np.flatnonzero(~dense & (sizes > 0))
    sparse = sparse[np.argsort(np.frexp(sizes[sparse])[1], kind="stable")]
    for sets in np.split(sparse, np.flatnonzero(np.diff(np.frexp(sizes[sparse])[1])) + 1):
        if len(sets):
            entries = _ranges(indptr[sets], sizes[sets])
            present = np.arange(sizes[sets].max()) < sizes[sets][:, None]
            x = np.ones(present.shape, dtype=np.int64)
            x[present] = ids[entries]
            dens.append(_denominators(x, p, present)[present])
            if not dens[-1].all():
                raise ValueError("holder ids within a set must be distinct")
            classes.append((entries, np.repeat(_row_products(x, p, top), sizes[sets])))

    if dense.any():
        # Dense sets, longest complement first: pass k below covers a leading run.
        sets = np.flatnonzero(dense)
        sets = sets[np.argsort(sizes[sets], kind="stable")]
        size = sizes[sets]
        missing = m - size
        entries = _ranges(indptr[sets], size)
        member = np.zeros((len(sets), m), dtype=bool)
        member[np.repeat(np.arange(len(sets)), size), slot[entries]] = True
        if (member.sum(axis=1) < size).any():
            raise ValueError("holder ids within a set must be distinct")
        # Each dense set's complement in U, increasing, padded with 1.
        row, col = np.nonzero(~member)
        comp = np.ones((len(sets), missing[0]), dtype=np.int64)
        comp[row, np.arange(len(row)) - (np.cumsum(missing) - missing)[row]] = points[col]
        if top == m:  # points 1..m: prod_{k != j} (k - j) = (-1)**(j-1) (j-1)! (m-j)!
            fact = np.concatenate([[1], _prefix_products(points, p)[:-1]])  # fact[i] = i!
            den_u = points * fact % p * fact[::-1] % p * (1 - 2 * (points % 2 == 0)) % p
        else:
            den_u = _denominators(points[None], p)[0]
        dens += [den_u, _row_products(comp, p, top)]

    weights = np.empty(len(slot), dtype=np.int64)
    if not dens:  # no set holds anything
        return weights
    inv = _batch_inverse(np.concatenate(dens), p)
    inv = np.split(inv, np.cumsum([len(d) for d in dens])[:-1])
    for (entries_c, num), inv_c in zip(classes, inv):
        weights[entries_c] = num * inv_c % p
    if dense.any():
        # Each dense set's holders, padded at the end: fac starts at
        # delta(U, j) / prod_{k in U \ C} u_k and takes on (u_k - x_j) for
        # each k of the complement.
        inv_u, inv_comp = inv[-2:]
        present = np.arange(size[-1]) < size[:, None]
        xd = np.zeros(present.shape, dtype=np.int64)
        xd[present] = ids[entries]
        fac = np.zeros_like(xd)
        num = _row_products(points[None], p, top)[0] * inv_comp % p
        fac[present] = inv_u[slot[entries]] * np.repeat(num, size) % p
        live = np.count_nonzero(missing[:, None] > np.arange(missing[0]), axis=0)
        # Reduced every lazy passes, the most with p * (top + 1)**lazy < 2**63.
        lazy = next(r for r in range(1, 64) if p * (top + 1) ** (r + 1) >= 2**63)
        step = np.empty_like(xd)
        for k, r in enumerate(live.tolist()):
            head = fac[:r]
            head *= np.subtract(comp[:r, k, None], xd[:r], out=step[:r])
            if (k + 1) % lazy == 0:
                head %= p
        weights[entries] = fac[present] % p
    return weights


def _stream_blocks(need, accept: float):
    """Philox blocks of eight candidates to draw for a set still needing
    need kept values, a candidate being kept with probability accept: room
    for the expected rejections plus five standard deviations, rounded
    down."""
    lost = need * (1 - accept)
    spare = np.floor((lost + 5 * np.sqrt(lost)) / accept)
    return np.ceil((need + spare) / 8).astype(np.int64)


def _coefficient_streams(key, taus, n: int, p: int) -> np.ndarray:
    """Uniform residues for the polynomials of a batch of G sets, from one
    128-bit Philox key: a (sum(taus), n) int64 matrix whose rows
    [T_g, T_g + tau_g), T_g = sum of the taus before set g, hold set g's
    (tau_g, n) coefficients; row T_g + m - 1 holds coefficient m of every
    coordinate's polynomial.

    Block b of the stream is the b-th Philox4x64-10 block of
    np.random.Philox(key=key) (Salmon et al., "Parallel random numbers: as
    easy as 1, 2, 3", SC 2011), and the stream is lane-major: set g
    (counting from 1) owns lane g, blocks g - 1, G + g - 1, 2G + g - 1, ...
    Each block's four words give eight 32-bit halves, low half first; each
    is masked to bitlength(p - 1) bits and kept only if it is below p
    (< 2**32), so every kept value is exactly uniform on [0, p). Set g's
    coefficients are its lane's first n * tau_g kept values, row-major in
    its (tau_g, n) block: they depend on (key, g, G, n, tau_g) alone.
    Uniform coefficients are what make any tau shares carry zero
    information about the secret; restricting the top coefficient away
    from zero would skew the share distribution by an s-dependent
    exclusion.

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
    taus = np.asarray(taus, dtype=np.int64)
    n_sets = len(taus)
    bits = max(1, (p - 1).bit_length())
    # Both 32-bit halves of a word masked at once.
    mask = np.uint64(((1 << bits) - 1) * (2**32 + 1))
    accept = p / 2**bits
    out = np.empty((int(taus.sum()), n), dtype=np.int64)
    flat = out.reshape(-1)
    left = n * taus  # values each set still needs
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


def _limb_split(p: int, terms: int) -> tuple[int, int]:
    """(limbs, bits): the fewest limbs of `bits` bits that residues mod p
    split into so that a sum of limbs * terms products, each of a limb and
    a residue, is at most 2**53 and so exact in float64:
    limbs * terms * (2**bits - 1) * (p - 1) <= 2**53, with limbs * bits
    covering every residue."""
    top = max(1, (p - 1).bit_length())
    for limbs in range(1, top + 1):
        bits = -(-top // limbs)
        if limbs * terms * ((1 << bits) - 1) * (p - 1) <= 2**53:
            return limbs, bits
    raise ValueError(
        f"polynomials with {terms} coefficients are too long to evaluate "
        f"exactly in float64 mod {p}"
    )


def _power_table(ids: np.ndarray, terms: int, limbs: int, bits: int, p: int) -> np.ndarray:
    """(len(ids), limbs * terms) float64: column i * terms + m holds
    2**(bits * i) * x**m mod p at each id x, the residue that limb i of
    coefficient m multiplies. Powers [h, 2h) are powers [0, h) times x**h:
    terms - 1 multiplies mod p, on contiguous rows of a transposed table."""
    x = ids % p
    table = np.empty((limbs, terms, len(ids)), dtype=np.int64)
    powers = table[0]
    powers[0] = 1
    h = 1
    while h < terms:
        k = min(h, terms - h)
        np.multiply(powers[:k], powers[h - 1] * x % p, out=powers[h : h + k])
        np.remainder(powers[h : h + k], p, out=powers[h : h + k])
        h += k
    for i in range(1, limbs):
        table[i] = table[i - 1] * (2**bits % p) % p
    return table.transpose(2, 0, 1).astype(np.float64, order="C").reshape(len(ids), limbs * terms)


def _generate_share_values(
    secrets: np.ndarray, coeffs: np.ndarray, taus, holders, p: int
) -> np.ndarray:
    """The share table of a flat batch of holder sets: row e holds, for
    every coordinate, the polynomial of holder entry e's set at that holder.

    secrets is (G, n), holders (indptr, slot, points) as the module
    docstring lays it out, and coeffs the (sum(taus), n) matrix whose rows
    [T_g, T_g + taus[g]) belong to set g, as _coefficient_streams lays them
    out: set g's polynomial for coordinate l is H(x) = secrets[g, l] +
    sum_m coeffs[T_g + m - 1, l] x^m.

    Every coefficient, the secret as coefficient 0, is split into limbs of
    b bits (see _limb_split), and limb i of coefficient m meets 2**(b i)
    x^m mod p, so reductions mod p recombine the limbs. A product is below
    2**b * p and limbs * (1 + max tau_g) of them sum to at most 2**53: every
    partial sum is an exact integer in whatever order BLAS adds.

    Sets holding half of the m points or more come first, then the others
    by term count, most first, and by size. A block is a run of them whose
    temporaries hold at most _BLOCK_ENTRIES entries, evaluated with t
    terms, its own most. Where evaluating it at all m points costs at most
    twice the work at its own holders, one (m, K) @ (K, sets * n) product,
    K = limbs * t, does it. Otherwise its sets are of one size class (bit
    length), and each set's powers at its holders, the last repeated up to
    the block's largest set, meet its coefficients in a batched product.
    The powers at every point are built once if they hold no more entries
    than the share table, else at each block's holders.
    """
    indptr, slot, points = (np.asarray(a, dtype=np.int64) for a in holders)
    secrets = np.asarray(secrets, dtype=np.int64) % p
    coeffs = np.asarray(coeffs, dtype=np.int64)
    taus = np.asarray(taus, dtype=np.int64)
    sizes = np.diff(indptr)
    dim = secrets.shape[1]
    m = len(points)
    terms = 1 + int(taus.max(initial=0))
    limbs, bits = _limb_split(p, terms)
    scale = np.array([2 ** (bits * i) % p for i in range(limbs)])[:, None]
    small = m * limbs * terms <= len(slot) * dim  # powers at every point, within the shares' size
    table = _power_table(points, terms, limbs, bits, p).reshape(m, limbs, terms) if small else None
    # The sets in block order; entries[h] is the row of out that their h-th
    # holder takes.
    wide = 2 * sizes >= m
    level = -np.frexp(sizes)[1] * ~wide  # minus the size's bit length, 0 if wide
    order = np.lexsort((np.where(wide, 0, -sizes), np.where(wide, 0, -taus), level, ~wide))
    order = order[sizes[order] > 0]
    entries = _ranges(indptr[order], sizes[order])
    # The row of coeffs just before each set's drawn coefficients.
    before = (np.cumsum(taus) - taus - 1)[order]
    sizes = sizes[order]
    slot = slot[entries]
    taus = taus[order]
    held = np.append(np.cumsum(sizes) - sizes, len(slot))
    run_ends = np.append(np.flatnonzero(np.diff(level[order])) + 1, len(order))
    run_ends = np.repeat(run_ends, np.diff(run_ends, prepend=0))  # the end of each set's run
    out = np.empty((len(slot), dim), dtype=np.int64)
    out_rows = _as_rows(out)
    a = 0
    while a < len(order):
        # Entries per set of a block's temporaries: its coefficients (K * n,
        # twice) and its products at its holders (K powers each) or at every
        # point. An all-point block, one BLAS product that packs its operands
        # into buffers of its own, gets a quarter of the entries.
        span = limbs * (1 + int(taus[a]))
        b = min(a + max(1, _BLOCK_ENTRIES // (4 * (2 * span + m) * dim)), len(order))
        all_points = table is not None and m * (b - a) <= 2 * (held[b] - held[a])
        if not all_points:
            width = int(sizes[a])
            per = max(1, _BLOCK_ENTRIES // ((width + 2 * dim) * span + width * dim))
            b = min(a + per, run_ends[a])
        size = b - a
        t = 1 + int(taus[a:b].max())
        span = limbs * t  # K
        # Row m of coeff is each set's coefficient m: the secret for m = 0,
        # zero above the set's tau. Row i * t + m of the (K, size, n) block
        # is its limb i.
        powers = np.arange(1, t)[:, None]
        coeff = np.empty((t, size, dim), dtype=np.int64)
        coeff[0] = secrets[order[a:b]]
        np.take(coeffs, before[a:b] + powers, axis=0, out=coeff[1:], mode="clip")
        coeff[1:][powers > taus[a:b]] = 0
        block = np.empty((limbs, t, size, dim))
        for i in range(limbs):
            block[i] = (coeff >> (bits * i)) & ((1 << bits) - 1)
        block = block.reshape(span, size, dim)
        if all_points:
            vals = table[:, :, :t].reshape(m, span) @ block.reshape(span, size * dim)
            at = slot[held[a] : held[b]] * size + np.repeat(np.arange(size), sizes[a:b])
            vals = np.take(vals.reshape(-1, dim), at, axis=0).astype(np.int64)
            out_rows[entries[held[a] : held[b]]] = _as_rows(vals)
        else:  # a chunk of holders at a time, each set's last repeated to the width
            width = int(sizes[a:b].max())
            rows = held[a:b, None] + np.minimum(np.arange(width), sizes[a:b, None] - 1)
            block = block.transpose(1, 0, 2)
            per_holder = span
            if table is None:
                # Powers built here (limb 0) meet each limb in its own product.
                block = block.reshape(size, limbs, t, dim).transpose(0, 2, 1, 3)
                block = block.reshape(size, t, limbs * dim)
                per_holder = t + limbs * dim
            step = max(1, _BLOCK_ENTRIES // (size * per_holder))
            for j in range(0, width, step):
                sub = rows[:, j : j + step].ravel()
                if table is None:
                    pw = _power_table(points[slot[sub]], t, 1, bits, p)
                    vals = np.matmul(pw.reshape(size, -1, t), block).reshape(-1, limbs, dim)
                    vals = (vals.astype(np.int64) % p * scale % p).sum(axis=1)
                    out_rows[entries[sub]] = _as_rows(vals)
                else:
                    pw = table[slot[sub], :, :t].reshape(size, -1, span)
                    vals = np.matmul(pw, block).reshape(-1, dim).astype(np.int64)
                    out_rows[entries[sub]] = _as_rows(vals)
        a = b
    out %= p
    return out
