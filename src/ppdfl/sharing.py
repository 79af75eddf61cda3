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

The kernels work on a batch of holder sets at once: one set per row of an
int64 array, padded with zeros to the widest set. 0 is never a holder id,
so it marks padding. Interpolation weights are int64 products reduced mod
p as they go. A set holding more than half of the batch's distinct ids is
weighted from its complement, through the weights of all those ids; the
other sets loop over their own slots. Coefficients of every set come from
one Philox4x64-10 key per batch, each set on counters of its own. Shares
are float64 matrix products, holder powers times coefficients split into
limbs, exact because every partial sum is an integer of at most 2**53
(see _limb_split); one reduction mod p at the end turns them into
residues. Blocks of sets whose holders cover most of the distinct ids are
evaluated at every id in one product, the others at their own holders.
"""

from __future__ import annotations

import numpy as np

from .field import _inverse_int

# Entries of the temporaries of a block of either kernel together (512 KB
# of float64 or int64): the share evaluation's powers, limb-split
# coefficients and products, and the all-id weights' difference rows,
# hold at most this many for a block, unless one set or row alone needs
# more. The float64 products are exact whatever the block size, since
# _limb_split bounds every partial sum by 2**53.
_BLOCK_ENTRIES = 2**16

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


def _lazy_steps(p: int, bound: int) -> int:
    """How many times a residue below p can be multiplied by an integer of
    magnitude at most bound and have a residue added, before int64 needs it
    reduced again: the largest r >= 1 with p * (bound + 1)**r < 2**63."""
    r = 1
    while p * (max(bound, 1) + 1) ** (r + 1) < 2**63:
        r += 1
    return r


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an array: np.unique's values, from
    one sort."""
    s = np.sort(a, axis=None)
    return s[np.concatenate([[True], s[1:] != s[:-1]])]


def _row_products(f: np.ndarray, p: int) -> np.ndarray:
    """Products mod p along the last axis of an array of residues, by
    pairwise halving: log2 of its length multiplies of half the entries."""
    while f.shape[-1] > 1:
        h = f.shape[-1] // 2
        head = f[..., :h] * f[..., h : 2 * h] % p
        if f.shape[-1] % 2:
            head[..., 0] = head[..., 0] * f[..., -1] % p
        f = head
    return f[..., 0] if f.shape[-1] else np.ones(f.shape[:-1], dtype=np.int64)


def _all_id_denominators(u: np.ndarray, p: int) -> np.ndarray:
    """u_j prod_{k != j} (u_k - u_j) mod p for every entry of u, distinct
    ids: rows of the difference matrix with u_j on the diagonal, a block
    of rows of at most _BLOCK_ENTRIES entries at a time."""
    m = len(u)
    out = np.empty(m, dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // max(1, m))
    for a in range(0, m, step):
        b = min(a + step, m)
        diff = (u - u[a:b, None]) % p
        diff[np.arange(b - a), np.arange(a, b)] = u[a:b]
        out[a:b] = _row_products(diff, p)
    return out


def _slot_loop(x: np.ndarray, present: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(num, den) of a batch of sets, slot by slot: num[r] = prod of row r's
    ids and den_j = x_j prod_{k != j} (x_k - x_j), each mod p, in row-major
    order over the holders. Every factor has magnitude below the largest
    id, so den is reduced mod p only every _lazy_steps factors."""
    lazy = _lazy_steps(p, int(x.max(initial=0)))
    num = np.ones(len(x), dtype=np.int64)
    den = np.ones_like(x)
    for k in range(x.shape[1]):
        xk = x[:, k]
        factor = xk[:, None] - x
        factor[:, k] = xk
        # A padding slot contributes no factor to its row.
        np.multiply(den, factor, out=den, where=present[:, k, None])
        num = np.where(present[:, k], num * xk % p, num)
        if (k + 1) % lazy == 0:
            den %= p
    return num, den[present] % p


def interpolation_weights(holders: np.ndarray, p: int) -> np.ndarray:
    """Interpolation weights of every holder set in a batch.

    holders is a (..., s) int64 array with one holder set per row: distinct
    ids in [1, p), padded with zeros. Returns an int64 array of the same
    shape holding delta(C, x_j) at each holder's slot and 0 at padding.

    Let U be the batch's m distinct ids. A set C is dense when |C| > m/2;
    its weights come from those of U through its complement (the
    barycentric-weight relation, Berrut & Trefethen, SIAM Review 2004):

        delta(C, j) = delta(U, j) prod_{k in U \\ C} (u_k - u_j) / u_k,

    with delta(U, j) = prod_U u_k / (u_j prod_{k != j} (u_k - u_j)), so a
    dense set loops over its complement's slots rather than its own. Any
    other set takes delta_j = prod_C x_k / (x_j prod_{k != j} (x_k - x_j))
    slot by slot (see _slot_loop), packed to the widest such set. Every
    denominator of the call -- U's, the complements' prod u_k and the other
    sets' own -- is inverted with one modular inversion.
    """
    x = np.asarray(holders, dtype=np.int64)
    if x.size and (x.min() < 0 or x.max() >= p):
        raise ValueError(f"holder ids must lie in [1, {p})")
    rows = x.reshape(-1, x.shape[-1])
    present = rows != 0
    sizes = present.sum(axis=1)
    u = _distinct(rows)
    u = u[u != 0]
    dense = 2 * sizes > len(u)
    sparse = ~dense & (sizes > 0)
    dens = []  # every denominator of the call, inverted together

    if sparse.any():
        xs, ps = rows[sparse], present[sparse]
        width = int(sizes[sparse].max())
        if width < rows.shape[1]:  # pack each row's holders to the front
            order = np.argsort(~ps, axis=1, kind="stable")[:, :width]
            xs, ps = np.take_along_axis(xs, order, 1), np.take_along_axis(ps, order, 1)
        num_s, den = _slot_loop(xs, ps, p)
        if not den.all():
            raise ValueError("holder ids within a set must be distinct")
        dens.append(den)

    if dense.any():
        # Dense rows, longest complement first, so that pass k of the loop
        # below touches a leading run of them.
        missing = len(u) - sizes
        dense_rows = np.flatnonzero(dense)
        dense_rows = dense_rows[np.argsort(-missing[dense_rows], kind="stable")]
        missing = missing[dense_rows]
        xd, pd = rows[dense_rows], present[dense_rows]
        at = np.searchsorted(u, xd)  # each holder's index in U
        member = np.zeros((len(xd), len(u)), dtype=bool)
        member[np.nonzero(pd)[0], at[pd]] = True
        if (member.sum(axis=1) < sizes[dense_rows]).any():
            raise ValueError("holder ids within a set must be distinct")
        # Each dense row's complement in U, increasing, padded at the end.
        width = int(missing[0])
        comp = u[np.argsort(member, axis=1, kind="stable")[:, :width]]
        live = np.count_nonzero(missing[:, None] > np.arange(width), axis=0)
        lazy = _lazy_steps(p, int(u[-1]))
        fac = np.ones_like(xd)  # prod over the complement of (u_k - x_j)
        for k, r in enumerate(live.tolist()):
            head = fac[:r]
            head *= comp[:r, k, None] - xd[:r]
            if (k + 1) % lazy == 0:
                head %= p
        comp_prod = _row_products(np.where(np.arange(width) < missing[:, None], comp, 1), p)
        dens += [_all_id_denominators(u, p), comp_prod]

    weights = np.zeros_like(rows)
    if not dens:
        return weights.reshape(x.shape)
    inv = _batch_inverse(np.concatenate(dens), p)
    inv = np.split(inv, np.cumsum([len(d) for d in dens])[:-1])
    if sparse.any():
        weights[present & sparse[:, None]] = np.repeat(num_s, sizes[sparse]) * inv[0] % p
    if dense.any():
        inv_u, inv_comp = inv[-2:]
        num_u = _row_products(u[None], p)[0]
        w = num_u * inv_u[at] % p * (fac % p) % p * inv_comp[:, None] % p
        weights[dense_rows] = np.where(pd, w, 0)
    return weights.reshape(x.shape)


def _stream_blocks(need: np.ndarray, accept: float) -> np.ndarray:
    """Philox blocks of eight candidates to draw first for sets needing
    need[i] kept values each, a candidate being kept with probability
    accept: room for the expected rejections plus five standard
    deviations, rounded down. A set that falls short draws as many
    again."""
    lost = need * (1 - accept)
    spare = np.floor((lost + 5 * np.sqrt(lost)) / accept)
    return np.ceil((need + spare) / 8).astype(np.int64)


def _coefficient_streams(key, taus, n: int, p: int) -> np.ndarray:
    """Uniform residues for the polynomials of a batch of sets, from one
    128-bit Philox key: an (n, sum(taus)) int64 matrix whose columns
    [T_i, T_i + tau_i), T_i = sum of the taus before set i, hold set i's
    (n, tau_i) coefficients; row l holds c_1..c_tau_i of coordinate l's
    polynomial.

    Set i (counting from 1) draws Philox4x64-10 blocks j = 0, 1, ... on
    counter (j, i, 0, 0) (Salmon et al., "Parallel random numbers: as easy
    as 1, 2, 3", SC 2011). Each block's four words give eight 32-bit
    halves, low half first; each is masked to bitlength(p - 1) bits and
    kept only if it is below p (< 2**32), so every kept value is exactly
    uniform on [0, p). Set i's coefficients are its first n * tau_i kept
    values, row by row: they depend on (key, i, n, tau_i) alone. Uniform
    coefficients are what make any tau shares carry zero information about
    the secret; restricting the top coefficient away from zero would skew
    the share distribution by an s-dependent exclusion.

    One np.random.Philox under the key serves every set, moved to the
    set's counters with advance: numpy adds one to its counter before each
    block, so set i's block 0 follows counter i * 2**64 - 1. A set draws
    the blocks _stream_blocks expects it to need, and as many again until
    it has enough.
    """
    if p >= 2**32:
        raise ValueError(f"modulus {p} does not fit 32-bit candidates")
    taus = np.asarray(taus, dtype=np.int64)
    bits = max(1, (p - 1).bit_length())
    mask = np.uint32((1 << bits) - 1)
    blocks = _stream_blocks(n * taus, p / 2**bits)
    out = np.empty((n, int(taus.sum())), dtype=np.int64)
    gen, at, start = np.random.Philox(key=key), 0, 0  # at: numpy's counter
    for i, (tau, count) in enumerate(zip(taus.tolist(), blocks.tolist()), start=1):
        gen.advance(i * 2**64 - 1 - at)
        at = i * 2**64 - 1
        kept = np.empty(0, dtype=np.uint32)
        while len(kept) < n * tau:
            halves = gen.random_raw(4 * count).astype("<u8", copy=False).view("<u4") & mask
            kept = np.concatenate([kept, halves[halves < np.uint32(p)]])
            at += count
        out[:, start : start + tau] = kept[: n * tau].reshape(n, tau)
        start += tau
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
    coefficient m multiplies. Columns [h, 2h) of x**m are columns [0, h)
    times x**h, so terms - 1 multiplies mod p fill a row."""
    x = ids % p
    table = np.empty((len(ids), limbs, terms), dtype=np.int64)
    powers = table[:, 0]
    powers[:, 0] = 1
    h = 1
    while h < terms:
        k = min(h, terms - h)
        x_h = powers[:, h - 1] * x % p
        np.multiply(powers[:, :k], x_h[:, None], out=powers[:, h : h + k])
        np.remainder(powers[:, h : h + k], p, out=powers[:, h : h + k])
        h += k
    for i in range(1, limbs):
        table[:, i] = table[:, i - 1] * (2**bits % p) % p
    return table.reshape(len(ids), limbs * terms).astype(np.float64)


def _generate_share_values(
    secrets: np.ndarray, coeffs: np.ndarray, taus, holders: np.ndarray, p: int
) -> np.ndarray:
    """The share table of a batch of holder sets: every set's polynomials
    evaluated at each of its holders.

    secrets is (G, n) and holders (G, s), zero-padded; coeffs is the
    (n, sum(taus)) matrix of residues whose columns [T_g, T_g + taus[g])
    belong to set g, as _coefficient_streams lays them out. Set g's
    polynomial for coordinate l is H(x) = secrets[g, l] +
    sum_m coeffs[l, T_g + m - 1] x^m. Returns (E, n) int64 with one row
    per nonzero holder, in row-major order: row e holds H at that holder
    for every coordinate.

    Every coefficient, the secret as coefficient 0, is split into limbs of
    b bits (see _limb_split), and limb i of coefficient m meets
    2**(b i) x^m mod p from a table over the m' distinct ids, so a set's
    coefficient block is (K, n) with K = limbs * (1 + max tau_g), and one
    reduction mod p recombines the limbs. Each product is below 2**b * p
    and K of them sum to at most 2**53, so every partial sum is an exact
    integer in whatever order BLAS adds. Sets of lower degree leave their
    high coefficients zero.

    Sets are evaluated in blocks whose temporaries together hold at most
    _BLOCK_ENTRIES entries. Where evaluating a block's sets at all m' ids
    costs at most twice the work at their own holders (m' times the sets
    <= 2 times the holders), one (m', K) @ (K, sets * n) product does it
    and each holder's entries are picked out; otherwise each set's (s, K)
    powers of its holders meet its block in one batched product, and
    padded holder slots are evaluated and dropped.
    """
    holders = np.asarray(holders, dtype=np.int64)
    secrets = np.asarray(secrets, dtype=np.int64) % p
    coeffs = np.asarray(coeffs, dtype=np.int64)
    taus = np.asarray(taus, dtype=np.int64)
    n_sets, width = holders.shape
    dim = secrets.shape[1]
    terms = 1 + int(taus.max(initial=0))
    limbs, bits = _limb_split(p, terms)
    span = limbs * terms  # K, the rows of a set's coefficient block
    ids = _distinct(holders)
    table = _power_table(ids, terms, limbs, bits, p)
    slots = np.searchsorted(ids, holders)
    starts = np.concatenate([[0], np.cumsum(np.count_nonzero(holders, axis=1))])
    col_starts = np.concatenate([[0], np.cumsum(taus)])
    out = np.empty((starts[-1], dim), dtype=np.int64)
    mask = (1 << bits) - 1
    m = np.arange(terms)[:, None]
    # Entries per set of a block's temporaries: its limb-split coefficients
    # and its coefficient block (at most K * n each), and its products, at
    # its padded holders (whose K powers each are gathered) or at every id.
    # An all-id block is one BLAS product, which packs its operands into
    # buffers of its own; it gets a quarter of the entries, which on
    # large_random.json keeps peak RSS at the gathered path's (a whole
    # budget adds about 1 MB) and runs no slower.
    per_gathered = max(1, _BLOCK_ENTRIES // ((width + 2 * dim) * span + width * dim))
    per_all = max(1, _BLOCK_ENTRIES // (4 * (2 * span + len(ids)) * dim))
    a = 0
    while a < n_sets:
        b = min(a + per_all, n_sets)
        all_ids = len(ids) * (b - a) <= 2 * (starts[b] - starts[a])
        if not all_ids:
            b = min(a + per_gathered, n_sets)
        size = b - a
        # src[i] holds limb i of the block's secrets, of its drawn
        # coefficients and of zero, and src_rows[m, g] is the row of
        # coefficient m of the block's set g: the secret for m = 0, a
        # drawn coefficient up to taus[g], zero above. The block's
        # (K * size, n) coefficients hold limb i of it at row
        # (i * terms + m) * size + g.
        cols = coeffs[:, col_starts[a] : col_starts[b]].T
        src = np.zeros((limbs, size + len(cols) + 1, dim))
        for i in range(limbs):
            src[i, :size] = (secrets[a:b] >> (bits * i)) & mask
            src[i, size:-1] = (cols >> (bits * i)) & mask
        first = col_starts[a:b] - col_starts[a] + size - 1
        src_rows = np.where(m <= taus[a:b], first + m, src.shape[1] - 1)
        src_rows[0] = np.arange(size)
        block = np.take(src, src_rows.ravel(), axis=1)
        kept = np.flatnonzero(holders[a:b])  # the block's holders, row-major
        if all_ids:
            vals = table @ block.reshape(span, size * dim)
            at = slots[a:b].ravel()[kept] * size + kept // width
        else:
            vals = np.matmul(table[slots[a:b]], block.reshape(span, size, dim).transpose(1, 0, 2))
            at = kept
        out[starts[a] : starts[b]] = np.take(vals.reshape(-1, dim), at, axis=0)
        a = b
    out %= p
    return out
