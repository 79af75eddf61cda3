import random

import numpy as np
import pytest

from ppdfl.field import (
    PrimeModulus,
    _inverse_int,
    _reduce_vector,
    _rref,
    is_prime,
    next_prime,
)


def brute_force_inverse(a, p):
    # independent oracle: exhaustive search over Z_p
    hits = np.flatnonzero(np.arange(p, dtype=np.int64) * a % p == 1)
    assert len(hits) == 1, f"{a} has no unique inverse mod {p}"
    return int(hits[0])


def rank(rows, p):
    return len(_rref(rows, p)[1])


def spans(rows, vector, p):
    reduced, pivots = _rref(rows, p)
    return not _reduce_vector(vector, reduced[: len(pivots)], pivots, p).any()


def reference_rref(rows, p):
    """Independent oracle: textbook Gauss-Jordan on Python ints, taking the
    first nonzero row at or below the pivot row in every column."""
    rows = [[x % p for x in r] for r in rows]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        lead = rows[r]
        for i in range(n_rows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def reference_reduce(vec, rows, pivots, p):
    v = [x % p for x in vec]
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def test_primality_helpers():
    assert is_prime(2) and is_prime(11) and is_prime(1020431)
    assert not is_prime(1) and not is_prime(9) and not is_prime(2**20)
    assert next_prime(10) == 11
    assert next_prime(1020430) == 1020431


def test_modulus_validation():
    with pytest.raises(ValueError):
        PrimeModulus(10)
    with pytest.raises(ValueError):
        PrimeModulus(2**31 + 11)  # too wide, even if prime
    with pytest.raises(TypeError):
        PrimeModulus(11.0)
    assert PrimeModulus(2**31 - 1).p == 2**31 - 1


def test_inverse_identity():
    assert _inverse_int(1, 11) == 1


def test_inverse_examples_vs_exhaustive_search():
    assert _inverse_int(2, 11) == brute_force_inverse(2, 11) == 6
    assert _inverse_int(10, 11) == brute_force_inverse(10, 11) == 10
    assert 10 * 10 % 11 == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        _inverse_int(0, 11)
    with pytest.raises(ZeroDivisionError):
        _inverse_int(22, 11)


def test_inverse_property_random():
    rng = random.Random(11)
    for p in (11, 101, 65537, 1020431):
        for _ in range(50):
            a = rng.randrange(1, p)
            assert _inverse_int(a, p) * a % p == 1
        for _ in range(3):
            a = rng.randrange(1, p)
            assert _inverse_int(a, p) == brute_force_inverse(a, p)


def test_field_axioms_random():
    # int64 residue arrays obey the field laws exactly, reducing after
    # every product, up to the widest modulus PrimeModulus admits
    rng = np.random.default_rng(5)
    for p in (11, 1020431, 2**31 - 1):
        a, b, c = rng.integers(0, p, size=(3, 200), dtype=np.int64)
        assert (((a + b) % p + c) % p == (a + (b + c) % p) % p).all()
        assert ((a * b % p) * c % p == a * (b * c % p) % p).all()
        assert (a * ((b + c) % p) % p == (a * b % p + a * c % p) % p).all()
        assert ((a + (p - a)) % p == 0).all()
        expected = [x * y % p for x, y in zip(a.tolist(), b.tolist())]
        assert (a * b % p).tolist() == expected


def test_field_element_reduces_and_divides():
    # residues outside [0, p) are reduced before inversion
    assert _inverse_int(-3, 11) == _inverse_int(8, 11) == 7
    assert _inverse_int(13, 11) == _inverse_int(2, 11)
    assert 5 * _inverse_int(2, 11) % 11 == 5 * 6 % 11


def test_row_reduce_identity():
    reduced, pivots = _rref([[1, 0], [0, 1]], 11)
    assert pivots == [0, 1]
    assert reduced.tolist() == [[1, 0], [0, 1]]


def test_row_reduce_dependent_rows():
    assert rank([[1, 2], [2, 4]], 11) == 1


def test_row_reduce_hand_elimination():
    # [[1,1,0],[0,1,1]] over GF(5): subtract row 2 from row 1
    reduced, pivots = _rref([[1, 1, 0], [0, 1, 1]], 5)
    assert pivots == [0, 1]
    assert reduced.tolist() == [[1, 0, 4], [0, 1, 1]]


def test_rank_invariant_under_row_shuffles():
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.randrange(11) for _ in range(4)] for _ in range(3)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(rows, 11) == rank(shuffled, 11)


def test_row_space_membership():
    rows = [[1, 1]]
    assert spans(rows, [0, 0], 5)
    assert spans(rows, [2, 2], 5)
    assert not spans(rows, [1, 0], 5)  # no scalar c with c*(1,1) == (1,0)


def test_row_space_invariant_under_row_operations():
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randrange(11) for _ in range(5)] for _ in range(3)]
        # add a multiple of row 0 to row 1: row space unchanged
        f = rng.randrange(11)
        rows2 = [rows[0][:], [(a + f * b) % 11 for a, b in zip(rows[1], rows[0])],
                 rows[2][:]]
        probe = [rng.randrange(11) for _ in range(5)]
        assert spans(rows, probe, 11) == spans(rows2, probe, 11)


def random_system(rng, p, n_rows, n_cols, n_rhs):
    """Random augmented matrix mixing sparse and dense rows, all-(p-1) rows
    and combinations of earlier rows, so the rank often falls short."""
    density = rng.choice([0.05, 0.3, 1.0])
    a = rng.integers(0, p, size=(n_rows, n_cols), dtype=np.int64)
    a[rng.random((n_rows, n_cols)) > density] = 0
    for i in range(n_rows):
        kind = rng.integers(4)
        if kind == 0:
            a[i] = p - 1
        elif kind == 1 and i >= 2:
            f, g = (int(x) for x in rng.integers(0, p, 2))
            a[i] = (f * a[i - 1] % p + g * a[i - 2] % p) % p
    # Every right-hand side but the last is a multiple of the first
    # coefficient column, so those systems are consistent.
    if n_cols > n_rhs:
        for k in range(n_cols - n_rhs, n_cols - 1):
            a[:, k] = a[:, 0] * (k + 1) % p
    return a


@pytest.mark.parametrize("p", [5, 11, 2**31 - 1])
def test_rref_matches_python_int_reference(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        n_rows, n_cols = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        n_rhs = min(int(rng.integers(1, 4)), n_cols)
        a = random_system(rng, p, n_rows, n_cols, n_rhs)
        rows, pivots = _rref(a, p)
        ref_rows, ref_pivots = reference_rref(a.tolist(), p)
        assert rows.dtype == np.int64
        assert pivots == ref_pivots
        assert rows.tolist() == ref_rows
        basis = rows[: len(pivots)]
        ref_basis = ref_rows[: len(ref_pivots)]
        for _ in range(5):
            in_span = bool(rng.integers(2))
            if in_span:
                vec = np.zeros(n_cols, dtype=np.int64)
                for f, row in zip(rng.integers(0, p, n_rows).tolist(), a):
                    vec = (vec + f * row) % p
            else:
                vec = rng.integers(0, p, size=n_cols, dtype=np.int64)
            residual = _reduce_vector(vec, basis, pivots, p)
            assert residual.tolist() == reference_reduce(
                vec.tolist(), ref_basis, ref_pivots, p
            )
            if in_span:
                assert not residual.any()


def test_rref_all_max_residue_entries_do_not_overflow():
    # every product in the elimination is (p-1)^2 ~ 2^62 at p = 2^31-1
    p = 2**31 - 1
    a = np.full((6, 9), p - 1, dtype=np.int64)
    a[np.arange(6), np.arange(6)] = 1
    rows, pivots = _rref(a, p)
    ref_rows, ref_pivots = reference_rref(a.tolist(), p)
    assert pivots == ref_pivots
    assert rows.tolist() == ref_rows
    assert (rows >= 0).all() and (rows < p).all()
