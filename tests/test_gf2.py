import random

from spekcat import gf2


def sorting_rref(rows, ncols):
    """Reference: the elimination that re-sorted its basis after each row."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    for i, row in enumerate(basis):
        pivot = 1 << (row.bit_length() - 1)
        for j in range(len(basis)):
            if j != i and basis[j] & pivot:
                basis[j] ^= row
    basis.sort(reverse=True)
    return basis


def random_rows(rng, nrows, ncols):
    """Sparse or dense rows; some are sums of two earlier ones, so the rank
    is often short of the row count."""
    density = rng.choice((0.05, 0.3, 0.5))
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            rows.append(rng.choice(rows) ^ rng.choice(rows))
        else:
            rows.append(sum(1 << c for c in range(ncols)
                            if rng.random() < density))
    return rows


def test_rref_matches_reference_on_random_matrices():
    rng = random.Random(0)
    for _ in range(500):
        ncols = rng.randint(1, 40)
        rows = random_rows(rng, rng.randint(0, 64), ncols)
        assert gf2.rref(rows, ncols) == sorting_rref(rows, ncols)


def test_rref_is_reduced():
    reduced = gf2.rref([0b1101, 0b0110, 0b0011, 0b0000, 0b1101], 4)
    leads = [r.bit_length() - 1 for r in reduced]
    assert leads == sorted(leads, reverse=True) and len(leads) == 3
    for lead in leads:
        assert sum(r >> lead & 1 for r in reduced) == 1
