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
        assert gf2.rref(rows) == sorting_rref(rows, ncols)


def test_rank_is_the_reference_basis_size():
    rng = random.Random(1)
    for _ in range(500):
        ncols = rng.randint(1, 40)
        rows = random_rows(rng, rng.randint(0, 64), ncols)
        assert gf2.rank(rows) == len(sorting_rref(rows, ncols))
    assert gf2.rank([]) == gf2.rank([0, 0]) == 0


def test_rref_is_reduced():
    reduced = gf2.rref([0b1101, 0b0110, 0b0011, 0b0000, 0b1101])
    leads = [r.bit_length() - 1 for r in reduced]
    assert leads == sorted(leads, reverse=True) and len(leads) == 3
    for lead in leads:
        assert sum(r >> lead & 1 for r in reduced) == 1


def two_elimination_solve(rows, rhs, ncols):
    """Reference: the solve that eliminated the augmented rows for its
    particular solution, then the rows of A again for its kernel basis."""
    reduced = gf2.rref([(r << 1) | (1 if b else 0) for r, b in zip(rows, rhs)])
    if reduced and reduced[-1] == 1:
        return None
    particular = 0
    for row in reduced:
        if row & 1:
            particular |= 1 << (row.bit_length() - 2)
    reduced = gf2.rref(rows)
    pivots = {r.bit_length() - 1 for r in reduced}
    kernel = []
    for f in range(ncols):
        if f not in pivots:
            vec = 1 << f
            for row in reduced:
                if row & (1 << f):
                    vec |= 1 << (row.bit_length() - 1)
            kernel.append(vec)
    return particular, kernel


def parity(x):
    return bin(x).count("1") & 1


def test_solve_matches_two_eliminations_on_random_systems():
    rng = random.Random(1)
    outcomes = set()
    for _ in range(2000):
        ncols = rng.randint(0, 24)
        rows = random_rows(rng, rng.randint(0, 32), ncols)
        if rng.random() < 0.5:       # consistent: the image of some x
            x = rng.getrandbits(ncols) if ncols else 0
            rhs = [parity(r & x) for r in rows]
        else:                        # any right-hand side
            rhs = [rng.getrandbits(1) for _ in rows]
        got = gf2.solve(rows, rhs, ncols)
        assert got == two_elimination_solve(rows, rhs, ncols)
        outcomes.add((got is None, ncols == 0, not rows))
        if got is not None:
            particular, kernel = got
            assert [parity(r & particular) for r in rows] == rhs
            assert all(parity(r & k) == 0 for r in rows for k in kernel)
            assert len(kernel) == ncols - len(gf2.rref(rows))
    # consistent and inconsistent systems, with and without columns or rows
    assert {(False, True, True), (False, True, False), (True, True, False),
            (False, False, True), (False, False, False),
            (True, False, False)} <= outcomes


def test_kernel_of_reduced_rows_is_a_null_space_basis():
    rng = random.Random(2)
    ranks = set()
    for _ in range(2000):
        ncols = rng.randint(0, 10)
        reduced = gf2.rref(random_rows(rng, rng.randint(0, 12), ncols))
        rng.shuffle(reduced)            # the order of the rows is free
        kernel = gf2.kernel(reduced, ncols)
        assert all(parity(r & k) == 0 for r in reduced for k in kernel)
        assert len(gf2.rref(kernel)) == len(kernel)
        assert len(kernel) == ncols - len(reduced)
        ranks.add((len(reduced), len(kernel)))
    assert {(0, 0), (0, 10), (10, 0)} <= ranks


def scanning_kernel(reduced, ncols):
    """Reference: the kernel that tested every reduced row at every free
    column."""
    pivots = 0
    for row in reduced:
        pivots |= 1 << row.bit_length() - 1
    basis = []
    for f in range(ncols):
        if not pivots >> f & 1:
            vec = 1 << f
            for row in reduced:
                if row >> f & 1:
                    vec |= 1 << row.bit_length() - 1
            basis.append(vec)
    return basis


def test_kernel_matches_the_scanning_reference():
    rng = random.Random(4)
    for _ in range(20000):
        ncols = rng.randint(0, 40)
        reduced = gf2.rref(random_rows(rng, rng.randint(0, 48), ncols))
        rng.shuffle(reduced)
        assert gf2.kernel(reduced, ncols) == scanning_kernel(reduced, ncols)


def test_solve_matches_brute_force_on_random_systems():
    rng = random.Random(3)
    for _ in range(500):
        ncols = rng.randint(0, 10)
        rows = random_rows(rng, rng.randint(0, 12), ncols)
        rhs = [rng.getrandbits(1) for _ in rows]
        if rng.random() < 0.5:       # consistent: the image of some x
            x = rng.getrandbits(ncols) if ncols else 0
            rhs = [parity(r & x) for r in rows]
        want = {x for x in range(1 << ncols)
                if [parity(r & x) for r in rows] == rhs}
        got = gf2.solve(rows, rhs, ncols)
        if got is None:
            assert not want
        else:
            particular, kernel = got
            assert {particular ^ s for s in gf2.span(kernel)} == want
            assert len(want) == 1 << len(kernel)


def set_bits(x):
    """The indices of x's set bits, lowest first."""
    return [i for i in range(x.bit_length()) if x >> i & 1]


def random_words(rng):
    """0, single bits and seeded random words, some wider than 64 bits."""
    words = [0, 1, 1 << 63, 1 << 64, 1 << 199]
    for width in (1, 8, 63, 64, 65, 130, 200):
        words += [rng.getrandbits(width) for _ in range(20)]
    return words


def test_xor_at_bits_matches_a_per_bit_loop():
    rng = random.Random(5)
    labels = [rng.getrandbits(100) for _ in range(200)]
    for table in (labels, dict(enumerate(labels))):
        for x in random_words(rng):
            want = 0
            for i in set_bits(x):
                want ^= table[i]
            assert gf2.xor_at_bits(table, x) == want
    assert gf2.xor_at_bits([], 0) == gf2.xor_at_bits({}, 0) == 0
    assert gf2.xor_at_bits({7: 5}, 1 << 7) == 5


def test_scatter_matches_a_per_bit_loop():
    rng = random.Random(6)
    for make in (list, lambda values: dict(enumerate(values))):
        table, want = make([0] * 200), [0] * 200
        for x in random_words(rng):
            label = rng.getrandbits(80)
            gf2.scatter(table, x, label)
            for i in set_bits(x):
                want[i] ^= label
            assert [table[i] for i in range(200)] == want
    table = {3: 1}
    gf2.scatter(table, 0, 9)
    assert table == {3: 1}
