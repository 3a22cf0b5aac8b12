"""Small GF(2) linear algebra on int-bitmask rows (bit i = variable i)."""

from __future__ import annotations

from typing import List, Optional, Tuple


def rref(rows, ncols) -> List[int]:
    """Reduced row echelon form, rows in decreasing order; zero rows are
    dropped."""
    pivots = {}                  # leading bit -> the one row leading there
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    # back-substitute, lowest pivot first, so each pivot appears in exactly
    # one row.  A reduced row is zero at every other lower pivot, so
    # clearing one pivot bit leaves the others as they were.
    reduced = {}
    lower = 0                    # the bits of the pivots reduced so far
    for lead in sorted(pivots):
        row = pivots[lead]
        hits = row & lower
        while hits:
            p = hits.bit_length() - 1
            row ^= reduced[p]
            hits ^= 1 << p
        reduced[lead] = row
        lower |= 1 << lead
    return sorted(reduced.values(), reverse=True)


def rank(rows, ncols) -> int:
    return len(rref(rows, ncols))


def is_consistent(rows, rhs, ncols) -> bool:
    """Whether A x = b is solvable; rows are coefficient masks, rhs bits."""
    return solve(rows, rhs, ncols) is not None


def kernel_basis(rows, ncols) -> List[int]:
    """Basis of the null space of A (coefficient masks over ncols variables)."""
    reduced = rref(rows, ncols)
    pivots = {r.bit_length() - 1 for r in reduced}
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = 1 << f
        for row in reduced:
            if row & (1 << f):
                vec |= 1 << (row.bit_length() - 1)
        basis.append(vec)
    return basis


def solve(rows, rhs, ncols) -> Optional[Tuple[int, List[int]]]:
    """One solution of A x = b and a kernel basis of A, or None when A x = b
    has no solution.  The solutions are the particular one plus every sum
    of kernel vectors."""
    aug = [(r << 1) | (1 if b else 0) for r, b in zip(rows, rhs)]
    reduced = rref(aug, ncols + 1)
    if reduced and reduced[-1] == 1:
        return None
    particular = 0
    for row in reduced:
        if row & 1:
            particular |= 1 << (row.bit_length() - 2)
    return particular, kernel_basis(rows, ncols)
