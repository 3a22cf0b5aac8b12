"""Small GF(2) linear algebra on int-bitmask rows (bit i = variable i)."""

from __future__ import annotations

from typing import List, Optional, Tuple


def rref(rows, ncols) -> List[int]:
    """Reduced row echelon form; zero rows are dropped."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    # back-substitute so each pivot appears in exactly one row
    for i, row in enumerate(basis):
        pivot = 1 << (row.bit_length() - 1)
        for j in range(len(basis)):
            if j != i and basis[j] & pivot:
                basis[j] ^= row
    basis.sort(reverse=True)
    return basis


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
