"""Small GF(2) linear algebra on int-bitmask rows (bit i = variable i)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def _pivots(rows) -> Dict[int, int]:
    """Forward elimination: each leading bit -> the one row leading there."""
    pivots = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return pivots


def rank(rows) -> int:
    """The dimension of the rows' span, by forward elimination alone."""
    return len(_pivots(rows))


def rref(rows) -> List[int]:
    """Reduced row echelon form, rows in decreasing order; zero rows are
    dropped."""
    pivots = _pivots(rows)
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


def span(vectors) -> List[int]:
    """The sum of every subset of the vectors, the empty sum first."""
    sums = [0]
    for v in vectors:
        sums += [s ^ v for s in sums]
    return sums


def kernel(reduced, ncols) -> List[int]:
    """A kernel basis of reduced rows (each pivot in one row only) over
    ncols columns: per free column f, f plus the pivots of the rows that
    hold f.  Each row's free bits are read once, from the top down."""
    pivots = 0
    held = {}                    # free column -> the pivots of rows holding it
    for row in reduced:
        pivot = 1 << row.bit_length() - 1
        pivots |= pivot
        row ^= pivot
        while row:
            top = row.bit_length() - 1
            held[top] = held.get(top, 0) | pivot
            row ^= 1 << top
    basis = []
    for f in range(ncols):
        if not pivots >> f & 1:
            basis.append(1 << f | held.get(f, 0))
    return basis


def solve(rows, rhs, ncols) -> Optional[Tuple[int, List[int]]]:
    """One solution of A x = b and a kernel basis of A, or None when A x = b
    has no solution.  The solutions are the particular one plus every sum
    of kernel vectors.  Both come from one elimination of the augmented
    rows (bit 0 holds b): when no pivot lies in bit 0, the reduced rows
    shifted right by one are those of A."""
    reduced = rref([(r << 1) | (1 if b else 0) for r, b in zip(rows, rhs)])
    if reduced and reduced[-1] == 1:
        return None
    particular = sum((row & 1) << (row.bit_length() - 2) for row in reduced)
    return particular, kernel([row >> 1 for row in reduced], ncols)
