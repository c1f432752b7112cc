"""Small exact linear algebra: row reduction of rows of Fractions.

Used for degree-1 span comparisons (linear parts of ideals are tiny, at most
n x n with n = number of lattice elements), never for anything large.
"""

from __future__ import annotations


def rref(rows):
    """Reduced row echelon form of a list of coefficient rows.

    Returns the nonzero rows, pivots scaled to 1, zeros above and below each
    pivot, sorted by pivot column.  The result is a canonical basis of the row
    space, so two row spaces are equal iff their rrefs are equal.  Only the
    nonzero entries of a pivot row are eliminated with, and a pivot that is
    already 1 is not rescaled.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                sel = r
                break
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        pivot = mat[pivot_row]
        inv = pivot[col]
        if inv != 1:
            pivot = mat[pivot_row] = [v / inv for v in pivot]
        support = [(k, v) for k, v in enumerate(pivot) if v]
        for r, row in enumerate(mat):
            factor = row[col]
            if r != pivot_row and factor:
                for k, v in support:
                    row[k] -= factor * v
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return mat[:pivot_row]


def in_row_space(rows, vec):
    """Whether vec lies in the row space of rows."""
    return row_space_contains(rows, [vec])


def row_space_contains(big, small):
    """Whether every row of small lies in the row space of big: each reduces
    to zero against the pivot rows of one rref of big.  A pivot is its row's
    first nonzero entry and is 1."""
    pivots = [(row.index(1), row) for row in rref(big)]
    for vec in small:
        vec = list(vec)
        for col, row in pivots:
            factor = vec[col]
            if factor:
                for k, v in enumerate(row):
                    if v:
                        vec[k] -= factor * v
        if any(vec):
            return False
    return True
