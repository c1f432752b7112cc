"""Small exact linear algebra: row reduction of rows of ints and Fractions.

Used for degree-1 span comparisons (linear parts of ideals are tiny, at most
n x n with n = number of lattice elements), never for anything large.  A
span is row-reduced once by rref; the membership tests then reduce against
those rows and never row-reduce again.

An entry may be an int or a Fraction, and a zero the int 0 or Fraction(0),
with equal results.  An int is cheaper to test and to multiply than a
Fraction, so rref keeps a zero an int 0 when it rescales a row and sets each
eliminated pivot column to 0.  A row is rescaled by Fraction division, never
by /, which on two ints would give a float and lose exactness.
"""

from __future__ import annotations

from fractions import Fraction


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
            pivot = mat[pivot_row] = [Fraction(v, inv) if v else 0 for v in pivot]
        support = [(k, v) for k, v in enumerate(pivot) if v]
        for r, row in enumerate(mat):
            factor = row[col]
            if r != pivot_row and factor:
                for k, v in support:
                    row[k] -= factor * v
                row[col] = 0
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return mat[:pivot_row]


def in_row_space(rows, vec):
    """Whether vec lies in the row space of rows, which must be in reduced
    row echelon form, as rref returns them: vec reduces to zero against
    their pivots.  A pivot is its row's first nonzero entry and is 1."""
    vec = list(vec)
    for row in rows:
        factor = vec[row.index(1)]
        if factor:
            for k, v in enumerate(row):
                if v:
                    vec[k] -= factor * v
    return not any(vec)


def row_space_contains(big, small):
    """Whether every row of small lies in the row space of big, which must be
    in reduced row echelon form, as rref returns it."""
    return all(in_row_space(big, vec) for vec in small)
