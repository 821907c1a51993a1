"""Fitting ideals of presentation matrices.

With a presentation F -> R^r -> M -> 0 given by an r x c entry grid,
the j-th Fitting ideal is the ideal of (r-j)-minors, with the usual
conventions at the boundary: (1) when r-j <= 0 and (0) when r-j
exceeds the grid.  Minors are Laplace expansions memoized over
row/column subsets; desk scale keeps grids small (r, c <= 6).
"""

from __future__ import annotations

import itertools

from .grading import degree_of, is_g_ideal
from .groebner import Ideal
from .poly import parse_polynomial


class PresentationMatrix:
    __slots__ = ("ring", "rows", "cols", "entries", "row_degrees",
                 "col_degrees")

    def __init__(self, ring, entries, row_degrees=None, col_degrees=None):
        grid = []
        for row in entries:
            grid.append(tuple(parse_polynomial(e, ring) if isinstance(e, str)
                              else e for e in row))
        self.ring = ring
        self.entries = tuple(grid)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged entry grid")
        self.row_degrees = tuple(row_degrees) if row_degrees else None
        self.col_degrees = tuple(col_degrees) if col_degrees else None

    def has_degrees(self):
        return self.row_degrees is not None and self.col_degrees is not None


def _minor_determinants(M, size):
    ring = M.ring
    memo = {}

    def det(rows, cols):
        if not rows:
            return ring.one()
        key = (rows, cols)
        if key in memo:
            return memo[key]
        i = rows[0]
        rest = rows[1:]
        acc = ring.zero()
        for k, j in enumerate(cols):
            entry = M.entries[i][j]
            if not entry.terms:
                continue
            sub = det(rest, cols[:k] + cols[k + 1:])
            term = entry * sub
            acc = acc + term if k % 2 == 0 else acc - term
        memo[key] = acc
        return acc

    out = []
    for rows in itertools.combinations(range(M.rows), size):
        for cols in itertools.combinations(range(M.cols), size):
            out.append(det(rows, cols))
    return out


def fitting_ideal(M, j):
    """Ideal of (rows - j)-minors with the boundary conventions."""
    ring = M.ring
    t = M.rows - j
    if t <= 0:
        return Ideal(ring, [ring.one()])
    if t > min(M.rows, M.cols):
        return Ideal(ring)
    return Ideal(ring, _minor_determinants(M, t))


def graded_matrix_check(M, graded):
    """Checks the graded-matrix condition entrywise, then homogeneity of
    every Fitting ideal for j in [-1, rows + 1].

    Returns a report dict; a mixed-degree or wrong-degree entry marks
    the report failed rather than raising.  Missing degree data is a
    usage error and does raise.
    """
    if not M.has_degrees():
        raise ValueError("graded check needs row and column degrees")
    if len(M.row_degrees) != M.rows or len(M.col_degrees) != M.cols:
        raise ValueError("degree list lengths do not match the grid")
    group = graded.group
    row_degs = [group.degree(*d) for d in M.row_degrees]
    col_degs = [group.degree(*d) for d in M.col_degrees]

    checks = []
    ok_entries = True
    for i in range(M.rows):
        for j in range(M.cols):
            entry = M.entries[i][j]
            if not entry.terms:
                continue
            want = group.sub(row_degs[i], col_degs[j])
            if degree_of(entry, graded) != want:
                ok_entries = False
                checks.append({"name": f"entry-{i}-{j}", "status": "fail",
                               "detail": f"not homogeneous of degree {want}"})
    checks.insert(0, {"name": "graded-matrix-condition",
                      "status": "pass" if ok_entries else "fail",
                      "detail": f"{M.rows}x{M.cols} grid"})

    if ok_entries:
        for j in range(-1, M.rows + 2):
            F = fitting_ideal(M, j)
            homogeneous = is_g_ideal(F, graded)
            checks.append({"name": f"fitting-{j}-homogeneous",
                           "status": "pass" if homogeneous else "fail",
                           "detail": f"{len(F.generators)} generators"})

    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"status": status, "checks": checks}


def map_entries(M, fn, ring=None, row_degrees=None, col_degrees=None):
    """Entrywise transform; used for specializations and base change."""
    grid = [[fn(e) for e in row] for row in M.entries]
    return PresentationMatrix(ring or M.ring, grid,
                              row_degrees if row_degrees is not None
                              else M.row_degrees,
                              col_degrees if col_degrees is not None
                              else M.col_degrees)
