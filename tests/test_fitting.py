"""Fitting ideals of presentation matrices and the graded-matrix check."""

import random

import pytest

from grady.fitting import (PresentationMatrix, fitting_ideal,
                           graded_matrix_check, map_entries)
from grady.grading import GradedRing, GradingGroup, Hdeg
from grady.groebner import Ideal
from grady.poly import QQ, Polynomial, PolynomialRing


def _z_graded(ring):
    return GradedRing(ring, GradingGroup(1, ()),
                      [((1,), ())] * ring.nvars)


def test_row_matrix(Rxy):
    M = PresentationMatrix(Rxy, [["x^2", "x*y", "y^3"]])
    assert fitting_ideal(M, 0) == Ideal(Rxy, ["x^2", "x*y", "y^3"])
    assert fitting_ideal(M, 1).is_unit
    assert fitting_ideal(M, -1).is_zero


def test_two_by_two(Rxy):
    M = PresentationMatrix(Rxy, [["x", "y"], ["y", "x"]])
    assert fitting_ideal(M, 1) == Ideal(Rxy, ["x", "y"])
    assert fitting_ideal(M, 0) == Ideal(Rxy, ["x^2 - y^2"])
    assert fitting_ideal(M, 2).is_unit
    assert fitting_ideal(M, 7).is_unit
    assert fitting_ideal(M, -3).is_zero


def test_zero_columns_presentation(Rxy):
    # free module presented by a zero map
    M = PresentationMatrix(Rxy, [["0"], ["0"]])
    assert fitting_ideal(M, 2).is_unit
    assert fitting_ideal(M, 1).is_zero
    assert fitting_ideal(M, 0).is_zero


def test_ragged_grid_rejected(Rxy):
    with pytest.raises(ValueError):
        PresentationMatrix(Rxy, [["x", "y"], ["x"]])


def test_graded_check_passes(Rxy):
    graded = _z_graded(Rxy)
    M = PresentationMatrix(Rxy, [["x", "y"], ["y", "x"]],
                           [((1,), ()), ((1,), ())],
                           [((0,), ()), ((0,), ())])
    report = graded_matrix_check(M, graded)
    assert report["status"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert "graded-matrix-condition" in names
    assert "fitting-0-homogeneous" in names
    assert "fitting-3-homogeneous" in names  # rows + 1


def test_graded_check_flags_bad_entry():
    ring = PolynomialRing(QQ, ("x",))
    graded = GradedRing(ring, GradingGroup(1, ()), [((1,), ())])
    M = PresentationMatrix(ring, [["x + 1"]], [((1,), ())], [((0,), ())])
    report = graded_matrix_check(M, graded)
    assert report["status"] == "fail"
    assert any(c["name"] == "entry-0-0" and c["status"] == "fail"
               for c in report["checks"])


def test_graded_check_needs_degrees(Rxy):
    M = PresentationMatrix(Rxy, [["x"]])
    with pytest.raises(ValueError):
        graded_matrix_check(M, _z_graded(Rxy))
    M2 = PresentationMatrix(Rxy, [["x"]], [((1,), ())],
                            [((0,), ()), ((0,), ())])
    with pytest.raises(ValueError):
        graded_matrix_check(M2, _z_graded(Rxy))


@pytest.mark.parametrize("wrong", [((1, 1), ()), Hdeg((1, 1), ())],
                         ids=["tuple", "Hdeg"])
def test_graded_check_refuses_a_wrongly_shaped_degree(Rxy, wrong):
    """A row degree of the wrong shape is a usage error in either form,
    not a failed check."""
    M = PresentationMatrix(Rxy, [["x"]], [wrong], [((0,), ())])
    with pytest.raises(ValueError, match="wrong shape"):
        graded_matrix_check(M, _z_graded(Rxy))


def test_map_entries(Rxy):
    M = PresentationMatrix(Rxy, [["x", "y"], ["y", "x"]])
    doubled = map_entries(M, lambda f: 2 * f)
    assert fitting_ideal(doubled, 1) == Ideal(Rxy, ["x", "y"])
    line = PolynomialRing(QQ, ("y",))
    spec = map_entries(M, lambda f: f.substitute({"x": 0}).map_to(line),
                       ring=line)
    assert fitting_ideal(spec, 0) == Ideal(line, ["y^2"])


def _random_homogeneous(rng, ring, degree):
    if degree < 0:
        return ring.zero()
    terms = {}
    for i in range(degree + 1):
        c = rng.randint(-2, 2)
        if c:
            terms[(i, degree - i)] = ring.field.from_int(c)
    return Polynomial(ring, terms)


def test_fitting_chain_and_invariance(Rxy):
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.choice(((2, 2), (2, 3), (3, 2)))
        grid = [[_random_homogeneous(rng, Rxy, rng.randint(0, 2))
                 for _ in range(cols)] for _ in range(rows)]
        M = PresentationMatrix(Rxy, grid)
        # ascending chain Fitt_{j} <= Fitt_{j+1}
        for j in range(-1, rows + 1):
            assert fitting_ideal(M, j) <= fitting_ideal(M, j + 1)
        # row and column permutations change nothing
        pr = list(range(rows))
        pc = list(range(cols))
        rng.shuffle(pr)
        rng.shuffle(pc)
        permuted = PresentationMatrix(
            Rxy, [[grid[i][j] for j in pc] for i in pr])
        for j in range(rows + 1):
            assert fitting_ideal(permuted, j) == fitting_ideal(M, j)
        # adding a multiple of one row to another changes nothing
        scaled = [list(r) for r in grid]
        mult = Rxy.gen(0) if rng.random() < 0.5 else Rxy.constant(2)
        for j in range(cols):
            scaled[0][j] = scaled[0][j] + mult * scaled[1][j]
        added = PresentationMatrix(Rxy, scaled)
        for j in range(rows + 1):
            assert fitting_ideal(added, j) == fitting_ideal(M, j)
