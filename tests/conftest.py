import pytest

from grady.grading import GradedRing, GradingGroup
from grady.groebner import Ideal
from grady.poly import GF, QQ, PolynomialRing


@pytest.fixture
def Rxy():
    return PolynomialRing(QQ, ("x", "y"))


@pytest.fixture
def Rxy5():
    return PolynomialRing(GF(5), ("x", "y"))


@pytest.fixture
def fine_xy(Rxy):
    return GradedRing(Rxy, GradingGroup(2, ()),
                      [((1, 0), ()), ((0, 1), ())])


@pytest.fixture
def q_ideal(Rxy):
    return Ideal(Rxy, ["x^4", "x^3*y", "x^2*y^2+x*y^3", "y^4"])


@pytest.fixture
def q_star(Rxy):
    return Ideal(Rxy, ["x^4", "x^3*y", "x^2*y^3", "y^4"])


def line_with_torsion(field, modulus, residue=1):
    """F[x] with deg x = residue in Z/modulus."""
    ring = PolynomialRing(field, ("x",))
    graded = GradedRing(ring, GradingGroup(0, (modulus,)),
                        [((), (residue,))])
    return ring, graded


def ungraded(ring):
    """ring under the trivial grading: every polynomial is homogeneous."""
    return GradedRing(ring, GradingGroup(0, ()), [((), ())] * ring.nvars)
