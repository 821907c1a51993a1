import contextlib
import os
import signal
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from grady.grading import GradedRing, GradingGroup
from grady.groebner import Ideal
from grady.poly import GF, QQ, PolynomialRing

# CI runs with HYPOTHESIS_PROFILE=ci: derandomized, so a red run repeats
# from its log, which also prints the blob that reproduces each failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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


def coefficients(field):
    """Small field elements; over Q with denominators, and negative and
    non-unit leads, which the integer kernel clears, divides out and
    crosses."""
    if field.characteristic:
        return st.integers(-3, 3).map(field.from_int)
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@contextlib.contextmanager
def time_limit(seconds):
    """Fail instead of hanging when a loop never ends."""
    def expire(signum, frame):
        raise TimeoutError(f"took over {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
