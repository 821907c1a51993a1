"""The truncation oracle: verify star outputs with exact linear algebra
over a prime field, no Groebner machinery involved.

Run:  python3 demos/05_oracle.py
"""

from grady import (GF, QQ, GradedRing, GradingGroup, Ideal, PolynomialRing,
                   oracle_compare, star, truncated_star_basis)

# ---------------------------------------------------------------------
# Inside the space of polynomials of degree <= D, membership in an
# ideal is a kernel computation.  The star space keeps only vectors all
# of whose homogeneous blocks land in the ideal; under the trivial
# grading the whole space is one block, which gives the ideal itself.
R5 = PolynomialRing(GF(5), ("x",))
z2 = GradedRing(R5, GradingGroup(0, (2,)), [((), (1,))])
trivial = GradedRing(R5, GradingGroup(0, ()), [((), ())])
I = Ideal(R5, ["x - 1"])

ideal_side = truncated_star_basis(I, trivial, 6)
star_side = truncated_star_basis(I, z2, 6)
print("dim {f in I : deg <= 6}       =", ideal_side.dimension)
print("dim {f in I* : deg <= 6}      =", star_side.dimension)
print("basis of the star space:", star_side.polynomials())

# ---------------------------------------------------------------------
# oracle_compare checks the symbolic star against that space in both
# directions and reports a witness when they disagree.
S = star(I, z2)
print("\nsymbolic star:", S)
print("oracle verdict:", oracle_compare(I, z2, 6, star_ideal=S).status)

corrupt = Ideal(R5, ["x^4 - 1"])
v = oracle_compare(I, z2, 6, star_ideal=corrupt)
print("against a corrupted star:", v.status)
print("  reason :", v.reason)
print("  witness:", v.witness)

# Asking below the resolution of the star generators is an error, not
# a pass:
print("bound too small:", oracle_compare(I, z2, 2).status)

# ---------------------------------------------------------------------
# Rational inputs are checked mod several primes; the verdict says so.
RQ = PolynomialRing(QQ, ("x",))
z2q = GradedRing(RQ, GradingGroup(0, (2,)), [((), (1,))])
v = oracle_compare(Ideal(RQ, ["x - 1"]), z2q, 6)
print("\nover Q:", v.status, "-", v.reason)
