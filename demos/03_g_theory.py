"""G-primary decomposition: decompose a homogeneous ideal into star
images of classical primary components, then query the result.

Run:  python3 demos/03_g_theory.py
"""

from grady import (GF, QQ, Decomposition, GradedRing, GradingGroup, Ideal,
                   PolynomialRing, PrimaryComponent, colon,
                   g_associated_primes, g_associated_witness,
                   g_minimal_primes, g_primary_decomposition, g_radical,
                   is_g_primary, is_g_prime, poset_component,
                   verify_theorem_suite)

R = PolynomialRing(QQ, ("x", "y"))
fine = GradedRing(R, GradingGroup(2, ()), [((1, 0), ()), ((0, 1), ())])
N = Ideal(R, ["x^4", "x^3*y"])

# ---------------------------------------------------------------------
# Decompose.  Components are G-primary, their G-radicals G-prime.
gdec = g_primary_decomposition(N, fine)
print("N =", N)
for c in gdec.components:
    print(f"  {c.component}  with G-radical {c.radical}  [{c.status}]")
print("G-radical of N:", g_radical(N, fine))
print("G-associated primes:", [str(P) for P in g_associated_primes(N, fine)])
print("G-minimal primes  :", [str(P) for P in g_minimal_primes(N, fine)])

# ---------------------------------------------------------------------
# A caller-supplied classical decomposition works as a certificate; the
# famously non-homogeneous component q stars to its homogeneous core.
q = Ideal(R, ["x^4", "x^3*y", "x^2*y^2+x*y^3", "y^4"])
cert = Decomposition(N, (
    PrimaryComponent(Ideal(R, ["x^3"]), Ideal(R, ["x"])),
    PrimaryComponent(q, Ideal(R, ["x", "y"])),
))
via_cert = g_primary_decomposition(N, fine, classical=cert)
print("\nvia certificate:", [str(c.component) for c in via_cert.components])

# ---------------------------------------------------------------------
# Sub-intersections over a downward closed set of G-radicals do not
# depend on the decomposition; the library recomputes them two ways.
Px, Pxy = Ideal(R, ["x"]), Ideal(R, ["x", "y"])
print("\nposet component over {(x)}:", poset_component(gdec, [Px]))
print("poset component over all  :", poset_component(gdec, [Px, Pxy]))
try:
    poset_component(gdec, [Pxy])
except ValueError as exc:
    print("(x, y) alone is rejected:", exc)

# Every G-associated prime is an honest colon N : (f).
for i, c in enumerate(gdec.components):
    f = g_associated_witness(N, fine, gdec, i)
    print(f"witness for {c.radical}: f = {f}, N : (f) = {colon(N, f)}")

# ---------------------------------------------------------------------
# Torsion gradings make G-prime strictly weaker than prime.
R5 = PolynomialRing(GF(5), ("x",))
z2 = GradedRing(R5, GradingGroup(0, (2,)), [((), (1,))])
P = Ideal(R5, ["x^2 - 1"])
print("\n(x^2 - 1) over F5 under Z/2:")
print("  G-prime:", is_g_prime(P, z2))
print("  G-primary:", is_g_primary(P, z2))
print("  classically prime: False (two minimal primes)")

# ---------------------------------------------------------------------
# One call runs the whole battery of structural checks on an ideal.
report = verify_theorem_suite(N, fine)
print("\ntheorem suite on N:", report["status"])
for check in report["checks"]:
    print(f"  {check['name']}: {check['status']}")
