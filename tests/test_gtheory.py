"""G-prime, G-primary, G-radical: the star-side decomposition theory."""

import random
import time

import pytest

from grady import decomposition, gtheory
from grady.decomposition import (Decomposition, PrimaryComponent,
                                 UnsupportedClassError,
                                 classical_decomposition, radical_ideal)
from grady.grading import GradedRing, GradingGroup, star
from grady.groebner import (Ideal, colon, ideal_power, ideal_product,
                            intersect)
from grady.gtheory import (g_associated_primes, g_associated_witness,
                           g_minimal_primes, g_primary_decomposition,
                           g_radical, is_g_primary, is_g_prime,
                           is_g_radical, poset_component,
                           verify_theorem_suite)
from grady.poly import (GF, QQ, PolynomialRing, ResourceLimitError,
                        parse_polynomial)

from conftest import line_with_torsion


def _keys(ideals):
    return sorted(tuple(str(g) for g in I.canonical_generators())
                  for I in ideals)


def test_g_radical(Rxy, fine_xy):
    N = Ideal(Rxy, ["x^4", "x^3*y"])
    assert g_radical(N, fine_xy) == Ideal(Rxy, ["x"])
    assert is_g_radical(Ideal(Rxy, ["x"]), fine_xy)
    assert not is_g_radical(N, fine_xy)


def test_g_radical_requires_homogeneous_input(Rxy, fine_xy, q_ideal):
    with pytest.raises(ValueError):
        g_radical(q_ideal, fine_xy)     # q has a mixed generator


def test_g_prime(Rxy, fine_xy):
    assert is_g_prime(Ideal(Rxy, ["x", "y"]), fine_xy)
    assert is_g_prime(Ideal(Rxy, ["x"]), fine_xy)
    assert not is_g_prime(Ideal(Rxy, ["x^2", "y"]), fine_xy)
    assert not is_g_prime(Ideal(Rxy, ["1"]), fine_xy)   # proper only


def test_g_prime_with_torsion():
    ring, graded = line_with_torsion(GF(5), 2)
    P = Ideal(ring, ["x^2 - 1"])
    assert is_g_prime(P, graded)
    # homogeneous product of two G-primes is not G-prime
    assert not is_g_prime(Ideal(ring, ["(x^2 - 1) * (x^2 - 4)"]), graded)
    # non-homogeneous inputs are a usage error
    with pytest.raises(ValueError):
        is_g_prime(Ideal(ring, ["x^2 - x"]), graded)


def test_g_primary(Rxy, fine_xy, q_star):
    assert is_g_primary(q_star, fine_xy)
    assert is_g_primary(Ideal(Rxy, ["x^3"]), fine_xy)
    assert not is_g_primary(Ideal(Rxy, ["x^4", "x^3*y"]), fine_xy)


def test_g_primary_decomposition_of_headline(Rxy, fine_xy):
    N = Ideal(Rxy, ["x^4", "x^3*y"])
    gdec = g_primary_decomposition(N, fine_xy)
    assert [[str(g) for g in c.component.canonical_generators()]
            for c in gdec.components] == [["x^3"], ["x^4", "y"]]
    assert [[str(g) for g in c.radical.canonical_generators()]
            for c in gdec.components] == [["x"], ["x", "y"]]
    assert gdec.check()
    assert gdec.intersection() == N


def test_certificate_route_reproduces_headline(Rxy, fine_xy, q_ideal,
                                               q_star):
    """(x^4, x^3 y) = (x^3) ∩ q with q not homogeneous; starring the
    certificate turns q into the homogeneous q_star component."""
    N = Ideal(Rxy, ["x^4", "x^3*y"])
    cert = Decomposition(N, (
        PrimaryComponent(Ideal(Rxy, ["x^3"]), Ideal(Rxy, ["x"])),
        PrimaryComponent(q_ideal, Ideal(Rxy, ["x", "y"])),
    ))
    gdec = g_primary_decomposition(N, fine_xy, classical=cert)
    comps = [c.component for c in gdec.components]
    assert comps[0] == Ideal(Rxy, ["x^3"]) and comps[1] == q_star
    assert gdec.intersection() == N


def test_certificate_must_match_target(Rxy, fine_xy):
    N = Ideal(Rxy, ["x^4", "x^3*y"])
    bogus = Decomposition(N, (
        PrimaryComponent(Ideal(Rxy, ["x^3"]), Ideal(Rxy, ["x"])),))
    with pytest.raises(ValueError):
        g_primary_decomposition(N, fine_xy, classical=bogus)


def test_g_associated_and_minimal(Rxy, fine_xy):
    N = Ideal(Rxy, ["x^4", "x^3*y"])
    gass = g_associated_primes(N, fine_xy)
    assert _keys(gass) == [("x",), ("x", "y")]
    gmin = g_minimal_primes(N, fine_xy)
    assert _keys(gmin) == [("x",)]


def test_poset_component(Rxy, fine_xy):
    N = Ideal(Rxy, ["x^4", "x^3*y"])
    gdec = g_primary_decomposition(N, fine_xy)
    Px = Ideal(Rxy, ["x"])
    Pxy = Ideal(Rxy, ["x", "y"])
    assert poset_component(gdec, [Px]) == Ideal(Rxy, ["x^3"])
    assert poset_component(gdec, [Px, Pxy]) == N
    assert poset_component(gdec, []).is_unit
    with pytest.raises(ValueError):
        poset_component(gdec, [Pxy])    # omega not downward closed
    with pytest.raises(ValueError):
        poset_component(gdec, [Ideal(Rxy, ["y"])])  # not a G-radical here


def test_g_associated_witness(Rxy, fine_xy):
    N = Ideal(Rxy, ["x^4", "x^3*y"])
    gdec = g_primary_decomposition(N, fine_xy)
    for i, c in enumerate(gdec.components):
        f = g_associated_witness(N, fine_xy, gdec, i)
        assert not f.is_zero
        assert colon(N, f) == c.radical


def test_g_associated_witness_of_a_high_power(Rxy, fine_xy, monkeypatch):
    """(x, y)^69 is the first power inside the colon: minimal generators
    keep the powers at n + 1 generators instead of 2^n."""
    N = Ideal(Rxy, ["x^70", "x*y"])
    gdec = g_primary_decomposition(N, fine_xy)
    index = [str(c.radical) for c in gdec.components].index("Ideal(x, y)")
    start = time.perf_counter()
    f = g_associated_witness(N, fine_xy, gdec, index)
    assert time.perf_counter() - start < 0.5
    assert str(f) == "x^69"

    monkeypatch.setattr(gtheory, "MAX_WITNESS_GENERATORS", 20)
    with pytest.raises(ResourceLimitError, match="20 generators"):
        g_associated_witness(N, fine_xy, gdec, index)


def test_g_associated_witness_of_power_199(Rxy, fine_xy):
    """(x, y)^198, with 199 minimal generators, is the first power inside
    the colon; each power is the previous one's exponent tuples times
    those of (x, y), minimalized in one pass, so the loop stays fast."""
    N = Ideal(Rxy, ["x^199", "x*y"])
    gdec = g_primary_decomposition(N, fine_xy)
    index = [str(c.radical) for c in gdec.components].index("Ideal(x, y)")
    start = time.perf_counter()
    f = g_associated_witness(N, fine_xy, gdec, index)
    assert time.perf_counter() - start < 0.5
    assert str(f) == "x^198"


def test_theorem_suite_passes(Rxy, fine_xy):
    report = verify_theorem_suite(Ideal(Rxy, ["x^4", "x^3*y"]), fine_xy)
    assert report["status"] == "pass"
    names = [c["name"] for c in report["checks"]]
    assert "concatenated-classical-minimal" in names
    assert "components-have-no-embedded-primes" in names
    assert "g-ass-equals-g-min-iff-classical" in names
    assert all(c["status"] == "pass" for c in report["checks"])


def test_theorem_suite_reports_assumed():
    ring = PolynomialRing(QQ, ("x",))
    trivial = GradedRing(ring, GradingGroup(0, ()), [((), ())])
    report = verify_theorem_suite(Ideal(ring, ["x^2 - 2"]), trivial)
    assert report["status"] == "assumed"


def test_grad_laws_on_products():
    ring, graded = line_with_torsion(GF(5), 2)
    I = Ideal(ring, ["x^2 - 1"])
    J = Ideal(ring, ["x^2 - 4"])
    both = intersect(g_radical(I, graded), g_radical(J, graded))
    assert g_radical(ideal_product(I, J), graded) == both
    assert g_radical(intersect(I, J), graded) == both
    assert g_radical(ideal_power(I, 3), graded) == g_radical(I, graded)


def test_grad_star_exchange_random_lines():
    """grad(star(a)) agrees with star applied to the classical radical."""
    rng = random.Random(9)
    ring5 = PolynomialRing(GF(5), ("x",))
    for _ in range(20):
        m = rng.choice((2, 3))
        graded = GradedRing(ring5, GradingGroup(0, (m,)), [((), (1,))])
        coeffs = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))] + [1]
        f = sum((ring5.monomial((i,), ring5.field.from_int(c))
                 for i, c in enumerate(coeffs) if c), ring5.zero())
        a = Ideal(ring5, [f])
        if a.is_unit or a.is_zero:
            continue
        S = star(a, graded)
        if S.is_zero:
            continue
        assert g_radical(S, graded) == star(radical_ideal(a), graded)


# target, [(component, radical)], expected message
_BROKEN = {
    "intersection": (["x^2"], [(["x^3"], ["x"])],
                     "do not intersect"),
    "radicals": (["x^2", "x*y"], [(["x"], ["x"]), (["x^2", "y"], ["x"])],
                 "not pairwise distinct"),
    "redundant": (["x^2"], [(["x^2"], ["x"]), (["x^2", "y"], ["x", "y"])],
                  "redundant"),
}


@pytest.mark.parametrize("mode", sorted(_BROKEN))
@pytest.mark.parametrize("cls, part", [(Decomposition, PrimaryComponent)],
                         ids=["classical"])
def test_check_detects_each_failure_mode(Rxy, cls, part, mode):
    target, pairs, message = _BROKEN[mode]
    bad = cls(Ideal(Rxy, target), tuple(part(Ideal(Rxy, q), Ideal(Rxy, r))
                                        for q, r in pairs))
    with pytest.raises(AssertionError, match=message):
        bad.check()


def _xyz_target():
    ring = PolynomialRing(GF(5), ("x", "y", "z"))
    fine = GradedRing(ring, GradingGroup(3, ()),
                      [((1, 0, 0), ()), ((0, 1, 0), ()), ((0, 0, 1), ())])
    return Ideal(ring, ["x^3*y", "x^2*z^2", "y^2*z"]), fine


def _count_calls(monkeypatch, module, name, calls, only=None):
    """Wrap module.name so that calls[name] counts its calls (those whose
    first argument is `only`, when given)."""
    real = getattr(module, name)
    calls[name] = 0

    def wrapper(first, *args, **kwargs):
        if only is None or first is only:
            calls[name] += 1
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_theorems_and_g_min_reuse_finished_work(monkeypatch):
    N, fine = _xyz_target()
    calls = {}
    _count_calls(monkeypatch, gtheory, "_g_decompose", calls)
    _count_calls(monkeypatch, decomposition,
                 "monomial_primary_decomposition", calls)
    assert verify_theorem_suite(N, fine)["status"] == "pass"
    assert calls["_g_decompose"] == 1
    calls["monomial_primary_decomposition"] = 0
    g_minimal_primes(N, fine)
    assert calls["monomial_primary_decomposition"] == 1


def test_theorem_suite_decomposes_the_target_once(monkeypatch):
    N, fine = _xyz_target()
    calls = {}
    for name in ("monomial_primary_decomposition", "monomial_radical"):
        _count_calls(monkeypatch, decomposition, name, calls, only=N)
    report = verify_theorem_suite(N, fine)
    assert report["status"] == "pass"
    assert [c["detail"] for c in report["checks"]] == [
        "4 classical components", "4 components",
        "classical 4/3, graded 4/3", "vacuous: ideal is not G-radical",
        "vacuous: ideal is not G-primary"]
    assert calls == {"monomial_primary_decomposition": 1,
                     "monomial_radical": 0}


def test_theorem_suite_stars_each_ideal_once(monkeypatch):
    N, fine = _xyz_target()
    calls = {}
    _count_calls(monkeypatch, gtheory, "star", calls)
    assert verify_theorem_suite(N, fine)["status"] == "pass"
    # 4 components and 4 radicals, once each, plus check (d)'s star
    assert calls["star"] <= 9


def test_assumed_component_mismatch_is_unsupported():
    # Over Q the residue x^4 + x^2 + 1 = (x^2 + x + 1)(x^2 - x + 1) stays
    # one assumed component, and the G-prime cross-check catches it.
    ring, graded = line_with_torsion(QQ, 3)
    N = Ideal(ring, ["x^6 - 1"])
    for query in (g_associated_primes, g_minimal_primes):
        with pytest.raises(UnsupportedClassError,
                           match=r"assumed component \(x\^4 \+ x\^2 \+ 1\)"):
            query(N, graded)
    checks = {c["name"]: c["status"]
              for c in verify_theorem_suite(N, graded)["checks"]}
    assert checks["g-ass-equals-g-min-iff-classical"] == "unsupported"


def test_verified_mismatch_stays_an_internal_error():
    N, fine = _xyz_target()
    dec = classical_decomposition(N)
    star_of = gtheory._star_memo(fine)
    gdec = gtheory._g_decompose(N, star_of, dec)
    short = Decomposition(N, gdec.components[1:])
    with pytest.raises(AssertionError, match="disagree"):
        gtheory._g_ass(N, star_of, dec, short)


@pytest.mark.parametrize("query", [g_associated_primes, g_minimal_primes])
def test_g_prime_lists_split_the_target_once(monkeypatch, query):
    N, fine = _xyz_target()
    calls = {}
    _count_calls(monkeypatch, decomposition, "_irreducible_split", calls)
    assert query(N, fine)
    assert calls["_irreducible_split"] == 1


def test_theorem_suite_trusts_its_own_decomposition(monkeypatch):
    N, fine = _xyz_target()
    calls = {"intersection": 0}
    real = Decomposition.intersection

    def intersection(self):
        calls["intersection"] += 1
        return real(self)

    monkeypatch.setattr(Decomposition, "intersection", intersection)
    assert verify_theorem_suite(N, fine)["status"] == "pass"
    assert calls["intersection"] == 0
