"""Exact multivariate polynomial arithmetic over Q and prime fields.

Polynomials are dictionaries mapping exponent tuples to nonzero field
elements (Fraction for Q, canonical residues for GF(p)).  Everything here
is immutable by convention: operations return fresh objects and never
mutate their arguments.  A CoefficientField picks its arithmetic once:
constants, from_int, inv, and the kernel's canonical, entry and publish.
Over Q, _cleared then _primitive is the one integer normalisation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, gcd, lcm, log10, prod
from operator import add, ge, le, neg, sub


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RingMismatchError(ValueError):
    """Objects passed to one operation live in different rings; raised by
    _same_ring alone.  A ValueError, so a job refuses it as bad input."""


def _same_ring(ring, *items):
    """Raise RingMismatchError unless every item's .ring equals ring: the
    polynomials, ideals, matrices and gradings of one operation share one
    ring, or exponent tuples of unequal length zip to the shorter one and
    drop variables.  Identity is tested first, sparing calls to __eq__."""
    for item in items:
        if item.ring is not ring and item.ring != ring:
            raise RingMismatchError(f"{ring!r} vs {item.ring!r}")


class ResourceLimitError(Exception):
    """The job would need more time or memory than a fixed budget allows."""


def _is_prime(p):
    # Deterministic Miller-Rabin; bases 2,3,5,7 decide primality below 3.2e9,
    # which covers the allowed range p < 2**31.
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class CoefficientField:
    """The rationals (characteristic 0) or GF(p) for a prime p < 2**31.

    Like TermOrder's keys, the arithmetic is chosen once, in __init__:
    zero, one, from_int(n), inv(a); for the Buchberger kernel canonical(s)
    (s % p over F_p, s over Q), entry(lm, terms) of a nonzero term dict
    with lead lm (monic over F_p, terms itself if it is; primitive integers
    with a positive lead over Q) and publish(lm, terms), the entry monic.
    """

    __slots__ = ("characteristic", "zero", "one", "from_int", "inv",
                 "canonical", "entry", "publish")

    def __init__(self, characteristic=0):
        p = int(characteristic)
        if p != 0:
            if not (2 <= p < 2**31):
                raise ValueError(f"characteristic out of range: {p}")
            if not _is_prime(p):
                raise ValueError(f"characteristic must be prime: {p}")
            self.zero, self.one = 0, 1
            # bound methods and partials, not lambdas, so a field pickles
            self.from_int = self.canonical = p.__rmod__     # n -> n % p
            self.inv = partial(pow, exp=-1, mod=p)
            self.entry = self.publish = partial(_monic_mod, p)
        else:
            self.zero, self.one = Fraction(0), Fraction(1)
            self.from_int, self.inv, self.canonical = Fraction, _inverse, _same
            self.entry, self.publish = _primitive_terms, _monic_fractions
        self.characteristic = p

    def __eq__(self, other):
        return (isinstance(other, CoefficientField)
                and other.characteristic == self.characteristic)

    def __hash__(self):
        return hash(("CoefficientField", self.characteristic))

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


def _inverse(a):
    if a == 0:
        raise ZeroDivisionError("inverse of zero")
    return 1 / Fraction(a)


def _same(s):
    return s    # not operator.pos, which builds a new Fraction


def _monic_mod(p, lm, terms):
    c = terms[lm]
    return terms if c == 1 else _scale_terms(terms, pow(c, -1, p), p)


def _monic_fractions(lm, terms):
    c = terms[lm]
    return {m: Fraction(x, c) for m, x in terms.items()}


def _primitive_terms(lm, terms):
    return dict(zip(terms, _primitive(_cleared(terms.values())[0], terms[lm])))


def _cleared(coeffs):
    """(coeffs times den, den), den the lcm of the coeffs' denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _primitive(a, lead):
    """The integers a over their content, the sign of lead divided out too."""
    g = gcd(*a)
    if lead < 0:
        g = -g
    return [c // g for c in a]


QQ = CoefficientField(0)


@lru_cache(maxsize=64)
def GF(p):
    """The field of p elements, shared: a field holds its arithmetic."""
    return CoefficientField(p)


# ---------------------------------------------------------------------------
# Monomials are bare exponent tuples.

def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def mono_div(a, b):
    """Exponent tuple of x^a / x^b, or None when it is not a monomial."""
    return tuple(map(sub, a, b)) if all(map(ge, a, b)) else None


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_gcd(a, b):
    return tuple(map(min, a, b))


def _grevlex_desc(m):
    return (-sum(m), *m[::-1])


def _lex_desc(m):
    return tuple(map(neg, m))


class TermOrder:
    """Monomial order: grevlex, lex, or a block order eliminating a subset.

    desc_key(exps) returns a flat tuple that sorts descending in the
    order, so the leading monomial of a term dict is
    min(terms, key=order.desc_key) and a heap of (desc_key, monomial)
    pops the largest monomial first.  key(exps) is its negation and sorts
    ascending.  Both are chosen once per order, not on every call.
    """

    __slots__ = ("kind", "eliminated", "desc_key", "key")

    def __init__(self, kind, eliminated=frozenset()):
        if kind not in ("grevlex", "lex", "elimination"):
            raise ValueError(f"unknown order kind: {kind}")
        self.kind = kind
        self.eliminated = frozenset(eliminated)
        if kind == "grevlex":
            desc = _grevlex_desc
        elif kind == "lex":
            desc = _lex_desc
        else:
            # Grevlex on the eliminated block, then grevlex on all of m:
            # once the blocks agree, comparing all of m compares the rest.
            front = tuple(sorted(self.eliminated, reverse=True))

            def desc(m):
                f = [m[i] for i in front]
                return (-sum(f), *f, -sum(m), *m[::-1])
        self.desc_key = desc
        self.key = lambda m: tuple(map(neg, desc(m)))

    @staticmethod
    def elimination(indices):
        """Block order making every monomial in the indexed variables larger
        than every monomial free of them; grevlex inside each block."""
        return TermOrder("elimination", frozenset(indices))

    def __repr__(self):
        if self.kind == "elimination":
            return f"TermOrder(elimination, {sorted(self.eliminated)})"
        return f"TermOrder({self.kind})"


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")


class PolynomialRing:
    """k[x_1, ..., x_n] with named variables and a coefficient field."""

    __slots__ = ("field", "variables", "_index")

    def __init__(self, field, variables):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.field = field
        self.variables = names
        self._index = {v: i for i, v in enumerate(names)}

    @property
    def nvars(self):
        return len(self.variables)

    def variable_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def constant(self, c):
        return Polynomial(self, {(0,) * self.nvars: self.field.from_int(c)
                                 if isinstance(c, int) else c})

    def gen(self, i):
        if isinstance(i, str):
            i = self.variable_index(i)
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def monomial(self, exps, coeff=None):
        c = self.field.one if coeff is None else coeff
        return Polynomial(self, {tuple(exps): c})

    def __eq__(self, other):
        return self is other or (isinstance(other, PolynomialRing)
                                 and other.field == self.field
                                 and other.variables == self.variables)

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.variables)}]"


# ---------------------------------------------------------------------------
# Term-dict arithmetic shared by Polynomial and the parser.  Coefficients
# are reduced mod p when p is set; over Q they may be ints or Fractions.

def _add_terms(out, b, p, op=add):
    """Combines b into out term by term with op (add or sub), in place, and
    returns out."""
    for m, c in b.items():
        s = op(out.get(m, 0), c)
        if p:
            s %= p
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _scale_terms(a, c, p):
    """a times the nonzero field element c, as a new dict."""
    if p:
        return {m: x * c % p for m, x in a.items()}
    return {m: x * c for m, x in a.items()}


def _mul_terms(a, b, p):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            s = out.get(m, 0) + c1 * c2
            if p:
                s %= p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _square_terms(a, p):
    """a * a, forming each cross product once."""
    items = list(a.items())
    out = {}
    for i, (m1, c1) in enumerate(items):
        twice = 2 * c1
        for m2, c2 in items[i:]:
            m = tuple(map(add, m1, m2))
            s = out.get(m, 0) + (c1 if m2 is m1 else twice) * c2
            if p:
                s %= p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _pow_terms(a, n, one, p):
    """a^n by squaring from the top bit down, so each multiplication by a
    costs only len(a) per term of the partial power."""
    result = one
    for bit in bin(n)[2:]:
        result = _square_terms(result, p)
        if bit == "1":
            result = _mul_terms(result, a, p)
    return result


class Polynomial:
    """Immutable sparse polynomial: dict of exponent tuple -> coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, _clean=False):
        self.ring = ring
        if _clean:
            self.terms = terms
            return
        p = ring.field.characteristic
        clean = {}
        for exps, c in terms.items():
            if p:
                c = c % p
            elif not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        _same_ring(self.ring, other)
        return Polynomial(self.ring, _add_terms(
            dict(self.terms), other.terms, self.ring.field.characteristic),
            _clean=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        _same_ring(self.ring, other)
        return Polynomial(self.ring, _add_terms(
            dict(self.terms), other.terms, self.ring.field.characteristic,
            sub), _clean=True)

    def __neg__(self):
        return Polynomial(self.ring, _scale_terms(
            self.terms, -1, self.ring.field.characteristic), _clean=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        _same_ring(self.ring, other)
        return Polynomial(self.ring, _mul_terms(
            self.terms, other.terms, self.ring.field.characteristic),
            _clean=True)

    __rmul__ = __mul__

    def scale(self, c):
        field = self.ring.field
        if isinstance(c, int):
            c = field.from_int(c)
        p = field.characteristic
        if (c % p if p else c) == 0:
            return self.ring.zero()
        return Polynomial(self.ring, _scale_terms(self.terms, c, p),
                          _clean=True)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        ring = self.ring
        return Polynomial(ring, _pow_terms(self.terms, n, ring.one().terms,
                                           ring.field.characteristic),
                          _clean=True)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    def leading_term(self, order=GREVLEX):
        """(exponent tuple, coefficient) of the largest term; zero -> None."""
        if not self.terms:
            return None
        m = min(self.terms, key=order.desc_key)
        return m, self.terms[m]

    def leading_monomial(self, order=GREVLEX):
        lt = self.leading_term(order)
        return None if lt is None else lt[0]

    def monic(self, order=GREVLEX):
        lt = self.leading_term(order)
        if lt is None:
            return self
        return self.scale(self.ring.field.inv(lt[1]))

    def total_degree(self):
        """Max total degree of the terms; zero polynomial -> -1."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    @property
    def is_monomial(self):
        return len(self.terms) == 1

    @property
    def is_constant(self):
        return all(not any(m) for m in self.terms)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero)

    def substitute(self, assignments):
        """Evaluate some variables at field constants; result lives in the
        same ring with those variables absent from every term."""
        ring = self.ring
        field = ring.field
        p = field.characteristic
        idx = {}
        for k, v in assignments.items():
            i = ring.variable_index(k) if isinstance(k, str) else k
            idx[i] = field.from_int(v) if isinstance(v, int) else v
        out = {}
        for m, c in self.terms.items():
            for i, val in idx.items():
                c = c * val ** m[i]
            key = tuple(0 if i in idx else e for i, e in enumerate(m))
            _add_terms(out, {key: c}, p)
        return Polynomial(ring, out, _clean=True)

    def map_to(self, other_ring):
        """Reinterpret in other_ring, matching variables by name.  A
        variable other_ring lacks must not occur."""
        ring = self.ring
        var_map = {}
        for i, name in enumerate(ring.variables):
            if name in other_ring.variables:
                var_map[i] = other_ring.variable_index(name)
        out = {}
        for m, c in self.terms.items():
            e = [0] * other_ring.nvars
            for i, x in enumerate(m):
                if not x:
                    continue
                if i not in var_map:
                    raise ValueError(
                        f"variable {ring.variables[i]!r} has no image")
                e[var_map[i]] += x
            out[tuple(e)] = c
        return Polynomial(other_ring, out)

    def __str__(self):
        return render_polynomial(self)

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# Printing.  Terms are emitted in descending grevlex so output is stable;
# the result reparses to the same polynomial.

def render_polynomial(f):
    if not f.terms:
        return "0"
    ring = f.ring
    rational = ring.field.characteristic == 0
    parts = []
    for m in sorted(f.terms, key=GREVLEX.desc_key):
        c = f.terms[m]
        negative = rational and c < 0
        mag = -c if negative else c
        factors = []
        for name, e in zip(ring.variables, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if mag != 1 or not factors:
            factors.insert(0, _coefficient_text(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


def _coefficient_text(c):
    """str(c).  Python refuses to print an integer of over 4,300 digits;
    an answer with such a coefficient is over budget, not a bad input."""
    try:
        return str(c)
    except ValueError:
        raise ResourceLimitError(
            "the answer has a coefficient too long to print") from None


# ---------------------------------------------------------------------------
# Parsing.  Grammar (LL(1), '*' is mandatory, '-' unary only at the head of
# an expression):
#
#   expr   := ['-'] term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := base ('^' natural)?
#   base   := coefficient | variable | '(' expr ')'
#
# coefficient := integer ('/' natural)?   (the '/' form covers rational
# coefficients in printed canonical output; over GF(p) it means a*b^{-1}).
#
# Every production returns a term dict.  A term gathers its coefficients
# and variables into one coefficient and one exponent list, so only
# parenthesized factors are ever multiplied.  Over Q a coefficient stays
# an int until a '/' makes it a Fraction; the Polynomial built at the end
# converts the rest.
#
# A parenthesized k-term base f raised to the n-th power has at most
# C(n+k-1, k-1) terms, and at most the product over the variables of
# n*s + 1, where s is the spread (largest minus smallest exponent) of the
# variable in f.  A product f*g of parenthesized factors has at most
# len(f)*len(g) terms, and at most the product of s(f) + s(g) + 1.  Past
# MAX_POWER_TERMS either is a parse error before anything is expanded:
# (x + y)^1499 over Q parses in under a second, and (x - 1)^1401, the
# largest power in the tests, has 1402 terms.
MAX_POWER_TERMS = 1500


# Python refuses to turn an integer of over 4,300 digits into text or
# back, so an integer token of over MAX_DIGITS digits is a parse error,
# and over Q so is a term whose coefficients may pass MAX_DIGITS digits,
# before it is computed: a factor c^n or (f)^n adds n*log10 of the sum
# of |numerators| over the common denominator, which bounds every
# coefficient of the n-th power, and n*log10 of that denominator.  The
# budget tests aside, the tests reach at most 451.2, for (x + y)^1499.
MAX_DIGITS = 4000


def _norm(f):
    """(sum of |numerators| over the common denominator, that denominator)
    of the coefficients of the term dict f."""
    den = lcm(*(c.denominator for c in f.values()))
    return sum(abs(c.numerator) * den // c.denominator
               for c in f.values()), den


def _spreads(f):
    return [max(e) - min(e) for e in zip(*f)]


def _check_terms(count, spreads, what, at):
    if min(count, prod(s + 1 for s in spreads)) > MAX_POWER_TERMS:
        raise PolyParseError(
            f"{what} may have more than MAX_POWER_TERMS = {MAX_POWER_TERMS} "
            f"terms", at)


def _check_power(f, n, at):
    k = len(f)
    if k > 1:
        # both bounds are at least n + 1, so a huge n never reaches comb
        count = comb(n + k - 1, k - 1) if n < MAX_POWER_TERMS else n + 1
        _check_terms(count, [n * s for s in _spreads(f)],
                     f"a {k}-term polynomial to the power {n}", at)


def _check_product(f, g, at):
    _check_terms(len(f) * len(g), map(add, _spreads(f), _spreads(g)),
                 f"a product of {len(f)}-term and {len(g)}-term polynomials",
                 at)


_SYMBOLS = set("+-*^()/")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        # ASCII digits only: str.isdigit also takes '²', which int() refuses
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_DIGITS:
                raise PolyParseError(f"an integer of {j - i} digits is over "
                                     f"MAX_DIGITS = {MAX_DIGITS}", i)
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, ring, text):
        self.ring = ring
        self.p = ring.field.characteristic
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise PolyParseError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2])
        return tok

    def parse(self):
        f = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError(f"trailing input {tok[1]!r}", tok[2])
        return Polynomial(self.ring, f)

    def expr(self):
        negate = self.peek()[0] == "-"
        if negate:
            self.advance()
        f = self.term()
        if negate:
            f = _add_terms({}, f, self.p, sub)
        while self.peek()[0] in ("+", "-"):
            op = add if self.advance()[0] == "+" else sub
            f = _add_terms(f, self.term(), self.p, op)
        return f

    def term(self):
        p = self.p
        coeff, exps, product = 1, [0] * self.ring.nvars, None
        top = bottom = 0    # estimated digits of numerators, denominators
        while True:
            kind, text, at = self.advance()
            if kind == "int":
                value = int(text)
                if self.peek()[0] == "/":
                    self.advance()
                    den = int(self.expect("int")[1])
                    if (den % p if p else den) == 0:
                        raise PolyParseError("zero denominator", at)
                    value = value * pow(den, -1, p) if p \
                        else Fraction(value, den)
            elif kind == "name":
                try:
                    i = self.ring.variable_index(text)
                except KeyError:
                    raise PolyParseError(
                        f"unknown variable {text!r}", at) from None
            elif kind == "(":
                f = self.expr()
                self.expect(")")
            else:
                raise PolyParseError(
                    f"expected a coefficient, variable or '(', found "
                    f"{text or 'end of input'!r}", at)
            # reject juxtaposition like '2x' or 'x y' early for a clear message
            nxt = self.peek()
            if nxt[0] in ("int", "name"):
                raise PolyParseError(
                    f"missing operator before {nxt[1]!r}", nxt[2])
            n = 1
            if nxt[0] == "^":
                self.advance()
                _, text, n_at = self.expect("int")
                n = int(text)
                if kind == "(":
                    _check_power(f, n, n_at)
            if not p and kind != "name":
                num, den = (value.numerator, value.denominator) \
                    if kind == "int" else _norm(f)
                k = min(n, 4 * MAX_DIGITS)     # each log is 0 or over 1/4
                top += k * log10(num or 1)
                bottom += k * log10(den)
                if max(top, bottom) > MAX_DIGITS:
                    raise PolyParseError(
                        f"a coefficient may have more than MAX_DIGITS = "
                        f"{MAX_DIGITS} digits", at)
            if kind == "(" and nxt[0] == "^":
                f = _pow_terms(f, n, {(0,) * self.ring.nvars: 1}, p)
            if kind == "int":
                coeff = coeff * pow(value, n, p) % p if p \
                    else coeff * value ** n
            elif kind == "name":
                exps[i] += n
            elif product is None:
                product = f
            else:
                _check_product(product, f, at)
                product = _mul_terms(product, f, p)
            if self.peek()[0] != "*":
                break
            self.advance()
        mono = {tuple(exps): coeff} if coeff else {}
        return mono if product is None else _mul_terms(product, mono, p)


def parse_polynomial(text, ring):
    """Parse text into a canonical Polynomial over the given ring."""
    if not isinstance(text, str):
        raise PolyParseError("polynomial source must be a string", 0)
    return _Parser(ring, text).parse()
