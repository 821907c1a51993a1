"""Exact multivariate polynomial arithmetic over Q and prime fields.

Polynomials are dictionaries mapping exponent tuples to nonzero field
elements (Fraction for Q, canonical residues for GF(p)).  Everything here
is immutable by convention: operations return fresh objects and never
mutate their arguments.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, ge, le, neg, sub


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RingMismatchError(ValueError):
    pass


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
    """The rationals (characteristic 0) or GF(p) for a prime p < 2**31."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic=0):
        p = int(characteristic)
        if p != 0:
            if not (2 <= p < 2**31):
                raise ValueError(f"characteristic out of range: {p}")
            if not _is_prime(p):
                raise ValueError(f"characteristic must be prime: {p}")
        self.characteristic = p

    @property
    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

    def from_int(self, n):
        if self.characteristic == 0:
            return Fraction(n)
        return n % self.characteristic

    def inv(self, a):
        if self.characteristic == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        return pow(a, -1, self.characteristic)

    def __eq__(self, other):
        return (isinstance(other, CoefficientField)
                and other.characteristic == self.characteristic)

    def __hash__(self):
        return hash(("CoefficientField", self.characteristic))

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = CoefficientField(0)


def GF(p):
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

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def monomial(self, exps, coeff=None):
        c = self.field.one if coeff is None else coeff
        return Polynomial(self, {tuple(exps): c})

    def extend(self, extra_names):
        """Ring with extra variables appended after the current ones."""
        return PolynomialRing(self.field, self.variables + tuple(extra_names))

    def __eq__(self, other):
        return (isinstance(other, PolynomialRing)
                and other.field == self.field
                and other.variables == self.variables)

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.variables)}]"


def fresh_names(base, count, taken):
    """Names base0..base{count-1}, suffixed with underscores until fresh."""
    taken = set(taken)
    out = []
    for i in range(count):
        name = f"{base}{i}"
        while name in taken:
            name += "_"
        taken.add(name)
        out.append(name)
    return out


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

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        p = self.ring.field.characteristic
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if p:
                s %= p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out, _clean=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __neg__(self):
        p = self.ring.field.characteristic
        if p:
            out = {m: p - c for m, c in self.terms.items()}
        else:
            out = {m: -c for m, c in self.terms.items()}
        return Polynomial(self.ring, out, _clean=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        p = self.ring.field.characteristic
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                s = out.get(m, 0) + c1 * c2
                if p:
                    s %= p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out, _clean=True)

    __rmul__ = __mul__

    def scale(self, c):
        field = self.ring.field
        if isinstance(c, int):
            c = field.from_int(c)
        p = field.characteristic
        if (c % p if p else c) == 0:
            return self.ring.zero()
        if p:
            out = {m: (a * c) % p for m, a in self.terms.items()}
        else:
            out = {m: a * c for m, a in self.terms.items()}
        return Polynomial(self.ring, out, _clean=True)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

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
                e = m[i]
                if e:
                    c = c * val**e
                    if p:
                        c %= p
            if c == 0:
                continue
            key = tuple(0 if i in idx else e for i, e in enumerate(m))
            s = out.get(key, 0) + c
            if p:
                s %= p
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Polynomial(ring, out, _clean=True)

    def map_to(self, other_ring, var_map=None):
        """Reinterpret in other_ring; var_map sends my variable index to the
        target index (default: match by name).  Unmapped variables must not
        occur."""
        ring = self.ring
        if var_map is None:
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
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
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
        return f

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        f = self.term()
        if negate:
            f = -f
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            g = self.term()
            f = f + g if op == "+" else f - g
        return f

    def term(self):
        f = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            f = f * self.factor()
        return f

    def factor(self):
        f = self.base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            f = f ** int(tok[1])
        return f

    def base(self):
        tok = self.advance()
        kind, text, at = tok
        if kind == "int":
            value = self.ring.field.from_int(int(text))
            if self.peek()[0] == "/":
                self.advance()
                den = int(self.expect("int")[1])
                if self.ring.field.from_int(den) == self.ring.field.zero:
                    raise PolyParseError("zero denominator", at)
                value = value * self.ring.field.inv(
                    self.ring.field.from_int(den))
            f = Polynomial(self.ring,
                           {(0,) * self.ring.nvars: value})
        elif kind == "name":
            try:
                i = self.ring.variable_index(text)
            except KeyError:
                raise PolyParseError(f"unknown variable {text!r}", at) from None
            f = self.ring.gen(i)
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
        return f


def parse_polynomial(text, ring):
    """Parse text into a canonical Polynomial over the given ring."""
    if not isinstance(text, str):
        raise PolyParseError("polynomial source must be a string", 0)
    return _Parser(ring, text).parse()
