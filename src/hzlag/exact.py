"""Exact arithmetic substrate: Laurent polynomials in one variable.

A polynomial's coefficients are ``int``, and its value at a rational point
is a ``fractions.Fraction``; there is no floating point anywhere in this
package.  ``Laurent`` is the one ring both routes stand on: ``WLaurent``, a
Laurent polynomial in w = u - 1, carries the residue route, and
``wick.MomentPoly``, one in the dimension N, the Wick oracles.  A Taylor
series at u = 0 is a plain list of coefficients, as are the spectral bases,
so no series type is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "Laurent",
    "WLaurent",
]


class Laurent:
    """A Laurent polynomial in the variable ``var`` with int coefficients.

    ``terms`` maps each exponent to its nonzero coefficient, kept as it is
    given, so "identically zero" is the structural test ``not terms``
    (``f == 0``).
    Instances are immutable.  Arithmetic mixes an instance with an int or
    an instance of its own class, never with another subclass; a constant
    equals and hashes like the int it is.  Calling an instance evaluates it
    at a rational value of its variable.
    """

    __slots__ = ("terms",)
    var = "x"

    def __init__(self, terms: dict | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    def coefficient(self, e: int) -> int:
        return self.terms.get(e, 0)

    def shift_exponent(self, d: int):
        """Multiply by var**d."""
        return type(self)({e + d: c for e, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        if type(other) is type(self):
            for e, c in other.terms.items():
                out[e] = out.get(e, 0) + c
        elif isinstance(other, int):
            out[0] = out.get(0, 0) + other
        else:
            return NotImplemented
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is type(self) or isinstance(other, int):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is type(self):
            out: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        elif isinstance(other, int):
            out = {e: c * other for e, c in self.terms.items()}
        else:
            return NotImplemented
        return type(self)(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = type(self)({0: 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes like the int it equals (the zero polynomial like 0)
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __call__(self, x: int | Fraction) -> Fraction:
        """The value at var = x, by Horner's rule over the integers: with
        x = p/q, the sum over e of c_e p^(e-lo) q^(hi-e) is f(x) q^hi / p^lo,
        so one Fraction (one gcd) is made at the end instead of one per
        term."""
        x = Fraction(x)
        if not self.terms:
            return Fraction(0)
        lo, hi = min(self.terms), max(self.terms)
        p, q = x.numerator, x.denominator
        if p == 0 and lo < 0:
            raise ZeroDivisionError("evaluation at a pole")
        acc, qpow, prev = 0, 1, hi
        for e in sorted(self.terms, reverse=True):
            if e != prev:
                acc *= p ** (prev - e)
                qpow *= q ** (prev - e)
                prev = e
            acc += self.terms[e] * qpow
        return Fraction(acc * p ** max(lo, 0) * q ** max(-hi, 0),
                        q ** max(hi, 0) * p ** max(-lo, 0))

    def __repr__(self):
        return f"{type(self).__name__}({dict(sorted(self.terms.items()))!r})"

    def __str__(self):
        return _poly_str(self.var, self.terms)


class WLaurent(Laurent):
    """A rational function of u whose only finite pole is at u = 1, held as
    a Laurent polynomial in w = u - 1.

    ``derivative`` is d/du (which equals d/dw), calling an instance
    evaluates it at a point u, and ``str`` prints it as a reduced fraction
    of two polynomials in u.
    """

    __slots__ = ()
    var = "u"

    def derivative(self) -> "WLaurent":
        return WLaurent({e - 1: e * c for e, c in self.terms.items()})

    def __call__(self, point: int | Fraction) -> Fraction:
        """f at u = point, that is at w = point - 1."""
        return super().__call__(Fraction(point) - 1)

    def compose_inverse(self) -> "WLaurent":
        """f(1/u), again a function of u.

        1/u - 1 = -w/(w+1), so w^-n becomes (-1)^n (w+1)^n w^-n: a Laurent
        polynomial in w again, provided f has no positive power of w (one
        would put a pole at u = 0).
        """
        out: dict = {}
        for e, c in self.terms.items():
            if e > 0:
                raise ValueError("f(1/u) has a pole at u = 0")
            n = -e
            for i in range(n + 1):
                out[i - n] = out.get(i - n, 0) + (-1) ** n * c * math.comb(n, i)
        return WLaurent(out)

    def series_at_zero(self, order: int) -> list:
        """The coefficients of u^0 .. u^order of the Taylor series at u = 0
        (where w = -1):
        w^e = sum_m C(e, m) (-1)^(e-m) u^m for e >= 0, and
        w^-n = (-1)^n sum_m C(n+m-1, m) u^m for n > 0."""
        out = [0] * (order + 1)
        for e, c in self.terms.items():
            if e >= 0:
                for m in range(min(e, order) + 1):
                    out[m] += (-1) ** (e - m) * math.comb(e, m) * c
            else:
                for m in range(order + 1):
                    out[m] += (-1) ** -e * math.comb(m - e - 1, m) * c
        return out

    def __str__(self):
        """The reduced fraction num/den of polynomials in u, den monic.

        With d the order of the pole at w = 0, den = (u - 1)^d and the
        numerator w^d f does not vanish at u = 1, so the pair is already in
        lowest terms.
        """
        lo = min(self.terms, default=0)
        d = -lo if lo < 0 else 0
        hi = max(self.terms, default=0)
        # Taylor shift of the numerator's w-coefficients to u = w + 1
        a = [self.terms.get(k - d, 0) for k in range(hi + d + 1)]
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] -= a[j + 1]
        num = _poly_str(self.var, dict(enumerate(a)))
        if d == 0:
            return num
        den = {k: (-1) ** (d - k) * math.comb(d, k) for k in range(d + 1)}
        return f"({num}) / ({_poly_str(self.var, den)})"


def _poly_str(var: str, terms: dict) -> str:
    """The Laurent polynomial {exponent: coefficient} in var, written from
    the highest power down, e.g. "-2*u^2 + u - 3" or "14*N + 10*N^-1"."""
    parts = []
    for k in sorted(terms, reverse=True):
        c = terms[k]
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            mono = var if k == 1 else f"{var}^{k}"
            term = mono if c == 1 else (f"-{mono}" if c == -1 else f"{c}*{mono}")
        parts.append(term)
    if not parts:
        return "0"
    s = parts[0]
    for t in parts[1:]:
        s += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return s
