"""Exact arithmetic substrate: Laurent polynomials in w = u - 1.

Everything is built over ``int`` and ``fractions.Fraction``; there is no
floating point anywhere in this package.  ``WLaurent`` carries the ring
operations of the residue route; its Taylor series at u = 0 is a plain list
of coefficients, as are the spectral bases, so no series type is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int]

__all__ = [
    "WLaurent",
    "rat_str_explicit",
]


def rat_str_explicit(q: Fraction) -> str:
    """Rational string with an explicit denominator, e.g. "10/1" (CSV cells)."""
    return f"{q.numerator}/{q.denominator}"


class WLaurent:
    """A rational function of u whose only finite pole is at u = 1, held as
    a Laurent polynomial in w = u - 1.

    ``terms`` maps each exponent of w to its nonzero coefficient, so
    "identically zero" is the structural test ``not terms``; no gcd or
    normalisation is ever needed.  Coefficients stay ``int`` whenever the
    inputs are integers.  Instances are immutable.  ``derivative`` is d/du
    (which equals d/dw), calling an instance evaluates it at a point u, and
    ``str`` prints it as a reduced fraction of two polynomials in u.
    """

    __slots__ = ("terms",)
    var = "u"

    def __init__(self, terms: dict | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other) -> "WLaurent | None":
        if isinstance(other, WLaurent):
            return other
        if isinstance(other, (int, Fraction)):
            return WLaurent({0: other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, 0) + c
        return WLaurent(out)

    __radd__ = __add__

    def __neg__(self):
        return WLaurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return WLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a Laurent polynomial")
        r = WLaurent({0: 1})
        for _ in range(e):
            r = r * self
        return r

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def derivative(self) -> "WLaurent":
        return WLaurent({e - 1: e * c for e, c in self.terms.items()})

    def __call__(self, point: Scalar) -> Fraction:
        """f at u = point, by Horner's rule over the integers: with w = p/q
        and L the lcm of the coefficient denominators, the sum over e of
        (L c_e) p^(e-lo) q^(hi-e) is f(w) L q^hi / p^lo, so one Fraction
        (one gcd) is made at the end instead of one per term."""
        w = Fraction(point) - 1
        if not self.terms:
            return Fraction(0)
        lo, hi = min(self.terms), max(self.terms)
        p, q = w.numerator, w.denominator
        if p == 0 and lo < 0:
            raise ZeroDivisionError(f"pole at {point}")
        scale = math.lcm(*(c.denominator for c in self.terms.values()))
        acc, qpow, prev = 0, 1, hi
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e != prev:
                acc *= p ** (prev - e)
                qpow *= q ** (prev - e)
                prev = e
            acc += c.numerator * (scale // c.denominator) * qpow
        num = acc * p ** max(lo, 0) * q ** max(-hi, 0)
        den = scale * q ** max(hi, 0) * p ** max(-lo, 0)
        return Fraction(num, den)

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

    def __repr__(self):
        return f"WLaurent({dict(sorted(self.terms.items()))!r})"

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
        if d == 0:
            return _poly_str(self.var, a)
        den = [(-1) ** (d - k) * math.comb(d, k) for k in range(d + 1)]
        return f"({_poly_str(self.var, a)}) / ({_poly_str(self.var, den)})"


def _poly_str(var: str, coeffs: list) -> str:
    """A polynomial in var, given by its coefficients from degree 0 upward,
    written from the highest power down, e.g. "-2*u^2 + u - 3/4"."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
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
