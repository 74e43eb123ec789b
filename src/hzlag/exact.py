"""Exact arithmetic substrate: Laurent polynomials in w = u - 1 and
truncated series.

Everything is built over ``int`` and ``fractions.Fraction``; there is no
floating point anywhere in this package.  Half-integer exponents, where they
occur, are carried as doubled integer indices by the callers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[Fraction, int]

__all__ = [
    "PoleAtExpansionPoint",
    "WLaurent",
    "TruncSeries",
    "binom_series",
    "rat_str_explicit",
]


def rat_str_explicit(q: Fraction) -> str:
    """Rational string with an explicit denominator, e.g. "10/1" (CSV cells)."""
    return f"{q.numerator}/{q.denominator}"


class PoleAtExpansionPoint(ValueError):
    """Raised when a series expansion is requested at a pole."""

    def __init__(self, pole_order: int):
        super().__init__(f"expansion point is a pole of order {pole_order}")
        self.pole_order = pole_order


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
        w = Fraction(point) - 1
        if w == 0 and min(self.terms, default=0) < 0:
            raise ZeroDivisionError(f"pole at {point}")
        return sum((c * w**e for e, c in self.terms.items()), Fraction(0))

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

    def series_at_zero(self, order: int) -> "TruncSeries":
        """Taylor series in u at u = 0 (where w = -1) through u^order:
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
        return TruncSeries(self.var, out)

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


class TruncSeries:
    """Truncated (Laurent) power series with exact coefficients.

    ``coeffs[i]`` is the coefficient of var**(offset + i); all exponents
    below ``offset`` are exactly zero, all exponents above ``order`` are
    unknown.  Arithmetic carries the minimum of the operands' effective
    truncation orders.
    """

    __slots__ = ("var", "offset", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[Scalar], offset: int = 0):
        self.var = var
        self.offset = offset
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a truncated series needs at least one known coefficient")

    @property
    def order(self) -> int:
        """Largest exponent with a known coefficient."""
        return self.offset + len(self.coeffs) - 1

    def valuation(self) -> int:
        """Exponent of the first nonzero coefficient (order+1 if all zero)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return self.offset + i
        return self.order + 1

    def coefficient(self, exp: int) -> Fraction:
        if exp > self.order:
            raise IndexError(f"coefficient of exponent {exp} beyond truncation {self.order}")
        if exp < self.offset:
            return Fraction(0)
        return self.coeffs[exp - self.offset]

    def _check(self, other: "TruncSeries") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # a scalar is exact to any order; keep self's truncation
            off = min(self.offset, 0)
            coeffs = [self.coefficient(e) for e in range(off, self.order + 1)]
            if self.order >= 0:
                coeffs[-off] += Fraction(other)
            return TruncSeries(self.var, coeffs, off)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        order = min(self.order, other.order)
        off = min(self.offset, other.offset)
        return TruncSeries(
            self.var,
            [self.coefficient(e) + other.coefficient(e) for e in range(off, order + 1)],
            off,
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.var, [-c for c in self.coeffs], self.offset)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncSeries) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar) -> "TruncSeries":
        return TruncSeries(self.var, [Fraction(c) * a for a in self.coeffs], self.offset)

    def shift_exp(self, d: int) -> "TruncSeries":
        """Multiply by var**d."""
        return TruncSeries(self.var, self.coeffs, self.offset + d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        va, vb = self.valuation(), other.valuation()
        order = min(self.order + vb, other.order + va)
        off = self.offset + other.offset
        if order < off:
            return TruncSeries(self.var, [0], order)
        out = [Fraction(0)] * (order - off + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            ea = self.offset + i
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                e = ea + other.offset + j
                if e <= order:
                    out[e - off] += a * b
        return TruncSeries(self.var, out, off)

    __rmul__ = __mul__

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        n = order - self.offset + 1
        if n <= 0:
            return TruncSeries(self.var, [0], order)
        return TruncSeries(self.var, self.coeffs[:n], self.offset)

    def eq_through(self, other: "TruncSeries", order: int) -> bool:
        """Coefficientwise equality for all exponents <= order."""
        self._check(other)
        if order > min(self.order, other.order):
            raise ValueError("comparison order beyond a truncation")
        lo = min(self.offset, other.offset)
        return all(self.coefficient(e) == other.coefficient(e) for e in range(lo, order + 1))

    def __repr__(self):
        return f"TruncSeries({self.var!r}, {list(self.coeffs)!r}, offset={self.offset})"


def binom_series(alpha: Scalar, order: int) -> TruncSeries:
    """Coefficients of (1 + t)**alpha through t**order.

    Uses the recurrence c_{m+1} = c_m * (alpha - m) / (m + 1); total for any
    rational alpha and order >= 0.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    alpha = Fraction(alpha)
    cs = [Fraction(1)]
    for m in range(order):
        cs.append(cs[-1] * (alpha - m) / (m + 1))
    return TruncSeries("t", cs)
