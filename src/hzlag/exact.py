"""Exact arithmetic substrate: polynomials, rational functions, truncated series.

Everything is built over ``fractions.Fraction``; there is no floating point
anywhere in this package.  Half-integer exponents, where they occur, are
carried as doubled integer indices by the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rat = Fraction
Scalar = Union[Fraction, int]

__all__ = [
    "Rat",
    "PoleAtExpansionPoint",
    "UniPoly",
    "RationalFunction",
    "WLaurent",
    "TruncSeries",
    "BiSeries",
    "binom_series",
    "gen_binom",
    "series_of_rational",
    "rat_str",
    "rat_str_explicit",
]


def rat_str(q: Fraction) -> str:
    """Canonical rational string: "p/q", or "p" when the denominator is 1."""
    return str(q)


def rat_str_explicit(q: Fraction) -> str:
    """Rational string with an explicit denominator, e.g. "10/1" (CSV cells)."""
    return f"{q.numerator}/{q.denominator}"


def gen_binom(alpha: Scalar, m: int) -> Fraction:
    """Generalized binomial coefficient alpha-choose-m for rational alpha."""
    c = Fraction(1)
    alpha = Fraction(alpha)
    for i in range(m):
        c = c * (alpha - i) / (i + 1)
    return c


class PoleAtExpansionPoint(ValueError):
    """Raised when a series expansion is requested at a pole."""

    def __init__(self, pole_order: int):
        super().__init__(f"expansion point is a pole of order {pole_order}")
        self.pole_order = pole_order


class UniPoly:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients run from degree 0 upward; the zero polynomial has an empty
    coefficient tuple.  Instances are immutable.
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[Scalar]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.var = var
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, var: str, c: Scalar) -> "UniPoly":
        return cls(var, [c])

    @classmethod
    def ident(cls, var: str) -> "UniPoly":
        """The polynomial equal to the variable itself."""
        return cls(var, [0, 1])

    # -- structure ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def _check(self, other: "UniPoly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other) -> "UniPoly | None":
        if isinstance(other, UniPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly.const(self.var, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPoly(self.var, [self.coefficient(k) + o.coefficient(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.var, [-c for c in self.coeffs])

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
        if self.is_zero or o.is_zero:
            return UniPoly(self.var, [])
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    out[i + j] += a * b
        return UniPoly(self.var, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        r = UniPoly.const(self.var, 1)
        b = self
        while e:
            if e & 1:
                r = r * b
            e >>= 1
            if e:
                b = b * b
        return r

    def __divmod__(self, other: "UniPoly"):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d = other.degree
        lc = other.leading
        for k in range(len(r) - 1 - d, -1, -1):
            f = r[k + d] / lc
            if f == 0:
                continue
            q[k] = f
            for i in range(d + 1):
                r[k + i] -= f * other.coeffs[i]
        return UniPoly(self.var, q), UniPoly(self.var, r)

    def __floordiv__(self, other: "UniPoly"):
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly"):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(self.var, other)
        return (
            isinstance(other, UniPoly)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.coeffs))

    # -- calculus & transforms -----------------------------------------
    def derivative(self) -> "UniPoly":
        return UniPoly(self.var, [k * c for k, c in enumerate(self.coeffs)][1:])

    def shift(self, c: Scalar) -> "UniPoly":
        """Compose with the linear shift var -> var + c (exact, via Horner)."""
        x_plus_c = UniPoly(self.var, [c, 1])
        out = UniPoly(self.var, [])
        for a in reversed(self.coeffs):
            out = out * x_plus_c + a
        return out

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lc = self.leading
        return UniPoly(self.var, [c / lc for c in self.coeffs])

    def __call__(self, point: Scalar) -> Fraction:
        acc = Fraction(0)
        for a in reversed(self.coeffs):
            acc = acc * point + a
        return acc

    def valuation(self) -> int:
        """Order of vanishing at 0 (len(coeffs) for the zero polynomial)."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return len(self.coeffs)

    @staticmethod
    def gcd(a: "UniPoly", b: "UniPoly") -> "UniPoly":
        """Monic gcd by the Euclidean algorithm."""
        a._check(b)
        while not b.is_zero:
            r = a % b
            a, b = b, r.monic()
        return a.monic() if not a.is_zero else a

    def __repr__(self):
        return f"UniPoly({self.var!r}, {list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = rat_str(c)
            else:
                mono = self.var if k == 1 else f"{self.var}^{k}"
                term = mono if c == 1 else (f"-{mono}" if c == -1 else f"{rat_str(c)}*{mono}")
            parts.append(term)
        s = parts[0]
        for t in parts[1:]:
            s += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return s


class RationalFunction:
    """Quotient of two UniPoly in the same variable, kept in canonical form:
    reduced fraction with a monic denominator.  "Identically zero" is the
    structural test ``self.num.is_zero``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        num._check(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = num
            self.den = UniPoly.const(num.var, 1)
            return
        g = UniPoly.gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lc = den.leading
        if lc != 1:
            num = num * (Fraction(1) / lc)
            den = den.monic()
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: UniPoly) -> "RationalFunction":
        return cls(p, UniPoly.const(p.var, 1))

    @classmethod
    def const(cls, var: str, c: Scalar) -> "RationalFunction":
        return cls(UniPoly.const(var, c), UniPoly.const(var, 1))

    @property
    def var(self) -> str:
        return self.num.var

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, UniPoly):
            return RationalFunction.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(self.var, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

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
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, e: int):
        if e < 0:
            return RationalFunction(self.den, self.num) ** (-e)
        r = RationalFunction.const(self.var, 1)
        b = self
        while e:
            if e & 1:
                r = r * b
            e >>= 1
            if e:
                b = b * b
        return r

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, point: Scalar) -> Fraction:
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num(point) / d

    def compose_inverse(self) -> "RationalFunction":
        """The rational function f(1/var), again as a function of var."""
        d = max(self.num.degree, self.den.degree)
        rev = lambda p: UniPoly(self.var, [p.coefficient(d - k) for k in range(d + 1)])
        return RationalFunction(rev(self.num), rev(self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den == UniPoly.const(self.var, 1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"


class WLaurent:
    """A rational function of u whose only finite pole is at u = 1, held as
    a Laurent polynomial in w = u - 1.

    ``terms`` maps each exponent of w to its nonzero coefficient, so
    "identically zero" is the structural test ``not terms``; no gcd or
    normalisation is ever needed.  Coefficients stay ``int`` whenever the
    inputs are integers.  Instances are immutable.  ``derivative`` is d/du
    (which equals d/dw), calling an instance evaluates it at a point u, and
    ``str`` prints the reduced rational function of u that
    ``RationalFunction`` would print.
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

    def num_den(self) -> tuple[UniPoly, UniPoly]:
        """Reduced numerator and monic denominator as polynomials in u.

        With d the order of the pole at w = 0, the denominator is
        (u - 1)^d and the numerator w^d f does not vanish at u = 1, so the
        pair is already in lowest terms.
        """
        lo = min(self.terms, default=0)
        d = -lo if lo < 0 else 0
        hi = max(self.terms, default=0)
        # Taylor shift of the numerator's w-coefficients to u = w + 1
        a = [self.terms.get(k - d, 0) for k in range(hi + d + 1)]
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] -= a[j + 1]
        den = [(-1) ** (d - k) * math.comb(d, k) for k in range(d + 1)]
        return UniPoly(self.var, a), UniPoly(self.var, den)

    def __repr__(self):
        return f"WLaurent({dict(sorted(self.terms.items()))!r})"

    def __str__(self):
        num, den = self.num_den()
        if den.degree == 0:
            return str(num)
        return f"({num}) / ({den})"


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


@dataclass(frozen=True)
class BiSeries:
    """Truncated series in two formal variables.

    ``data`` maps integer exponent pairs to nonzero coefficients; exponents
    above (order1, order2) are unknown.  When half-integer grading is needed
    on an axis, the caller stores doubled integer indices there.
    """

    var1: str
    var2: str
    data: dict
    order1: int
    order2: int

    def coefficient(self, e1: int, e2: int) -> Fraction:
        if e1 > self.order1 or e2 > self.order2:
            raise IndexError(f"({e1},{e2}) beyond truncation ({self.order1},{self.order2})")
        return self.data.get((e1, e2), Fraction(0))

    def _check(self, other: "BiSeries") -> None:
        if (self.var1, self.var2) != (other.var1, other.var2):
            raise ValueError("variable mismatch in BiSeries arithmetic")

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check(other)
        o1 = min(self.order1, other.order1)
        o2 = min(self.order2, other.order2)
        data = {}
        for k in set(self.data) | set(other.data):
            if k[0] <= o1 and k[1] <= o2:
                v = self.data.get(k, Fraction(0)) + other.data.get(k, Fraction(0))
                if v != 0:
                    data[k] = v
        return BiSeries(self.var1, self.var2, data, o1, o2)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        # truncation assumes both factors have nonnegative valuations
        self._check(other)
        o1 = min(self.order1, other.order1)
        o2 = min(self.order2, other.order2)
        data = {}
        for (a1, a2), va in self.data.items():
            for (b1, b2), vb in other.data.items():
                e = (a1 + b1, a2 + b2)
                if e[0] <= o1 and e[1] <= o2:
                    data[e] = data.get(e, Fraction(0)) + va * vb
        return BiSeries(self.var1, self.var2, {k: v for k, v in data.items() if v != 0}, o1, o2)

    def scale(self, c: Scalar) -> "BiSeries":
        c = Fraction(c)
        return BiSeries(
            self.var1, self.var2,
            {k: c * v for k, v in self.data.items() if c * v != 0},
            self.order1, self.order2,
        )


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


def series_of_rational(f: RationalFunction, point, order: int) -> TruncSeries:
    """Truncated (Laurent) series of a rational function.

    ``point`` is 0 or the string "infinity".  At 0 a pole raises
    PoleAtExpansionPoint with its order; at infinity the result is a series
    in 1/var (variable tag "1/<var>") and a Laurent tail is permitted.
    """
    var = f.var
    if point == 0:
        v_num = f.num.valuation() if not f.num.is_zero else 0
        v_den = f.den.valuation()
        if not f.num.is_zero and v_den > v_num:
            raise PoleAtExpansionPoint(v_den - v_num)
        if f.num.is_zero:
            return TruncSeries(var, [0] * (order + 1))
        num = list(f.num.coeffs[v_den:]) if v_den else list(f.num.coeffs)
        den = list(f.den.coeffs[v_den:])
        return TruncSeries(var, _series_div(num, den, order), 0)
    if point == "infinity":
        dn, dd = f.num.degree, f.den.degree
        if f.num.is_zero:
            return TruncSeries(f"1/{var}", [0] * (order + 1))
        num = [f.num.coefficient(dn - k) for k in range(dn + 1)]
        den = [f.den.coefficient(dd - k) for k in range(dd + 1)]
        off = dd - dn
        n = order - off + 1
        if n <= 0:
            return TruncSeries(f"1/{var}", [0], order)
        return TruncSeries(f"1/{var}", _series_div(num, den, n - 1), off)
    raise ValueError("expansion point must be 0 or 'infinity'")


def _series_div(num: list, den: list, order: int) -> list:
    """Power-series quotient num/den through the given order; den[0] != 0."""
    d0 = den[0]
    out = []
    for m in range(order + 1):
        s = num[m] if m < len(num) else Fraction(0)
        for k in range(1, min(m, len(den) - 1) + 1):
            s -= den[k] * out[m - k]
        out.append(Fraction(s) / d0)
    return out
