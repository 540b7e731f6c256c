"""Exact rational arithmetic helpers.

All coordinates, slopes, intercepts and squared distances in this package are
arbitrary-precision rationals, carried as fractions.Fraction (a canonical
numerator/denominator pair with denominator > 0).  `rat` is the parser for
values that come from outside the program; `Rat` builds one directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Union

Rat = RatT = Fraction
RatLike = Union[int, str, RatT]

R0 = Rat(0)
R1 = Rat(1)


def _rat_from_str(s: str) -> RatT:
    """Parse '3', '-0.25' or '1/3' into an exact rational."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(s)  # exact decimal parse


def rat(value: RatLike) -> RatT:
    """Coerce ints, strings and rationals to the canonical rational type."""
    if isinstance(value, RatT):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _rat_from_str(value)
    raise TypeError(f"cannot convert {type(value).__name__} to rational")


def homogeneous(m: RatT, c: RatT) -> tuple[int, int, int]:
    """The line y = m*x + c as integers (A, B, C) with A*y = B*x + C and
    A > 0 the least common denominator of m and c."""
    dm, dc = m.denominator, c.denominator
    a = lcm(dm, dc)
    return a, m.numerator * (a // dm), c.numerator * (a // dc)


def rat_str(x: RatT) -> str:
    """Render exactly: integer as '3', otherwise 'n/d'."""
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def sqrt_decimal_str(x: RatT, sig: int = 12) -> str:
    """Decimal rendering of sqrt(x) to `sig` significant digits, round-half-even.

    x must be a non-negative rational; the result is a plain decimal string.
    """
    x = rat(x)
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return "0"
    n, d = x.numerator, x.denominator
    # exponent e with 10^(e-1) <= sqrt(n/d) < 10^e
    e = 0
    while n < d * 10 ** (2 * e):
        e -= 1
    while n >= d * 10 ** (2 * (e + 1)):
        e += 1
    e += 1
    # digits = round(sqrt(n/d) * 10^(sig - e)) with half-even ties
    shift = sig - e
    if shift >= 0:
        scaled_n, scaled_d = n * 10 ** (2 * shift), d
    else:
        scaled_n, scaled_d = n, d * 10 ** (-2 * shift)
    q = isqrt(scaled_n // scaled_d)
    # candidates q, q+1; value v = sqrt(scaled_n/scaled_d) in [q, q+1)
    # round-half-even: compare v with q + 1/2 exactly: (2q+1)^2*scaled_d vs 4*scaled_n
    lhs = (2 * q + 1) ** 2 * scaled_d
    rhs = 4 * scaled_n
    if lhs < rhs or (lhs == rhs and q % 2 == 1):
        q += 1
    digits = str(q)
    if len(digits) > sig:  # rounding bumped into the next decade
        digits = digits[:sig]
        e += 1
    # place the decimal point: value = 0.digits * 10^e
    if 0 < e <= sig:
        out = digits[:e] + ("." + digits[e:] if e < sig else "")
    elif e <= 0:
        out = "0." + "0" * (-e) + digits
    else:
        out = digits + "0" * (e - sig)
    return out.rstrip(".") if out.endswith(".") else out
