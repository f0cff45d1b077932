"""Exact scalars: Gaussian rationals a/b + (c/d)*i and the extended point at infinity.

Every value in the library is built from these.  Equality is value equality
in fully reduced normal form, so canonical forms downstream compare
bit-exactly.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

__all__ = [
    "GaussianRational",
    "Infinity",
    "INF",
    "ExtendedScalar",
    "gr",
    "as_scalar",
    "parse_scalar",
    "format_scalar",
    "parse_extended",
    "format_extended",
    "lex_key",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact rational")


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q(i), stored as a pair of reduced fractions.

    fractions.Fraction keeps each part reduced with positive denominator,
    so equal values always have identical representations.
    """

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other) -> GaussianRational:
        other = as_scalar(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> GaussianRational:
        other = as_scalar(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> GaussianRational:
        return as_scalar(other) - self

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> GaussianRational:
        other = as_scalar(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> GaussianRational:
        other = as_scalar(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other) -> GaussianRational:
        return as_scalar(other) / self

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"gr({self.re!s}, {self.im!s})" if self.im else f"gr({self.re!s})"


def as_scalar(x) -> GaussianRational:
    """x itself if it is a GaussianRational, else the int or Fraction x as one."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints and Fractions."""
    return GaussianRational(re, im)


@dataclass(frozen=True)
class Infinity:
    """The point at infinity of the one-point compactification."""

    def __repr__(self) -> str:
        return "inf"

    def __str__(self) -> str:
        return "inf"


INF = Infinity()

ExtendedScalar = GaussianRational | Infinity


# Text format: `a/b`, `a/b+c/d*i`, `a/b-c/d*i`, with integer shorthand `a`.
_SCALAR_RE = _re.compile(
    r"^(?P<re>-?[0-9]+(?:/[0-9]+)?)"
    r"(?:(?P<sign>[+-])(?P<im>[0-9]+(?:/[0-9]+)?)\*i)?\Z"
)


def _parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError as exc:  # only the interpreter's digit limit fails on matched digits
        raise ParseError(f"scalar part too long ({len(text)} characters): {exc}") from exc
    if d == 0:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(n, d)


def parse_scalar(text: str) -> GaussianRational:
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ParseError(f"malformed scalar {text!r}")
    re_part = _parse_fraction(m.group("re"))
    if m.group("im") is None:
        return GaussianRational(re_part)
    im_part = _parse_fraction(m.group("im"))
    if m.group("sign") == "-":
        im_part = -im_part
    return GaussianRational(re_part, im_part)


# Products of accepted inputs can exceed the interpreter's limit on
# int-to-str digits (4300 by default), so long integers are printed in
# chunks of fewer digits; no interpreter-wide setting is changed.
_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


def _format_int(n: int) -> str:
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + _format_int(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return _format_int(f.numerator)
    return f"{_format_int(f.numerator)}/{_format_int(f.denominator)}"


def format_scalar(z: GaussianRational) -> str:
    out = _format_fraction(z.re)
    if z.im:
        sign = "+" if z.im > 0 else "-"
        out += f"{sign}{_format_fraction(abs(z.im))}*i"
    return out


def parse_extended(text: str) -> ExtendedScalar:
    if text == "inf":
        return INF
    return parse_scalar(text)


def format_extended(at: ExtendedScalar) -> str:
    if isinstance(at, Infinity):
        return "inf"
    return format_scalar(at)


def lex_key(z: GaussianRational) -> tuple[Fraction, Fraction]:
    """Deterministic sort key (not a mathematical order on C)."""
    return (z.re, z.im)
