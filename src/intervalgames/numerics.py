"""Exact rational scalars and closed intervals with rational endpoints.

Scalars are plain ``fractions.Fraction`` values, so every comparison and
arithmetic step is exact.  Intervals are immutable ``[lower, upper]`` pairs
of scalars, compared with the componentwise "weakly better" relation.
"""

import re
from fractions import Fraction
from math import lcm

Scalar = Fraction

# A rational literal ``p`` or ``p/q``: group 1 is p with its sign, group 2 is
# q, or None for an integer.  Every pattern below is built from it.
_RATIONAL = r"([+-]?[0-9]+)(?:\s*/\s*([0-9]+))?"
_SCALAR_RE = re.compile(_RATIONAL + r"\Z")
# A worth: an interval (groups 1-4) or a bare rational (groups 5 and 6).
_WORTH_RE = re.compile(rf"(?:\[\s*{_RATIONAL}\s*,\s*{_RATIONAL}\s*\]|{_RATIONAL})\Z")
# Splits an interval at its comma, so that parse_scalar words the error of
# a malformed endpoint; a text it does not match is no interval literal.
_ENDPOINTS_RE = re.compile(r"\[([^,\[\]]+),([^,\[\]]+)\]\Z")


def as_fraction(value) -> Fraction:
    """``Fraction(value)`` for exact input; floats and bools raise ``TypeError``.

    A float such as 0.1 would silently become its binary approximation and a
    bool would pass for 0 or 1, so both are refused rather than coerced.
    """
    if type(value) is Fraction:
        return value  # immutable, and already exact: no copy needed
    if isinstance(value, (float, bool)):
        raise TypeError(f"expected an exact rational, got {type(value).__name__} {value!r}")
    return Fraction(value)


def parse_scalar(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (integers, q positive) into an exact rational."""
    match = _SCALAR_RE.match(text.strip())
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    try:
        # int raises ValueError on a literal longer than it converts
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def parse_endpoints(text: str) -> tuple[int, int, int, int]:
    """The endpoints of ``[p, q]``, or of a bare rational read as a degenerate
    interval, as ``(a, b, c, d)``: lower a/b and upper c/d, b and d
    positive but not reduced.  Lower <= upper is checked as a*d <= c*b, so
    an accepted literal builds no Fraction; a refused one raises the
    ``ValueError`` that ``parse_interval`` or ``parse_scalar`` raises on it."""
    token = text.strip()
    match = _WORTH_RE.match(token)
    if match:
        lo_num, lo_den, up_num, up_den, num, den = match.groups()
        if num is not None:
            lo_num, lo_den = up_num, up_den = num, den
        try:
            a, b, c, d = int(lo_num), int(lo_den or 1), int(up_num), int(up_den or 1)
        except ValueError:  # longer than int converts
            pass
        else:
            if b and d and a * d <= c * b:
                return a, b, c, d
    # refused: parse_scalar, or Interval on reversed endpoints, words the error
    if not token.startswith("["):
        return (*parse_scalar(token).as_integer_ratio(),) * 2
    match = _ENDPOINTS_RE.match(token)
    if not match:
        raise ValueError(f"not an interval literal: {token!r}")
    iv = Interval(parse_scalar(match.group(1)), parse_scalar(match.group(2)))
    return (*iv.lower.as_integer_ratio(), *iv.upper.as_integer_ratio())


def integers(values) -> tuple[list[int], int]:
    """The values (Fractions or ints) times their least common denominator,
    and that denominator.  One positive factor keeps the sign of every
    difference of sums of the values, so such comparisons read the same."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*[d for _, d in ratios])
    return [a * (scale // d) for a, d in ratios], scale


def format_scalar(value) -> str:
    """Canonical text for a rational: lowest terms, ``p`` or ``p/q``.  Floats
    and bools raise ``TypeError``, as in ``as_fraction``."""
    return str(as_fraction(value))


class Interval:
    """Closed interval of rationals; degenerate when both endpoints agree.

    Endpoints accept anything ``as_fraction`` accepts (ints, strings, other
    Fractions; not floats or bools).  A single argument builds the
    degenerate interval.
    """

    __slots__ = ("lower", "upper")

    lower: Fraction
    upper: Fraction

    def __init__(self, lower, upper=None):
        lo = as_fraction(lower)
        hi = lo if upper is None else as_fraction(upper)
        if lo > hi:
            raise ValueError(f"invalid interval: lower {lo} exceeds upper {hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    def __eq__(self, other):
        if isinstance(other, Interval):
            return self.lower == other.lower and self.upper == other.upper
        return NotImplemented

    def __hash__(self):
        return hash((self.lower, self.upper))

    def __repr__(self):
        return f"Interval('{self.lower}', '{self.upper}')"

    def __str__(self):
        return format_interval(self)

    @property
    def degenerate(self) -> bool:
        return self.lower == self.upper

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def __contains__(self, item) -> bool:
        """Scalar membership, or subset containment for an interval item."""
        if isinstance(item, Interval):
            return self.lower <= item.lower and item.upper <= self.upper
        value = as_fraction(item)
        return self.lower <= value <= self.upper

    def __add__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lower + other.lower, self.upper + other.upper)


ZERO_INTERVAL = Interval(0)


def weakly_better(x: Interval, y: Interval) -> bool:
    """Componentwise at-least-as-good: both endpoints of x dominate y's."""
    return x.lower >= y.lower and x.upper >= y.upper


def strictly_better(x: Interval, y: Interval) -> bool:
    """Weakly better and not equal."""
    return weakly_better(x, y) and x != y


def parse_interval(text: str) -> Interval:
    """Parse ``[p, q]`` with rational endpoints."""
    token = text.strip()
    if not _ENDPOINTS_RE.match(token):
        raise ValueError(f"not an interval literal: {text!r}")
    a, b, c, d = parse_endpoints(token)
    return Interval(Fraction(a, b), Fraction(c, d))


def format_interval(value: Interval) -> str:
    return f"[{value.lower}, {value.upper}]"
