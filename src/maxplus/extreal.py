"""Extended-real scalars with the two max-plus addition conventions.

The scalar set is R together with -inf and +inf.  Real addition extends
to the infinities in two inequivalent ways, differing only on the pair
(-inf, +inf):

    lower addition   a  + b :  (-inf) + (+inf) = -inf   (-inf absorbs)
    upper addition   a +' b :  (-inf) + (+inf) = +inf   (+inf absorbs)

Lower addition is the multiplication of the complete max-plus semiring;
upper addition is its order dual and enters through residuation:

    scalar_residual(mu, nu) = nu +' (-mu)

is the largest lambda with mu + lambda <= nu (a Galois connection).
The two are De Morgan duals: -(a +' b) = (-a) + (-b).

Scalars are plain Python numbers: finite values are int, Fraction or
float, and NEG_INF / POS_INF are the float infinities, so the order is
Python's own and every pair other than (-inf, +inf) adds natively.
Exactness is a property of the payloads, not of this module: all
comparisons here are exact; tolerances exist only in solver termination.

scalar() and parse_scalar() are the boundary: they reject NaN, types
other than int / Fraction / float (bool too, though it is an int, as
its text "True" would not parse back), and finite values beyond the
float range (which could not meet an infinity in native arithmetic).  A
Fraction with denominator 1 enters as an int.
"""

from __future__ import annotations

import sys
from fractions import Fraction

NEG_INF = float("-inf")
POS_INF = float("inf")
ZERO = 0

_FLOAT_MAX = sys.float_info.max


def _finite(v):
    """v as a finite scalar, or ValueError (NaN and the infinities fail
    the range test too)."""
    # the type test first: isinstance against the numbers ABC behind
    # Fraction is slow, and most scalars are ints
    if type(v) is not int and isinstance(v, Fraction) and v.denominator == 1:
        v = v.numerator
    if not -_FLOAT_MAX <= v <= _FLOAT_MAX:
        raise ValueError(f"not a finite scalar: {v!r}")
    return v


def scalar(v):
    """Validate a Python number or token string as a scalar.

    Float infinities are the infinite scalars; strings go through
    parse_scalar.
    """
    if isinstance(v, str):
        return parse_scalar(v)
    if isinstance(v, float):
        return v if v == NEG_INF or v == POS_INF else _finite(v)
    if isinstance(v, (int, Fraction)) and v.__class__ is not bool:
        return _finite(v)
    raise TypeError(f"unsupported scalar type: {type(v).__name__}")


def lower_add(a, b):
    """a + b with (-inf) + (+inf) = -inf: the max-plus multiplication."""
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


def upper_add(a, b):
    """a +' b with (-inf) +' (+inf) = +inf: the dual addition."""
    if a == POS_INF or b == POS_INF:
        return POS_INF
    return a + b


def negate(a):
    """The opposite scalar; swaps the infinities."""
    return -a


def scalar_residual(mu, nu):
    """The largest lambda with mu + lambda <= nu, i.e. nu +' (-mu).

    Finite iff both arguments are finite; +inf iff mu = -inf or
    nu = +inf.
    """
    if mu == NEG_INF or nu == POS_INF:
        return POS_INF
    return nu - mu


# --- text tokens -----------------------------------------------------------

_INF_TOKENS = {"-inf": NEG_INF, "-infinity": NEG_INF, "inf": POS_INF,
               "+inf": POS_INF, "infinity": POS_INF, "+infinity": POS_INF}


def parse_scalar(token, mode=None):
    """Parse one token: an infinity (-inf, +inf, inf, -infinity, ... in
    any case), a decimal integer, a decimal fraction like "2.5" or
    "1e-3", or a ratio like "5/2".  Finite tokens are ASCII, with no
    digit separators: "1_000" and Arabic-Indic digits are refused,
    though Python's int, float and Fraction accept both.

    mode "int" restricts finite tokens to integers (exact backend);
    mode "float" makes finite tokens floats; mode None keeps integers
    exact and everything else float.
    """
    inf = _INF_TOKENS.get(token.lower())
    if inf is not None:
        return inf
    try:
        if "_" in token or not token.isascii():
            raise ValueError(token)
        if mode == "int":
            return _finite(int(token))
        if "/" in token:
            num = Fraction(token)
            return _finite(float(num) if mode == "float" else num)
        if mode == "float":
            return _finite(float(token))
        try:
            return _finite(int(token))
        except ValueError:
            return _finite(float(token))
    except (ValueError, ZeroDivisionError, OverflowError):
        kind = "an integer" if mode == "int" else "a numeric"
        raise ValueError(f"not {kind} token: {token!r}") from None


def format_scalar(a):
    """Token for a scalar; inverse of parse_scalar for every backend.
    A Fraction with denominator 1 prints as an integer."""
    if a == NEG_INF:
        return "-inf"
    if a == POS_INF:
        return "+inf"
    return str(a)
