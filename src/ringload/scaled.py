"""Fixed-point arithmetic on the 1/28 grid.

Every quantity in this package (demand values, split amounts, edge loads,
pattern points, performance bounds) is an integer multiple of 1/28 and is
stored as that integer.  The grid is chosen so that all constants the
algorithms produce stay exactly representable:

  * demand values are integers, split amounts integers or halves,
  * the certified bounds and greedy start points are multiples of D/14
    (D/2, D/14, 5D/14, 3D/7, 11D/14, 19D/14, ...),
  * the crossover operation halves an even point difference.

28 = 2 * 14 covers all of these, so no operation ever rounds.  An
off-grid value raises ValidationError instead of rounding: the package's
own arithmetic stays on the grid, so such a value comes from a caller's
data, such as a fraction off the grid or a D that a route cannot divide
exactly.

decimal and fractions are imported by the two rare calls that use them,
int_text past int's str digit limit and parse_rational, so importing the
package loads neither.
"""

from __future__ import annotations

import math

from .errors import ValidationError

SCALE = 28

#: Type alias for documentation; scaled quantities are plain ints.
Scaled = int


def from_int(value: int) -> Scaled:
    """Scale an integer quantity (demand value, integral split amount)."""
    return value * SCALE


def from_fraction(value: Fraction) -> Scaled:
    """Scale an exact rational; raises if it is not on the 1/28 grid."""
    scaled = value * SCALE
    if scaled.denominator != 1:
        raise ValidationError(f"{value} is not a multiple of 1/{SCALE}")
    return int(scaled)


def int_text(value: int) -> str:
    """str(value) at any size: past int's str digit limit, by way of Decimal."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(value))


def rational_str(scaled: Scaled) -> str:
    """Exact "p" or "p/q" rendering, e.g. 37, 19/14, -3/2."""
    g = math.gcd(scaled, SCALE)
    if g == SCALE:
        return int_text(scaled // SCALE)
    return f"{int_text(scaled // g)}/{SCALE // g}"


def parse_rational(text: str) -> Scaled:
    """Inverse of rational_str."""
    from fractions import Fraction

    return from_fraction(Fraction(text))


def exact_div(scaled: Scaled, divisor: int) -> Scaled:
    """Exact integer division; raises on any remainder."""
    q, r = divmod(scaled, divisor)
    if r:
        raise ValidationError(f"scaled value {scaled} is not divisible by {divisor}")
    return q


def unscale(scaled: Scaled) -> int:
    """Back to original integer units; the value must be integral."""
    return exact_div(scaled, SCALE)
