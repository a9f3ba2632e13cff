"""The exact rational value of the package's numbers, for tests that hold
its arithmetic against Fraction arithmetic.  pytest collects test_*.py only,
so this module holds no test."""
from fractions import Fraction

from qortho.kernel import _pair


def exact_fraction(x) -> Fraction:
    """The exact value of a pair (m, e), m 2^e, or of a finite mpf."""
    m, e = x if isinstance(x, tuple) else _pair(x)
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)
