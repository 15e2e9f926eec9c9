import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from tiltlab import jet


def _scaled(f):
    """Derivatives r! f_r from a jet's Taylor coefficients."""
    return [math.factorial(r) * c for r, c in enumerate(f)]


def test_exp_against_mpmath():
    # g(x) = 0.3 x + 0.7 x^2 - 0.2 x^3
    g = lambda x: 0.3 * x + 0.7 * x * x - 0.2 * x**3
    got = _scaled(jet.exp([0.0, 0.3, 0.7, -0.2, 0.0, 0.0, 0.0, 0.0, 0.0]))
    for n in range(0, 9):
        ref = float(mp.diff(lambda x: mp.e ** g(x), 0, n, direction=0))
        assert got[n] == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_exp_pure_gaussian_exact_fractions():
    # exp(z^2 L / 4): odd derivatives vanish identically, even ones are
    # (n-1)!! (L/2)^{n/2}, checked in exact rational arithmetic
    L = Fraction(7, 3)
    got = _scaled(jet.exp([Fraction(0), Fraction(0), L / 4] + [Fraction(0)] * 10))
    for n in range(0, 13):
        if n % 2 == 1:
            assert got[n] == 0
        else:
            expected = Fraction(math.factorial(n), math.factorial(n // 2)) * (L / 4) ** (n // 2)
            double_factorial = math.prod(range(n - 1, 0, -2)) if n else 1
            assert expected == double_factorial * (L / 2) ** (n // 2)
            assert got[n] == expected


def test_exp_complex_support():
    got = _scaled(jet.exp([0, 0.2 + 0.5j, -0.1j, 0]))
    ref = complex(mp.diff(lambda x: mp.e ** ((0.2 + 0.5j) * x + (-0.1j) * x**2), 0, 3, direction=0))
    assert got[3] == pytest.approx(ref, rel=1e-9)


def test_exp_leaves_the_constant_term_to_the_caller():
    assert jet.exp([5.0, 1.0, 0.0]) == jet.exp([0.0, 1.0, 0.0]) == [1, 1.0, 0.5]


def test_mul_against_mpmath():
    # sin(x) * e^{2x} at x0 = 0.4
    x0 = mp.mpf("0.4")
    order = 6
    f = [float(mp.diff(mp.sin, x0, r) / mp.factorial(r)) for r in range(order + 1)]
    g = [float(mp.diff(lambda x: mp.e ** (2 * x), x0, r) / mp.factorial(r)) for r in range(order + 1)]
    got = _scaled(jet.mul(f, g))
    for r in range(order + 1):
        ref = float(mp.diff(lambda x: mp.sin(x) * mp.e ** (2 * x), x0, r))
        assert got[r] == pytest.approx(ref, rel=1e-12)


def test_mul_truncates_to_the_lower_order():
    assert jet.mul([1.0, 2.0, 3.0], [4.0, 5.0]) == [4.0, 13.0]


def test_compose_against_mpmath():
    # F = log about u0 = cosh(x0) + 1, u(x) = cosh(x) + 1: jet of log(cosh x + 1)
    x0 = mp.mpf("0.7")
    order = 5
    u = [float(mp.diff(lambda x: mp.cosh(x) + 1, x0, r) / mp.factorial(r)) for r in range(order + 1)]
    a = [float(mp.diff(mp.log, mp.cosh(x0) + 1, r) / mp.factorial(r)) for r in range(order + 1)]
    got = _scaled(jet.compose(a, u))
    for r in range(order + 1):
        ref = float(mp.diff(lambda x: mp.log(mp.cosh(x) + 1), x0, r))
        assert got[r] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_array_entries_broadcast():
    # exp(c x) at three values of c at once: coefficients c^r / r!
    c = np.array([0.5, -1.0, 2.0])
    got = jet.exp([0.0, c, 0.0, 0.0])
    for r in range(4):
        assert np.allclose(got[r], c**r / math.factorial(r), rtol=1e-15, atol=0)
