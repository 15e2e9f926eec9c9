import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from tiltlab import shifts
from tiltlab.shifts import (
    SelectionPair,
    ShiftTuple,
    enumerate_selections,
    second_moment_quadrature_k1,
    second_moment_recipe_k1,
    swap_shifts,
)
from tiltlab.zeta_eval import zeta_em_many
from tiltlab.zeta_lab import mu_alpha

from oracles import (
    g_p_factor,
    gaussian_exponent,
    gaussian_exponent_derivatives,
    quadrature_k1_two_progressions,
    recipe_k1_mp,
    trial_division_primes,
)


def random_tuple(k, rng):
    vals = rng.uniform(-0.4, 0.4, size=(2, k, 2))
    alphas = tuple(complex(a, b) for a, b in vals[0])
    betas = tuple(complex(a, b) for a, b in vals[1])
    return ShiftTuple(k=k, alphas=alphas, betas=betas)


def test_selection_counts():
    assert len(enumerate_selections(0)) == 1
    assert len(enumerate_selections(1)) == 2
    assert len(enumerate_selections(2)) == 6
    for k in range(9):
        assert len(enumerate_selections(k)) == math.comb(2 * k, k)


def test_selection_grouping():
    sels = enumerate_selections(3)
    by_j = {}
    for s in sels:
        by_j.setdefault(s.j, 0)
        by_j[s.j] += 1
    assert by_j == {j: math.comb(3, j) ** 2 for j in range(4)}


def test_selection_guard():
    with pytest.raises(ValueError):
        enumerate_selections(9)
    with pytest.raises(ValueError):
        SelectionPair(S=(1, 2), T=(1,))
    with pytest.raises(ValueError):
        SelectionPair(S=(0,), T=(1,))


def test_swap_identity_on_empty_selection():
    tup = ShiftTuple(2, (0.1, 0.2j), (0.3, -0.1j))
    swapped = swap_shifts(tup, SelectionPair((), ()))
    assert swapped == tup


def test_swap_single_pair_rule():
    # k = 1, S = T = {1}: (alpha_1; beta_1) -> (-beta_1; -alpha_1)
    tup = ShiftTuple(1, (0.25 + 0.1j,), (-0.03 + 0.2j,))
    swapped = swap_shifts(tup, SelectionPair((1,), (1,)))
    assert swapped.alphas == (0.03 - 0.2j,)
    assert swapped.betas == (-0.25 - 0.1j,)


def test_swap_is_involution_exhaustive():
    rng = np.random.default_rng(3)
    for k in range(1, 5):
        tup = random_tuple(k, rng)
        for sel in enumerate_selections(k):
            assert swap_shifts(swap_shifts(tup, sel), sel) == tup


def test_g_p_zero_shifts():
    for k in (1, 2, 3):
        tup = ShiftTuple(k, (0.0,) * k, (0.0,) * k)
        for sel in enumerate_selections(k):
            assert g_p_factor(17, sel, tup) == pytest.approx(2.0 * k)


def test_g_p_theorem2_pattern_matches_cosine():
    alpha0 = 0.37
    tup = ShiftTuple(1, (1j * alpha0,), (-1j * alpha0,))
    for sel in enumerate_selections(1):
        for p in (2, 13, 101):
            expected = 2.0 * math.cos(alpha0 * math.log(p))
            assert g_p_factor(p, sel, tup) == pytest.approx(expected, abs=1e-12)


def test_g_p_theorem2_selection_independent_exhaustive():
    alpha0 = 0.21
    for k in range(1, 5):
        tup = ShiftTuple(k, (1j * alpha0,) * k, (-1j * alpha0,) * k)
        values = [g_p_factor(31, sel, tup) for sel in enumerate_selections(k)]
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-12)
        assert values[0] == pytest.approx(2.0 * k * math.cos(alpha0 * math.log(31)), abs=1e-12)


def test_gaussian_exponent_at_zero():
    assert gaussian_exponent(0.0, 3.0, 1.0, 2, 5.0) == 0.0


def test_gaussian_exponent_theorem2_reduction():
    # with the Theorem-2 shifts and mu = mu_alpha, the linear part of the
    # exponent vanishes for every selection, leaving z^2 L / 4
    alpha0 = 0.15
    primes = np.array(trial_division_primes(500), dtype=float)
    mu = mu_alpha((1, 500), alpha0)
    logs = np.log(primes)
    inv_p = 1.0 / primes
    for k in (1, 2, 3):
        tup = ShiftTuple(k, (1j * alpha0,) * k, (-1j * alpha0,) * k)
        for sel in enumerate_selections(k):
            g_sum = sum(
                g_p_factor(int(p), sel, tup) / p for p in primes
            )
            z = 0.37 + 0.11j
            L = float(np.sum(inv_p))
            expo = gaussian_exponent(z, L, mu, k, g_sum)
            assert expo == pytest.approx(z * z * L / 4, abs=1e-10)


def test_gaussian_exponent_second_derivative_is_variance():
    # with the linear part cancelled, d^2/dz^2 exp(E) at 0 equals L/2
    L = 2.31
    derivs = gaussian_exponent_derivatives(L, 0.0, 1, 0.0, 4)
    assert derivs[2] == pytest.approx(L / 2, rel=1e-12)


def test_gaussian_coefficient_identity_exact_rationals():
    L = Fraction(11, 4)
    derivs = gaussian_exponent_derivatives(L, Fraction(0), 1, Fraction(0), 12)
    for n, value in enumerate(derivs):
        if n % 2 == 1:
            assert value == 0
        else:
            double_fact = math.prod(range(n - 1, 0, -2)) if n else 1
            assert value == double_fact * (L / 2) ** (n // 2)


def test_recipe_symmetric_in_shifts():
    a = second_moment_recipe_k1(500, 800, 0.01, 0.03)
    b = second_moment_recipe_k1(500, 800, 0.03, 0.01)
    assert a == pytest.approx(b, rel=1e-12)


def test_recipe_confluent_continuity():
    base = second_moment_recipe_k1(1000, 2000, 0.0, 0.0)
    near = second_moment_recipe_k1(1000, 2000, 5e-7, 5e-7)
    assert abs(near - base) / abs(base) < 1e-4


@pytest.mark.parametrize("window", [(1e3, 2e3), (50.0, 1e8), (1e7, 1e7 + 1e-3), (1e7, 1e7 + 1.0), (1e4, 1e4 + 1e-3)])
@pytest.mark.parametrize("c", [0.0, 1e-12, 1e-9, 1e-7, -1e-7, 1e-5, 1e-3, 0.01, 0.3, 1.0, 1.5, -0.9])
def test_recipe_matches_mpmath(window, c):
    # across the Stieltjes band |c| < 1e-3, its edge, and c = 1, where P(c) is a removable 0/0;
    # rounding 1 +- c before evaluating zeta next to its pole would give 1.7e-3 at c = 1e-7.
    # In the narrow windows, differencing the band's antiderivative at the two ends would
    # cancel to about eps t_hi / (t_hi - t_lo): 5.8e-7 on [1e7, 1e7 + 1e-3] at c = 0
    got = second_moment_recipe_k1(*window, c / 2, c / 2)
    assert got == pytest.approx(recipe_k1_mp(*window, c), rel=1e-9)


@pytest.mark.parametrize(
    "alpha, beta", [(5e-324, 0.0), (0.0, 1e-310), (5e-324j, 0.0), (0.0, -5e-324j), (1e-300j, 5e-324)]
)
def test_recipe_at_a_subnormal_shift_is_the_unshifted_value(alpha, beta):
    # the pole band's E(x) = expm1(x)/x and the regular part must not divide by the
    # subnormal c = alpha + beta, nor by a product of it
    base = second_moment_recipe_k1(1000, 2000, 0.0, 0.0)
    assert abs(second_moment_recipe_k1(1000, 2000, alpha, beta) - base) <= 1e-15 * abs(base)


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.0, -1.0), (1.5, -0.5), (0.2, 0.6 + 0.8j)])
def test_recipe_rejects_shifts_outside_the_unit_disk(alpha, beta):
    with pytest.raises(ValueError, match=r"\|alpha\| < 1"):
        second_moment_recipe_k1(1000, 2000, alpha, beta)


def test_recipe_matches_quadrature_small_window():
    # the [1e3, 2e3] comparison at 2%/3% is in the acceptance suite
    recipe = second_moment_recipe_k1(500, 1000, 0.0, 0.0)
    quad = second_moment_quadrature_k1(500, 1000, 0.0, 0.0, step=0.05)
    assert abs(recipe - quad) / abs(quad) < 0.025


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.0724, 0.0724), (0.1, -0.05)])
def test_quadrature_matches_pointwise_em_simpson(alpha, beta):
    # reference: the same Simpson sum with every node evaluated by zeta_em_many
    t_lo, t_hi, step = 500.0, 520.0, 0.05
    n_panels = int(math.ceil((t_hi - t_lo) / step / 2)) * 2
    t = np.linspace(t_lo, t_hi, n_panels + 1)
    integrand = (zeta_em_many(0.5 + alpha + 1j * t)[0] * zeta_em_many(0.5 + beta - 1j * t)[0]).real
    weights = np.ones(n_panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    ref = (t_hi - t_lo) / n_panels / 3.0 * np.sum(weights * integrand)
    got = second_moment_quadrature_k1(t_lo, t_hi, alpha, beta, step=step)
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "alpha, beta",
    [(0.0, 0.0), (0.05, 0.05), (0.5 / math.log(1000.0),) * 2, (0.3, 0.1), (0.3, -0.2), (0.1 + 0.05j, 0.1 - 0.05j)],
)
def test_quadrature_matches_two_progression_form(alpha, beta):
    # the right factor as the conjugate of a +ih progression (the left one itself when
    # conj(beta) = alpha) against the same Simpson sum with it run down with step -ih;
    # the last pair is complex, which only the library takes
    got = second_moment_quadrature_k1(1000.0, 2000.0, alpha, beta)
    ref = quadrature_k1_two_progressions(1000.0, 2000.0, alpha, beta)
    assert abs(got - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("step", [0.0, -0.05, math.inf, math.nan])
def test_quadrature_rejects_non_positive_step(step):
    with pytest.raises(ValueError, match="step"):
        second_moment_quadrature_k1(500, 520, 0.0, 0.0, step=step)


def test_quadrature_node_cap(monkeypatch):
    # 1024 / step / 2 panels: 2^19 - 1 gives the largest grid under the cap, 2^19 one node over
    counts = []
    monkeypatch.setattr(shifts, "zeta_em_progression", lambda s0, ds, count: counts.append(count) or np.ones(count))
    second_moment_quadrature_k1(1000.0, 2024.0, 0.0, 0.0, step=1024 / (2**20 - 2))
    assert counts == [shifts.MAX_QUADRATURE_NODES - 1]
    for step in (2.0**-10, 1e-6, 5e-324):
        with pytest.raises(ValueError, match="step"):
            second_moment_quadrature_k1(1000.0, 2024.0, 0.0, 0.0, step=step)
    assert len(counts) == 1


def test_recipe_guards():
    with pytest.raises(ValueError):
        second_moment_recipe_k1(10, 100, 0.0, 0.0)
    with pytest.raises(ValueError):
        second_moment_recipe_k1(200, 100, 0.0, 0.0)
    with pytest.raises(ValueError):
        ShiftTuple(1, (1.5,), (0.0,))
    with pytest.raises(ValueError):
        ShiftTuple(2, (0.1,), (0.0, 0.0))


def test_shift_tuple_is_value_object():
    a = ShiftTuple(1, (0.1,), (0.2,))
    b = ShiftTuple(1, (0.1 + 0j,), (0.2 + 0j,))
    assert a == b
