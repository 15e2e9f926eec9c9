"""Selection combinatorics and main terms of the shifted-moment recipe.

A shifted 2k-th moment expands over pairs of equal-size subsets (S, T) of
the alpha- and beta-shifts; each selection swaps its chosen shifts by
alpha_i -> -beta_l, beta_l -> -alpha_i (in sorted index order) and
contributes a per-prime factor g_p(S, T).  The Gaussian main term
exp(z^2 L / 4 - k z mu + (z/2) sum_p g_p/p) is differentiated at z = 0
through the Taylor-jet exponential (`tiltlab.jet`) that the exact RMT
moments use.

For k = 1 the recipe's main term is evaluated in closed form and can be
compared against direct Simpson quadrature of
zeta(1/2 + a + it) zeta(1/2 + b - it); on the uniform Simpson grid each
factor is one Euler-Maclaurin progression (`zeta_eval.zeta_em_progression`)
in memory that grows with the node count alone.  Both run up the grid, the
right one as the conjugate of zeta(1/2 + conj(b) + it), so equal shifts
(conj(b) = a, the CLI default) take one progression.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import jet
from .zeta_eval import RS_MAX_T, zeta_em_many, zeta_em_progression

__all__ = [
    "ShiftTuple",
    "SelectionPair",
    "enumerate_selections",
    "swap_shifts",
    "g_p_factor",
    "gaussian_exponent",
    "gaussian_exponent_derivatives",
    "second_moment_recipe_k1",
    "second_moment_quadrature_k1",
]

MAX_SELECTION_K = 8
MAX_QUADRATURE_NODES = 1 << 20  # about 5x the 199,001 nodes of the widest window at the default step
POLE_BAND = 1e-3  # |a + b| below it: the two poles of the k = 1 recipe combine in closed form
# Stieltjes constants gamma_0..gamma_3: zeta(1 + c) = 1/c + sum_n (-1)^n gamma_n c^n / n!
STIELTJES = (0.5772156649015329, -0.07281584548367673, -0.00969036319287232, 0.002053834420303346)


@dataclass(frozen=True)
class ShiftTuple:
    """The shifts (alpha_1..alpha_k; beta_1..beta_k), all inside the unit disk."""

    k: int
    alphas: tuple
    betas: tuple

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        alphas = tuple(complex(a) for a in self.alphas)
        betas = tuple(complex(b) for b in self.betas)
        if len(alphas) != self.k or len(betas) != self.k:
            raise ValueError("need exactly k alphas and k betas")
        if any(abs(a) >= 1 for a in alphas) or any(abs(b) >= 1 for b in betas):
            raise ValueError("all shifts must satisfy |shift| < 1")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)


@dataclass(frozen=True)
class SelectionPair:
    """Subsets S (of alpha indices) and T (of beta indices) with |S| = |T|."""

    S: tuple
    T: tuple

    def __post_init__(self):
        s = tuple(sorted(int(i) for i in self.S))
        t = tuple(sorted(int(i) for i in self.T))
        if len(s) != len(t):
            raise ValueError("|S| must equal |T|")
        if len(set(s)) != len(s) or len(set(t)) != len(t):
            raise ValueError("selection indices must be distinct")
        if any(i < 1 for i in s + t):
            raise ValueError("selection indices are 1-based")
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "T", t)

    @property
    def j(self):
        return len(self.S)


def enumerate_selections(k):
    """All selection pairs for tilt k, grouped by j; count is C(2k, k)."""
    if not 0 <= k <= MAX_SELECTION_K:
        raise ValueError(f"k must be in [0, {MAX_SELECTION_K}]")
    out = []
    indices = range(1, k + 1)
    for j in range(k + 1):
        for s in combinations(indices, j):
            for t in combinations(indices, j):
                out.append(SelectionPair(S=s, T=t))
    return out


def swap_shifts(shift_tuple: ShiftTuple, sel: SelectionPair) -> ShiftTuple:
    """(alpha_S; beta_T): swapped selections alpha_{i_r} <- -beta_{l_r} and back."""
    k = shift_tuple.k
    if sel.S and max(sel.S) > k or sel.T and max(sel.T) > k:
        raise ValueError("selection indices exceed tuple size")
    alphas = list(shift_tuple.alphas)
    betas = list(shift_tuple.betas)
    for i_r, l_r in zip(sel.S, sel.T):
        alphas[i_r - 1] = -shift_tuple.betas[l_r - 1]
        betas[l_r - 1] = -shift_tuple.alphas[i_r - 1]
    return ShiftTuple(k=k, alphas=tuple(alphas), betas=tuple(betas))


def g_p_factor(p, sel: SelectionPair, shift_tuple: ShiftTuple) -> complex:
    """g_p(S,T) = sum_{a not in S} p^-a + sum_{b not in T} p^-b
                 + sum_{a in S} p^a + sum_{b in T} p^b."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    log_p = math.log(p)
    s_set, t_set = set(sel.S), set(sel.T)
    total = 0.0 + 0.0j
    for idx, a in enumerate(shift_tuple.alphas, start=1):
        total += cmath.exp((a if idx in s_set else -a) * log_p)
    for idx, b in enumerate(shift_tuple.betas, start=1):
        total += cmath.exp((b if idx in t_set else -b) * log_p)
    return total


def gaussian_exponent(z, L, mu, k, g_sum):
    """E(z) = z^2 L / 4 - k z mu + (z/2) g_sum."""
    return z * z * L / 4 - k * z * mu + z * g_sum / 2


def gaussian_exponent_derivatives(L, mu, k, g_sum, n_max):
    """d^n/dz^n exp(E(z)) at z = 0 for n = 0..n_max, from the jet of exp(E).

    Exact for exact (Fraction/integer) inputs, which is how the odd/even
    Gaussian coefficient identity is checked without rounding.
    """
    c1 = -k * mu + g_sum / 2  # wants to vanish under the matched centering
    c2 = L / 4
    coeffs = ([0, c1, c2] + [0] * n_max)[: n_max + 1]
    return [math.factorial(n) * f for n, f in enumerate(jet.exp(coeffs))]


def _expm1_ratio(x):
    """expm1(x) / x, which is 1 at x = 0."""
    return np.expm1(x) / x if x else 1.0


def _zeta_regular_part(c):
    """zeta(1 + c) - 1/c to O(c^4), from the Stieltjes constants."""
    return sum(g * (-c) ** n / math.factorial(n) for n, g in enumerate(STIELTJES))


def second_moment_recipe_k1(t_lo, t_hi, alpha, beta):
    """Main term of int_{t_lo}^{t_hi} zeta(1/2+a+it) zeta(1/2+b-it) dt at k = 1, for |a|, |b| < 1.

    With c = a + b the two selections give (t_hi - t_lo) zeta(1 + c) plus
    zeta(1 - c) P(c), P(c) = int (t/2pi)^{-c} dt, and P is taken through
    expm1((1 - c) log(t_hi/t_lo)), finite at c = 1.  For |c| < POLE_BAND,
    zeta(1 +- c) = +-1/c + R(+-c) with R from the Stieltjes constants, and
    the poles combine into (t_hi - t_lo - P(c))/c, which is
    t (u E(-cu) - 1) / (1 - c), u = log(t/2pi), E(x) = expm1(x)/x, between
    the window's ends.  That difference is taken as
    (t_hi - t_lo)(u_hi E(-c u_hi) - 1) + t_lo (t_lo/2pi)^{-c} d E(-cd), with
    d = log1p((t_hi - t_lo)/t_lo): no two large terms cancel, even in a
    narrow window, and c = 0 is no special case.
    """
    if not (50 <= t_lo < t_hi <= RS_MAX_T):
        raise ValueError("need 50 <= t_lo < t_hi within the evaluator ceiling")
    if abs(alpha) >= 1 or abs(beta) >= 1:
        raise ValueError(f"shifts must satisfy |alpha| < 1 and |beta| < 1, got {alpha!r}, {beta!r}")
    c = complex(alpha) + complex(beta)
    u_lo, u_hi = (math.log(t / (2 * math.pi)) for t in (t_lo, t_hi))
    span = math.log1p((t_hi - t_lo) / t_lo)
    lo_span = t_lo * np.exp(-c * u_lo) * span
    power_integral = lo_span * _expm1_ratio((1 - c) * span)
    if abs(c) < POLE_BAND:
        ends = (t_hi - t_lo) * (u_hi * _expm1_ratio(-c * u_hi) - 1) + lo_span * _expm1_ratio(-c * span)
        res = ends / (1 - c) + (t_hi - t_lo) * _zeta_regular_part(c) + _zeta_regular_part(-c) * power_integral
    else:
        zc, zmc = zeta_em_many(np.array([1 + c, 1 - c]))[0]
        res = (t_hi - t_lo) * zc + zmc * power_integral
    if abs(res.imag) > 1e-6 * max(1.0, abs(res.real)):
        raise ValueError("recipe main term is not real for these shifts")
    return float(res.real)


def second_moment_quadrature_k1(t_lo, t_hi, alpha, beta, step=0.05):
    """Simpson quadrature of zeta(1/2+a+it) zeta(1/2+b-it) over [t_lo, t_hi].

    This is the recipe's independent cross-check.  The Simpson nodes
    t_j = t_lo + j h are equally spaced, so both factors are Euler-Maclaurin
    progressions (`zeta_em_progression`) with step +ih: the right one is
    taken as zeta(1/2 + b - it) = conj zeta(1/2 + conj(b) + it), and when
    conj(b) = a it is the left progression itself.  The grid holds at most
    MAX_QUADRATURE_NODES nodes, checked before any work.
    """
    if not (50 <= t_lo < t_hi <= 10**4):
        raise ValueError("quadrature window must sit inside the Euler-Maclaurin range")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    n_panels = 2 * math.ceil(min((t_hi - t_lo) / step / 2, MAX_QUADRATURE_NODES))
    if n_panels + 1 > MAX_QUADRATURE_NODES:
        raise ValueError(
            f"step {step:g} puts more than {MAX_QUADRATURE_NODES} Simpson nodes on [{t_lo:g}, {t_hi:g}]"
        )
    h = (t_hi - t_lo) / n_panels
    alpha = complex(alpha)
    beta = complex(beta).conjugate()
    left = zeta_em_progression(0.5 + alpha + 1j * t_lo, 1j * h, n_panels + 1)
    right = left if beta == alpha else zeta_em_progression(0.5 + beta + 1j * t_lo, 1j * h, n_panels + 1)
    integrand = (left * right.conj()).real
    weights = np.ones(n_panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(weights * integrand))
