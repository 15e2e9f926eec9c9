"""Independent oracles shared by the test modules.

Everything here recomputes target values through routes that do not share
code with the package: plain series, trial division, high-precision
finite differences, alternating-series acceleration, dense CMV matrices
and eigenphase sums.  Five helpers read tiltlab: `rs_main_sums_direct`
starts from the package's prime rows, which are checked against mpmath
on their own, `fj_derivative_sum` reads one order of the package's
telescoped polygamma sums for the tests of their growth in N,
`gaussian_conformance` measures a Monte Carlo run against the package's
exact tilted moments, and `quadrature_k1_two_progressions` takes the k = 1
quadrature's factors from the package's Euler-Maclaurin progression,
which is checked against zeta_em_many and mpmath on its own, and
`prime_power_sum_loop` starts Legendre's prime-sum recursion from the
package's power sums and runs it one base prime at a time, the reference
that the package's vectorized tail must match bit for bit.

The recipe's per-prime factor g_p(S, T) and its Gaussian main term
exp(z^2 L / 4 - k z mu + (z/2) sum_p g_p/p), differentiated at z = 0
through the package's jet exponential, live here too: no package code
calls them, and criterion 9 and the `shifts` tests check them on the
package's selections and shift tuples.
"""

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import ndtr

from tiltlab import jet


def euler_gamma_series(n=10**4):
    """gamma via H_n - log n with the 1/2n - 1/12n^2 extrapolation."""
    h = math.fsum(1.0 / j for j in range(1, n + 1))
    return h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


def zeta3_series(n=4000):
    """zeta(3) by direct summation with an Euler-Maclaurin tail."""
    s = math.fsum(1.0 / j**3 for j in range(1, n + 1))
    return s + 1.0 / (2 * n**2) - 1.0 / (2 * n**3) + 1.0 / (4 * n**4)


def harmonic(n):
    return math.fsum(1.0 / j for j in range(1, n + 1))


def psi1_sum_oracle(n, tail_terms=10**7):
    """sum_{i<=n} psi'(i) = H_n + n * sum_{j>n} 1/j^2, tail by direct sum + EM remainder."""
    j = np.arange(n + 1, tail_terms + 1, dtype=float)
    tail = float(np.sum(1.0 / (j * j)))
    m = float(tail_terms)
    tail += 1.0 / m - 1.0 / (2 * m * m) + 1.0 / (6 * m**3)
    return harmonic(n) + n * tail


def trial_division_primes(limit):
    out = []
    for q in range(2, limit + 1):
        if all(q % p for p in range(2, int(q**0.5) + 1)):
            out.append(q)
    return out


def asymptotic_mn(N, k):
    """Leading form k^2 log N + 2 log G(1+k) - log G(1+2k) of log M_N(2k), integer k only."""
    if not float(k).is_integer():
        raise ValueError(f"asymptotic_mn needs an integer k, got {k}")
    k = int(k)
    log_gamma = [math.lgamma(m) for m in range(1, 2 * k + 1)]  # G(1+n) = prod_{m<=n} Gamma(m)
    return k * k * math.log(N) + 2.0 * math.fsum(log_gamma[:k]) - math.fsum(log_gamma)


def fj_derivative_sum(N, k, i):
    """sum_j f_j^{(i)}(0) = sum_j [psi^{(i-1)}(j+2k) - 2^{1-i} psi^{(i-1)}(j+k)], from `rmt_exact._fj_sums`."""
    from tiltlab.rmt_exact import _fj_sums

    if not isinstance(i, (int, np.integer)) or i < 1:
        raise ValueError(f"derivative order i must be an integer >= 1, got {i}")
    return _fj_sums(N, k, i)[-1]


def rs_main_sums_direct(t, big_n, order):
    """S_r[j] = sum_{n <= N_j} n^{-1/2 - i t_j} (log n)^r for r = 0..order, from a full table of n.

    Every row X[n] is the product of the prime rows of n's factorization
    by trial division, one prime factor at a time; the prime rows are
    tiltlab's `_prime_rows`.  Row by row, each X[n] (log n)^r is added to
    the points with n <= N.
    """
    from tiltlab.zeta_eval import _prime_rows

    t = np.asarray(t, dtype=float)
    big_n = np.asarray(big_n)
    primes = trial_division_primes(int(big_n.max()))
    prime_rows = dict(zip(primes, _prime_rows(t, len(primes))))
    sums = np.zeros((order + 1, t.size), dtype=np.complex128)
    for n in range(1, int(big_n.max()) + 1):
        row = np.ones(t.size, dtype=np.complex128)
        rest = n
        for p in primes:
            if p * p > rest:
                break
            while rest % p == 0:
                row = row * prime_rows[p]
                rest //= p
        if rest > 1:
            row = row * prime_rows[rest]
        row[big_n < n] = 0.0
        for r in range(order + 1):
            sums[r] += row * math.log(n) ** r
    return sums


def odd_only_sieve(limit):
    """Independent sieve implementation (odd wheel), for cross-checking."""
    if limit < 2:
        return []
    size = (limit - 1) // 2
    mask = bytearray([1]) * size  # index i -> number 2i + 3
    for i in range(size):
        if mask[i]:
            p = 2 * i + 3
            start = (p * p - 3) // 2
            if start >= size:
                break
            mask[start::p] = bytearray(len(mask[start::p]))
    return [2] + [2 * i + 3 for i in range(size) if mask[i]]


def hurwitz_zeta(s, a):
    """zeta(s, a) = sum_{n >= 0} (n + a)^{-s} at an integer a >= 1, in mpmath at its working precision.

    mpmath's zeta(s, a) sieves every integer below an integer a, so past
    a = 1e5 Hermite's integral takes its place:
    a^{-s}/2 + a^{1-s}/(s-1) + 2 int_0^inf sin(s atan(t/a)) (a^2 + t^2)^{-s/2} / (e^{2 pi t} - 1) dt.
    """
    if a <= 10**5:
        return mp.zeta(s, a)
    a = mp.mpf(a)
    integrand = lambda t: mp.sin(s * mp.atan(t / a)) * (a * a + t * t) ** (-s / 2) / mp.expm1(2 * mp.pi * t)
    return a**-s / 2 + a ** (1 - s) / (s - 1) + 2 * mp.quad(integrand, [0, 1, mp.inf])


def eta_zeta(s, terms=60):
    """zeta(s) from the alternating eta series with Cohen-Villegas-Zagier acceleration."""
    s = complex(s)
    n = terms
    d = (3 + math.sqrt(8.0)) ** n
    d = (d + 1 / d) / 2
    b = -1.0
    c = -d
    tot = 0.0 + 0.0j
    for k in range(n):
        c = b - c
        tot += c * (k + 1) ** (-s)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1))
    eta = tot / d
    return eta / (1.0 - 2.0 ** (1.0 - s))


def eta_zeta_derivative(s, terms=60):
    """zeta'(s) from the term-by-term differentiated eta series."""
    s = complex(s)
    n = terms
    d = (3 + math.sqrt(8.0)) ** n
    d = (d + 1 / d) / 2
    b = -1.0
    c = -d
    tot = 0.0 + 0.0j
    tot_eta = 0.0 + 0.0j
    for k in range(n):
        c = b - c
        base = (k + 1) ** (-s)
        tot_eta += c * base
        tot += c * base * (-math.log(k + 1))
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1))
    eta = tot_eta / d
    eta_prime = tot / d
    denom = 1.0 - 2.0 ** (1.0 - s)
    zeta = eta / denom
    ddenom = math.log(2.0) * 2.0 ** (1.0 - s)
    return (eta_prime - zeta * ddenom) / denom


def verblunsky(n, rng):
    """Verblunsky coefficients whose CMV matrix is CUE(n)-distributed (Killip-Nenciu)."""
    radii = np.sqrt(1.0 - rng.random(n - 1) ** (1.0 / (n - 1 - np.arange(n - 1))))
    phases = rng.random(n) * 2.0 * math.pi
    return np.append(radii, 1.0) * np.exp(1j * phases)


def cmv_matrix(alphas):
    """Dense CMV matrix L M: 2x2 blocks [[conj a_k, rho_k], [rho_k, -a_k]] from k = 0 (L), 1 (M)."""
    n = len(alphas)
    rho = np.sqrt(np.clip(1.0 - np.abs(alphas) ** 2, 0.0, None))

    def blocks(start):
        out = np.eye(n, dtype=np.complex128)
        for k in range(start, n, 2):
            if k + 1 < n:
                out[k : k + 2, k : k + 2] = [[np.conj(alphas[k]), rho[k]], [rho[k], -alphas[k]]]
            else:
                out[k, k] = np.conj(alphas[k])
        return out

    return blocks(0) @ blocks(1)


def log_abs_from_angles(angles, theta):
    """log|det(I - e^{-i theta} U)| = sum_j log(2 |sin((theta_j - theta)/2)|), over the last axis."""
    return np.sum(np.log(2.0 * np.abs(np.sin(0.5 * (np.asarray(angles) - theta)))), axis=-1)


def uncorrected_qr_unitary_batch(rng, n, count):
    """count Q factors of complex Ginibre draws, without the phases of diag(R): not Haar (Mezzadri).

    It draws from rng as the package's QR sampler does, so it can stand in
    for that sampler as a known-biased negative control.
    """
    shape = (count, n, n)
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return np.linalg.qr(a)[0]


def log_mn_mp(n_size, s):
    """log M_N(s) in mpmath, summed directly from loggamma (no telescoping)."""
    tot = mp.mpf(0)
    for j in range(1, n_size + 1):
        tot += mp.loggamma(j) + mp.loggamma(j + s) - 2 * mp.loggamma(j + s / 2)
    return tot


def log_mn_barnes(n_size, s, order=0, dps=50):
    """log M_N(s), or its order-th s-derivative, from the Barnes G closed form.

    M_N(s) = G(1+s/2)^2 G(N+1) G(N+1+s) / (G(1+s) G(N+1+s/2)^2) (Keating and
    Snaith).  The logs of G grow like N^2 log N, so dps must cover their
    cancellation.  The first derivative at s = 2k is the weighted mean.
    """
    with mp.workdps(dps):

        def lg(z):
            return mp.log(mp.barnesg(z))

        def log_mn(t):
            start = 2 * lg(1 + t / 2) - lg(1 + t)
            return start + lg(n_size + 1) + lg(n_size + 1 + t) - 2 * lg(n_size + 1 + t / 2)

        return float(mp.diff(log_mn, mp.mpf(s), order))


def central_moment_fd(n_size, k, order, delta="3e-5", dps=40):
    """Central moment by a high-precision central finite difference of the
    moment generating route exp(-x mu + log M_N(2k+x) - log M_N(2k))."""
    with mp.workdps(dps):
        d = mp.mpf(delta)
        mu = log_mn_mp_derivative_free_mu(n_size, k)
        base = log_mn_mp(n_size, 2 * k)
        cache = {}

        def f(x):
            if x not in cache:
                cache[x] = mp.e ** (-x * mu + log_mn_mp(n_size, 2 * k + x) - base)
            return cache[x]

        total = mp.mpf(0)
        for i in range(order + 1):
            node = (mp.mpf(order) / 2 - i) * d
            total += (-1) ** i * mp.binomial(order, i) * f(node)
        return float(total / d**order)


def log_mn_mp_derivative_free_mu(n_size, k):
    """Weighted mean via mpmath digamma sums (independent of the package)."""
    tot = mp.mpf(0)
    for j in range(1, n_size + 1):
        tot += mp.digamma(j + 2 * k) - mp.digamma(j + k)
    return tot


def cumulants_to_central_moments(kappas, n_max):
    """Standard recursive cumulant -> raw-moment conversion, then centering.

    kappas[j-1] = kappa_j.  Raw moments about 0 via
    m_n = sum_{j=1}^{n} C(n-1, j-1) kappa_j m_{n-j}; centering uses the
    binomial transform with the first moment.
    """
    raw = [1.0]
    for n in range(1, n_max + 1):
        tot = 0.0
        for j in range(1, n + 1):
            tot += math.comb(n - 1, j - 1) * kappas[j - 1] * raw[n - j]
        raw.append(tot)
    mean = raw[1]
    central = []
    for n in range(n_max + 1):
        tot = 0.0
        for i in range(n + 1):
            tot += math.comb(n, i) * raw[i] * (-mean) ** (n - i)
        central.append(tot)
    return central


def paired_bootstrap_diff(values_a, log_w_a, values_b, log_w_b, seed, n_boot=400):
    """Difference of self-normalized means with shared resample indices: (point, SE)."""

    def wmean(v, lw, idx):
        w = np.exp(lw[idx] - lw[idx].max())
        return float(np.sum(w * v[idx]) / np.sum(w))

    m = len(values_a)
    full = np.arange(m)
    point = wmean(values_a, log_w_a, full) - wmean(values_b, log_w_b, full)
    rng = np.random.default_rng(seed)
    diffs = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, m, m)
        diffs[b] = wmean(values_a, log_w_a, idx) - wmean(values_b, log_w_b, idx)
    return point, float(diffs.std(ddof=1))


def cue_derivative_weight_shift(n, draws, seed):
    """Shift of the mean of log|Lambda(1)| under |Lambda'(1)|^2 vs |Lambda(1)|^2, CUE(n).

    Lambda(z) = det(I - z U^*), so v = log|Lambda(1)| = sum_j log|1 - e^{i theta_j}|
    and |Lambda'(1)|^2 = |Lambda(1)|^2 q with q = |sum_j 1/(1 - e^{i theta_j})|^2.
    Haar draws are built here (Ginibre -> QR with the diag(R) phase fix), and
    both statistics come from A = I - U without eigenvalues: v = log|det A|
    and sum_j 1/(1 - e^{i theta_j}) = tr A^{-1}.  As n grows the shift tends
    to -1/3 = (1/2) d/dh log(h^2/(4h^2-1)) at h = 1, from the joint moments
    of Lambda and Lambda' (Conrey, Rubinstein & Snaith, CMP 2006).  Returns
    the paired-bootstrap (point, SE).
    """
    rng = np.random.default_rng(seed)
    v = np.empty(draws)
    log_q = np.empty(draws)
    batch = 10**4
    for start in range(0, draws, batch):
        take = min(batch, draws - start)
        g = (rng.standard_normal((take, n, n)) + 1j * rng.standard_normal((take, n, n))) / math.sqrt(2.0)
        q, r = np.linalg.qr(g)
        d = np.einsum("...ii->...i", r)
        a = np.eye(n) - q * (d / np.abs(d))[:, None, :]
        v[start : start + take] = np.linalg.slogdet(a)[1]
        log_q[start : start + take] = 2.0 * np.log(np.abs(np.einsum("...ii->...", np.linalg.inv(a))))
    return paired_bootstrap_diff(v, 2.0 * v + log_q, v, 2.0 * v, seed + 1)


def selberg_variance(T):
    """Variance of log|zeta(1/2+it)| for t ~ U[T, 2T] at finite height.

    V = (1/2) log L + (1 + gamma)/2 + (1/2) sum_p sum_{m>=2} (1/m^2 - 1/m) p^{-m}
    (Keating & Snaith, CMP 2000): the CUE variance at the effective size
    L = log(T/2pi) + 2 log 2 - 1 (the mean of log(t/2pi) over [T, 2T]) plus
    the arithmetic correction.  The prime sum stops at 1e5, where the
    dropped tail is below 1/(4 P log P) ~ 2e-7.
    """
    p = np.array(odd_only_sieve(10**5), dtype=float)
    arithmetic = 0.0
    for m in range(2, 64):
        arithmetic += (1.0 / m**2 - 1.0 / m) * float(np.sum(p ** (-float(m))))
    size = math.log(T / (2.0 * math.pi)) + 2.0 * math.log(2.0) - 1.0
    return 0.5 * math.log(size) + 0.5 * (1.0 + euler_gamma_series()) + 0.5 * arithmetic


def weighted_point_stats(values, log_weights, n_max):
    """[mean, log mean-weight, m_2..m_n_max, m_n / m_2^{n/2} for n >= 3] in one direct pass.

    Its own max-shift, its own weighted mean, and central moments about
    that mean, each summed over the whole sample.
    """
    shift = log_weights.max()
    w = np.exp(log_weights - shift)
    sw = w.sum()
    mean = float(np.sum(w * values) / sw)
    central = [float(np.sum(w * (values - mean) ** n) / sw) for n in range(2, n_max + 1)]
    m2 = central[0] if central else math.nan
    std = [c / m2 ** (0.5 * n) if m2 > 0 else math.nan for n, c in enumerate(central[1:], start=3)]
    return [mean, shift + math.log(sw) - math.log(len(values))] + central + std


def bootstrap_errors_loop(values, log_weights, n_max, n_boot, seed):
    """Bootstrap SEs of a weighted-moment reduction, one full pass per resample.

    The reference for estimator.weighted_moments: the pairs are sorted the
    same way, resample b is the b-th rng.integers(0, m, m) draw, and each
    resample is reduced by weighted_point_stats.  Returns (standard_errors,
    standardized_errors, mean_weight_se) laid out as in MomentReport.
    """
    order = np.lexsort((log_weights, values))
    values = np.asarray(values, dtype=float)[order]
    log_weights = np.asarray(log_weights, dtype=float)[order]
    m = len(values)
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_boot):
        idx = rng.integers(0, m, m)
        rows.append(weighted_point_stats(values[idx], log_weights[idx], n_max))
    ses = np.std(np.array(rows), axis=0, ddof=1)
    mean_weight = math.exp(weighted_point_stats(values, log_weights, n_max)[1])
    central_ses = list(ses[2 : 2 + max(n_max - 1, 0)])
    standard_errors = ([0.0, ses[0]] + central_ses)[: n_max + 1]
    standardized_errors = ([0.0, 0.0, 0.0] + list(ses[2 + len(central_ses) :]))[: n_max + 1]
    return standard_errors, standardized_errors, mean_weight * ses[1]


def weighted_ks_vs_normal(values, log_weights, mean, variance):
    """sup |weighted ECDF - Normal(mean, variance) CDF| over the sample."""
    order = np.argsort(values)
    v = values[order]
    w = np.exp(log_weights[order] - np.max(log_weights))
    cw = np.cumsum(w)
    cw /= cw[-1]
    cdf = ndtr((v - mean) / math.sqrt(variance))
    upper = np.max(np.abs(cw - cdf))
    lower = np.max(np.abs(np.concatenate(([0.0], cw[:-1])) - cdf))
    return float(max(upper, lower))


@dataclass(frozen=True)
class ConformanceRecord:
    """MC-vs-exact deviations, each in units of its delta-method (influence-function) SE."""

    mean_deviation: float
    variance_deviation: float
    standardized_deviations: dict
    ks_statistic: float
    exact_mean: float
    exact_variance: float
    exact_standardized: dict


def gaussian_conformance(report, values, log_weights, n, k):
    """Compare an MC report (n_max >= 2) and the draws it reduced with the exact law and the Gaussian.

    Standardized moments are compared against (order-1)!! (even orders)
    or 0 (odd orders); the KS statistic pits the reweighted empirical CDF
    of the draws against Normal(exact mean, exact variance).
    """
    from tiltlab.rmt_exact import weighted_central_moments

    n_max = len(report.central_moments) - 1
    exact = weighted_central_moments(n, float(k), max(2, n_max))
    mu_e = exact.mu_weighted
    m2_e = exact.central_moments[2]
    std_devs = {}
    exact_std = {}
    for order in range(3, n_max + 1):
        target = 0.0 if order % 2 else float(math.prod(range(order - 1, 0, -2)))
        se = report.standardized_errors[order]
        std_devs[order] = (report.standardized[order] - target) / se if se > 0 else float("nan")
        exact_std[order] = exact.central_moments[order] / m2_e ** (0.5 * order)
    return ConformanceRecord(
        mean_deviation=float((report.weighted_mean - mu_e) / report.standard_errors[1]),
        variance_deviation=float((report.central_moments[2] - m2_e) / report.standard_errors[2]),
        standardized_deviations=std_devs,
        ks_statistic=weighted_ks_vs_normal(values, log_weights, mu_e, m2_e),
        exact_mean=mu_e,
        exact_variance=m2_e,
        exact_standardized=exact_std,
    )


def recipe_k1_mp(t_lo, t_hi, c, dps=40):
    """(t_hi - t_lo) zeta(1 + c) + zeta(1 - c) int (t/2pi)^{-c} dt in mpmath, c real.

    c = 0 takes the limit int [log(t/2pi) + 2 gamma] dt, and c = 1 the
    power integral's limit 2 pi log(t_hi/t_lo).
    """
    with mp.workdps(dps):
        lo, hi, c = mp.mpf(t_lo), mp.mpf(t_hi), mp.mpf(c)
        if c == 0:
            return float(sum(s * t * (mp.log(t / (2 * mp.pi)) - 1 + 2 * mp.euler) for s, t in ((1, hi), (-1, lo))))
        if c == 1:
            power = 2 * mp.pi * mp.log(hi / lo)
        else:
            power = (2 * mp.pi) ** c * (hi ** (1 - c) - lo ** (1 - c)) / (1 - c)
        return float((hi - lo) * mp.zeta(1 + c) + mp.zeta(1 - c) * power)


def quadrature_k1_two_progressions(t_lo, t_hi, alpha, beta, step=0.05):
    """Simpson sum of zeta(1/2+a+it) zeta(1/2+b-it) with each factor its own progression.

    The right factor runs down from 1/2 + b - i t_lo with step -ih, as it
    is written, rather than as the conjugate of a +ih progression.
    """
    from tiltlab.zeta_eval import zeta_em_progression

    n_panels = int(math.ceil((t_hi - t_lo) / step / 2)) * 2
    h = (t_hi - t_lo) / n_panels
    left = zeta_em_progression(0.5 + complex(alpha) + 1j * t_lo, 1j * h, n_panels + 1)
    right = zeta_em_progression(0.5 + complex(beta) - 1j * t_lo, -1j * h, n_panels + 1)
    weights = np.ones(n_panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(weights * (left * right).real))


def prime_power_sum_loop(x, alpha, base):
    """sum_{p <= x} p^{-s}, s = 1 + i alpha (pi(x) when alpha is None), one base prime per step.

    Legendre's recursion as `zeta_lab._prime_power_sum` ran it before its
    tail was vectorized: S(v) starts from the package's `_power_sums` at
    the values of floor(x/k), small[v] for v <= r = isqrt(x), large[k - 1]
    for v = x // k > r, and each prime p <= r of the ascending `base`, in
    turn, takes S(v) -= p^{-s} (S(v // p) - S(p - 1)) for all v >= p^2.
    """
    from tiltlab.zeta_lab import _power_sums

    r = math.isqrt(x)
    n = x // (r + 1)  # the k with x // k > r
    if alpha is None:
        small, large, weights = np.maximum(np.arange(-1, r), 0), x // np.arange(1, n + 1) - 1, np.ones_like(base)
    else:
        small, large = _power_sums(np.arange(r + 1), alpha), _power_sums(x // np.arange(1, n + 1), alpha)
        weights = np.exp(-(1.0 + 1j * alpha) * np.log(base))
    for p, w in zip(base.tolist(), weights):
        if p * p > x:
            break
        c, top = small[p - 1], min(n, x // (p * p))
        mid = min(n // p, top)  # S(x // (k p)) is large[k p - 1] up to k = mid, in small beyond
        pairs = [(large[:mid], large[p - 1 : p * mid : p].copy())]
        pairs.append((large[mid:top], small[x // (np.arange(mid + 1, top + 1) * p)]))
        if p * p <= r:
            pairs.append((small[p * p :], np.repeat(small[p : r // p + 1], p)[: r - p * p + 1]))
        for dst, src in pairs:  # every src is read before any dst is written
            src -= c
            src *= w
            dst -= src
    return large[0] if x > r else small[x]


def g_p_factor(p, sel, shift_tuple):
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
