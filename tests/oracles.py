"""Independent oracles shared by the test modules.

Everything here recomputes target values through routes that do not share
code with the package: plain series, trial division, high-precision
finite differences, alternating-series acceleration.
"""

import math

import mpmath as mp
import numpy as np


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


def log_mn_mp(n_size, s):
    """log M_N(s) in mpmath, summed directly from loggamma (no telescoping)."""
    tot = mp.mpf(0)
    for j in range(1, n_size + 1):
        tot += mp.loggamma(j) + mp.loggamma(j + s) - 2 * mp.loggamma(j + s / 2)
    return tot


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


def bootstrap_errors_loop(values, log_weights, n_max, n_boot, seed):
    """Bootstrap SEs of a weighted-moment reduction, one full pass per resample.

    The reference for estimator.reduce_weighted: the pairs are sorted the
    same way, and resample b is the b-th rng.integers(0, m, m) draw.  Each
    resample takes its own max-shift, its own weighted mean, and central
    moments about that mean.  Returns (standard_errors, standardized_errors,
    mean_weight_se) laid out as in MomentReport.
    """
    order = np.lexsort((log_weights, values))
    values = np.asarray(values, dtype=float)[order]
    log_weights = np.asarray(log_weights, dtype=float)[order]
    m = len(values)

    def stats(v, lw):
        shift = lw.max()
        w = np.exp(lw - shift)
        sw = w.sum()
        mean = float(np.sum(w * v) / sw)
        central = [float(np.sum(w * (v - mean) ** n) / sw) for n in range(2, n_max + 1)]
        m2 = central[0] if central else math.nan
        std = [c / m2 ** (0.5 * n) if m2 > 0 else math.nan for n, c in enumerate(central[1:], start=3)]
        return [mean, shift + math.log(sw) - math.log(m)] + central + std

    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_boot):
        idx = rng.integers(0, m, m)
        rows.append(stats(values[idx], log_weights[idx]))
    ses = np.std(np.array(rows), axis=0, ddof=1)
    mean_weight = math.exp(stats(values, log_weights)[1])
    central_ses = list(ses[2 : 2 + max(n_max - 1, 0)])
    standard_errors = ([0.0, ses[0]] + central_ses)[: n_max + 1]
    standardized_errors = ([0.0, 0.0, 0.0] + list(ses[2 + len(central_ses) :]))[: n_max + 1]
    return standard_errors, standardized_errors, mean_weight * ses[1]
