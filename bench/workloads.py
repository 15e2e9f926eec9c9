"""The three lab workloads and the output checks each pass must meet.

A workload is a list of README CLI experiments run back to back through
tiltlab.cli.main; the workload seed is passed to every one as --seed.
Checks use the lab's independent routes with only the tolerances stated
in tests/test_acceptance.py (3 SE for MC vs exact, 0.02 for recipe vs
quadrature, the cue-check's own 1% KS threshold).
"""

from __future__ import annotations

import json
import math

WORKLOADS = {
    # headline RMT cell: Szego/CMV stream + 400-resample bootstrap, exact side as route 2;
    # then a small cell on the same cue layer's dense Ginibre -> QR -> eigvals route
    "rmt-stream": (
        ("mc", ["mc-tilt", "--n", "200", "--k", "1", "--samples", "200000", "--orders", "4"]),
        ("exact", ["exact-moments", "--n", "200", "--k", "1", "--orders", "12"]),
        ("cue_check", ["cue-check", "--n", "16", "--trials", "2000"]),
        ("mc_qr", ["mc-tilt", "--sampler", "qr", "--n", "20", "--k", "1", "--samples", "2000", "--orders", "4"]),
        ("exact_qr", ["exact-moments", "--n", "20", "--k", "1", "--orders", "4"]),
    ),
    # Riemann-Siegel main sums (longdouble phases) and the RS derivative loop
    "zeta-high": (
        ("scan_m0", ["zeta-scan", "--t", "1e5", "--samples", "10000", "--k", "1", "--m", "0"]),
        ("scan_m1", ["zeta-scan", "--t", "1e5", "--samples", "10000", "--k", "1", "--m", "1"]),
        ("scan_top", ["zeta-scan", "--t", "5e7", "--samples", "10000", "--k", "0"]),
    ),
    # Euler-Maclaurin quadrature, the 64-node Cauchy circle and a 1e8 sieve
    "zeta-low": (
        ("recipe", ["recipe-k1", "--t-lo", "1000", "--t-hi", "2000", "--quadrature"]),
        ("scan", ["zeta-scan", "--t", "1000", "--samples", "1000", "--k", "1", "--m", "1"]),
        ("mu", ["mu-alpha", "--lo", "1", "--hi", "1e8", "--alpha", "0.01", "--alpha", "0.001", "--alpha", "0"]),
    ),
}

PI_1E8 = 5_761_455  # number of primes <= 10^8


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def parse_strict(text):
    """json.loads that refuses NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _prime_count(lo, hi):
    """Primes in (lo, hi] by trial division, an independent route for small windows."""
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    return sum(1 for n in range(math.floor(lo) + 1, math.floor(hi) + 1) if is_prime(n))


def _within_se(name, value, target, se):
    return name, abs(value - target) < 3.0 * se, f"{value:.6g} vs {target:.6g}, {abs(value - target) / se:.2f} SE (< 3)"


def _mc_vs_exact(label, mc, exact, n):
    return [
        _within_se(f"{label} mean", mc["weighted_mean"], exact["mu_weighted"], mc["standard_errors"][1]),
        _within_se(f"{label} variance", mc["central_moments"][2], exact["central_moments"][2], mc["standard_errors"][2]),
        _within_se(f"{label} mean_weight vs M_N(2) = N+1", mc["mean_weight"], n + 1.0, mc["mean_weight_se"]),
    ]


def _exact_closed_forms(exact, n):
    """exp(log M_N(2)) = N+1 and the tilted mean = H_{N+1} - 1, each to 1e-12."""
    harmonic = math.fsum(1.0 / j for j in range(2, n + 2))
    norm = abs(math.exp(exact["log_mn"]) - (n + 1)) / (n + 1)
    return [
        (f"exact N={n} normalizer M_N(2) = N+1", norm < 1e-12, f"rel err {norm:.2e} < 1e-12"),
        (f"exact N={n} mean = H_(N+1) - 1", abs(exact["mu_weighted"] - harmonic) < 1e-12,
         f"abs err {abs(exact['mu_weighted'] - harmonic):.2e} < 1e-12"),
    ]


def _scan_window(name, scan, samples):
    window = scan["window"]
    expected = _prime_count(window["lo"], window["hi"])
    return [
        (f"{name} window count", window["count"] == expected, f"{window['count']} vs {expected}"),
        (f"{name} raw_count", scan["raw_count"] == samples, f"{scan['raw_count']} vs {samples}"),
    ]


def route_checks(name, results):
    """(check, ok, detail) for each comparison whose outcome does not depend on the seed."""
    r = {label: payload["results"] for label, payload in results.items()}
    if name == "rmt-stream":
        return [
            *_exact_closed_forms(r["exact"], 200),
            *_exact_closed_forms(r["exact_qr"], 20),
            ("mc sample_count", r["mc"]["sample_count"] == 200000, str(r["mc"]["sample_count"])),
            ("mc_qr sample_count", r["mc_qr"]["sample_count"] == 2000, str(r["mc_qr"]["sample_count"])),
            ("cue-check trials", r["cue_check"]["trials"] == 2000, str(r["cue_check"]["trials"])),
        ]
    if name == "zeta-high":
        return [c for label in ("scan_m0", "scan_m1", "scan_top") for c in _scan_window(label, r[label], 10000)]
    if name == "zeta-low":
        rel = r["recipe"]["relative_difference"]
        count = r["mu"]["window"]["count"]
        return [
            ("recipe vs quadrature", rel < 0.02, f"relative difference {rel:.4f} < 0.02"),
            ("mu-alpha window = pi(1e8)", count == PI_1E8, f"{count} vs {PI_1E8}"),
            *_scan_window("scan", r["scan"], 1000),
        ]
    raise ValueError(f"unknown workload {name!r}")


def stat_checks(name, results):
    """(check, ok, detail) for the Monte Carlo comparisons, whose outcome varies with the seed.

    A correct sampler lands outside 3 SE, or fails the 1% KS test, on a
    share of seeds; importance-sampling weight degeneracy (ESS of tens to
    a few hundred out of 2e3..2e5 draws) makes the 3-SE share larger.  They are
    reported as their own share rather than as failed outputs; their
    outcomes repeat exactly for a given seed.
    """
    r = {label: payload["results"] for label, payload in results.items()}
    if name == "rmt-stream":
        check = r["cue_check"]
        return _mc_vs_exact("mc", r["mc"], r["exact"], 200) + _mc_vs_exact("mc_qr", r["mc_qr"], r["exact_qr"], 20) + [
            ("cue-check passed", check["passed"] is True,
             f"KS {check['statistic']:.4f} vs threshold {check['threshold']:.4f}")
        ]
    return []


def ess_values(results):
    """The ess field of every weighted estimate in one pass, in experiment order."""
    return [payload["results"]["ess"] for payload in results.values() if "ess" in payload["results"]]
