"""Truncated Taylor series ("jets"): the one way the lab takes derivatives.

A jet of order n is a list f = [f_0, ..., f_n] with f_r = f^(r)(x0)/r!.
Entries may be floats, complex numbers, numpy arrays (combined by
broadcasting) or Fractions.  Only +, * and division by an int are used,
so exact inputs give exact results.  A polynomial such as x0 + eps is
written as a jet by padding it with zeros to the working order.
"""

from __future__ import annotations

__all__ = ["mul", "exp", "compose"]


def mul(f, g):
    """Jet of f*g, truncated to the lower of the two orders."""
    n = min(len(f), len(g))
    return [sum(f[i] * g[r - i] for i in range(r + 1)) for r in range(n)]


def exp(g):
    """Jet of exp(g - g_0), by f_0 = 1, f_n = (1/n) sum_{k=1..n} k g_k f_{n-k}.

    The factor exp(g_0) is left to the caller: exact inputs stay exact,
    and a large phase g_0 can be reduced before it is exponentiated.
    O(n^2) operations (Knuth, TAOCP vol. 2, 4.7).
    """
    f = [1]
    for n in range(1, len(g)):
        f.append(sum(k * g[k] * f[n - k] for k in range(1, n + 1)) / n)
    return f


def compose(a, u):
    """Jet of F(u) from F's Taylor coefficients a[r] = F^(r)(u_0)/r! about u_0.

    Horner in du = u - u_0, whose constant term is zero, so only the
    first len(u) coefficients of a contribute.
    """
    du = [0] + list(u[1:])
    a = a[: len(u)]
    out = [a[-1]] + [0] * (len(u) - 1)
    for c in reversed(a[:-1]):
        out = mul(out, du)
        out[0] = out[0] + c
    return out
