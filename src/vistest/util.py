"""Shared numerical helpers and error types."""

import math


class DomainError(ValueError):
    """Invalid parameter value for an operation."""


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_MAX_ITER = 200


def golden_section(f, a, b, tol=1e-10):
    """Minimize a unimodal scalar function on [a, b].

    Returns (x_min, f(x_min)). The bracket shrinks by 1/phi per
    iteration, so ~50 iterations reach tol=1e-10 on a unit interval;
    _MAX_ITER is a safety cap.
    """
    if not tol > 0.0:
        raise DomainError("tol must be > 0")
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    for _ in range(_MAX_ITER):
        if h <= tol:
            break
        h *= _INVPHI
        if fc < fd:
            b, d, fd = d, c, fc
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * h
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def format_float(x):
    """Fixed 17-significant-digit rendering used in all CSV output."""
    return f"{x:.17g}"
