"""Special functions used by both the analytic and numeric layers.

Everything here is branch-explicit: complex square roots and powers always
take the principal branch, and the hyperbolic pair switches to an
asymptotic form before ``sinh`` can overflow.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import DegenerateParameterError, DomainError, SingularCoefficientError, require_index

# Above this argument coth is 1.0 to machine precision and 1/sinh^2 is
# replaced by its leading exponential to avoid overflow of sinh^2.
ASYMPTOTIC_SWITCH = 20.0


def hyperbolic_pair(z):
    """Return ``(coth(z), cosech^2(z))`` for ``z > 0``, each shaped like z.

    For ``z > 20`` the pair is evaluated asymptotically as
    ``(1, 4 exp(-2z))``; the direct formulas would lose nothing before
    ~700 but the switch keeps cosech^2 finite for any z.
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("hyperbolic_pair: argument must be finite")
    if np.any(arr <= 0.0):
        raise DomainError(f"hyperbolic_pair: argument must be positive, got {float(np.min(arr))}")
    safe = np.minimum(arr, ASYMPTOTIC_SWITCH)
    sh = np.sinh(safe)
    # near 0 both overflow to inf, which callers name as a non-finite term;
    # -2 z overflows to -inf past 9e307, where exp gives the correct 0
    with np.errstate(over="ignore", divide="ignore"):
        coth = np.cosh(safe) / sh
        csch2 = 1.0 / (sh * sh)
        big = arr > ASYMPTOTIC_SWITCH
        if np.any(big):
            coth = np.where(big, 1.0, coth)
            # exp underflows to 0 beyond z ~ 368, which is the correct limit
            csch2 = np.where(big, 4.0 * np.exp(-2.0 * arr), csch2)
    return (coth, csch2)


def principal_sqrt(z):
    """Principal square root: Re >= 0, negative reals map to +i sqrt|z|."""
    zc = complex(z)
    if not (cmath.isfinite(zc)):
        raise DomainError("principal_sqrt: argument must be finite")
    return cmath.sqrt(zc)


def solve_quadratic(c2, c1, c0):
    """Roots of ``c2 z^2 + c1 z + c0 = 0`` with complex coefficients.

    Returns the roots as a tuple. For a genuine quadratic they are
    ordered (plus-root, minus-root) by the sign in front of the principal
    square root of the discriminant; ``c2 == 0`` degrades to the linear
    case with a single root. The larger-magnitude root comes from the full
    formula and its companion from ``c0 / (c2 * root)``, which avoids the
    classic cancellation when ``c1^2 >> |4 c2 c0|``.
    """
    c2, c1, c0 = complex(c2), complex(c1), complex(c0)
    for name, c in (("c2", c2), ("c1", c1), ("c0", c0)):
        if not cmath.isfinite(c):
            raise DomainError(f"solve_quadratic: coefficient {name} must be finite")
    if c2 == 0:
        if c1 == 0:
            raise SingularCoefficientError(
                "solve_quadratic: c2 = 0 and c1 = 0 leave no equation to solve")
        return (-c0 / c1,)

    disc = c1 * c1 - 4.0 * c2 * c0
    sd = cmath.sqrt(disc)
    num_plus = -c1 + sd
    num_minus = -c1 - sd
    if abs(num_plus) >= abs(num_minus):
        root_plus = num_plus / (2.0 * c2)
        root_minus = c0 / (c2 * root_plus) if root_plus != 0 else num_minus / (2.0 * c2)
    else:
        root_minus = num_minus / (2.0 * c2)
        root_plus = c0 / (c2 * root_minus) if root_minus != 0 else num_plus / (2.0 * c2)
    return (root_plus, root_minus)


def _recurrence_guard(k, a, b):
    # leading coefficient of the three-term recurrence for degree k
    coef = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
    scale = (1.0 + abs(a) + abs(b) + k) ** 3
    if abs(coef) < 1e-10 * scale:
        raise DegenerateParameterError(
            f"jacobi: recurrence coefficient 2k(k+a+b)(2k+a+b-2) vanishes at k = {k}")
    return coef


def _jacobi_recurrence(n, a, b, x):
    """Three-term recurrence on a complex array x."""
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = ((a + b + 2.0) * x + (a - b)) / 2.0
    for k in range(2, n + 1):
        denom = _recurrence_guard(k, a, b)
        s = 2.0 * k + a + b
        m1 = (s - 1.0) * ((s * (s - 2.0)) * x + (a * a - b * b))
        m2 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        p, p_prev = (m1 * p - m2 * p_prev) / denom, p
    return p


def jacobi(n, a, b, x):
    """Jacobi polynomial P_n^(a,b)(x) with complex parameters, shaped like x.

    Degrees 0 and 1 come from the closed forms; higher degrees run the
    standard three-term recurrence, which raises DegenerateParameterError
    if a leading coefficient vanishes for some intermediate degree.
    """
    require_index(n, "jacobi: degree")
    for name, val in (("a", a), ("b", b)):
        if not cmath.isfinite(complex(val)):
            raise DomainError(f"jacobi: parameter {name} must be finite")
    return _jacobi_recurrence(n, complex(a), complex(b), np.asarray(x, dtype=complex))
