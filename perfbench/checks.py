"""Closed-form answers every benchmark op is checked against.

Pure standard library, so the orchestrator and the HTTP client can check
answers without importing the program.  Each formula is tested against
the program's own routes at small domain sizes in ``tests/``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def fo2_sentence_wfomc(n, w_r, wbar_r, w_s, wbar_s):
    """WFOMC of ``forall x. exists y. (R(x,y) & (S(x) -> ~S(y)))``.

    Sum over the size ``s`` of ``S``: an element of ``S`` needs an
    ``R``-successor outside ``S`` (its ``R`` row is free on ``S``), an
    element outside ``S`` needs any ``R``-successor.
    """
    t = w_r + wbar_r
    total = Fraction(0)
    for s in range(n + 1):
        inside = (t ** s * (t ** (n - s) - wbar_r ** (n - s))) ** s
        outside = (t ** n - wbar_r ** n) ** (n - s)
        total += comb(n, s) * w_s ** s * wbar_s ** (n - s) * inside * outside
    return total


def theta1_wfomc(n, accepting, w_h=1, wbar_h=1):
    """WFOMC of Theta_1 with only its head predicate ``H`` weighted.

    ``accepting`` is the machine's ``#acc(n)``; the unweighted count is
    ``n! * #acc(n)`` (Theorem 3.1).  ``H`` is a total function of the
    time point in every model, so each model makes exactly ``n`` of its
    ``n**2`` atoms true.
    """
    return (factorial(n) * accepting * Fraction(w_h) ** n
            * Fraction(wbar_h) ** (n * n - n))


def forall_exists_wfomc(n, w, wbar=1):
    """WFOMC of ``forall x. exists y. R(x, y)``: every row non-empty."""
    w, wbar = Fraction(w), Fraction(wbar)
    return ((w + wbar) ** n - wbar ** n) ** n
