"""Closed-form WFOMC solutions from the paper.

Table 1 and the running examples of Sections 1-2 give explicit formulas:

* ``FOMC(forall x exists y R(x,y), n) = (2**n - 1)**n``
* ``WFOMC(forall x exists y R(x,y), n) = ((w + wbar)**n - wbar**n)**n``
* ``WFOMC(exists y S(y), n) = (w + wbar)**n - wbar**n``
* ``forall x exists y (R(x,y) & (S(x) -> ~S(y)))``, the running FO2
  example of the benchmark: a sum over the size ``s`` of ``S``.
* Table 1 for ``Phi = forall x forall y (R(x) | S(x,y) | T(y))``:
  ``FOMC(Phi, n) = sum_{k,m} C(n,k) C(n,m) 2**(n**2 - k*m)`` and the
  weighted generalization with
  ``W_km = wR**(n-k) wbarR**k wS**(km) (wS+wbarS)**(n**2-km) wT**(n-m) wbarT**m``.

Each function is cross-validated in the test suite against brute force and
against the FO2 lifted algorithm.
"""

from __future__ import annotations

from fractions import Fraction

from ..utils import binomial, check_domain_size
from ..weights import WeightPair

__all__ = [
    "fomc_forall_exists",
    "wfomc_forall_exists",
    "wfomc_exists_unary",
    "wfomc_forall_exists_escape",
    "table1_fomc",
    "table1_wfomc",
]


def _pair(pair):
    if isinstance(pair, WeightPair):
        return pair
    return WeightPair(*pair)


def fomc_forall_exists(n):
    """``FOMC(forall x exists y R(x,y), n) = (2**n - 1)**n`` (Section 1)."""
    check_domain_size(n)
    return (2 ** n - 1) ** n


def wfomc_forall_exists(n, pair):
    """``WFOMC(forall x exists y R(x,y), n) = ((w+wbar)**n - wbar**n)**n``."""
    check_domain_size(n)
    pair = _pair(pair)
    return ((pair.w + pair.wbar) ** n - pair.wbar ** n) ** n


def wfomc_exists_unary(n, pair):
    """``WFOMC(exists y S(y), n) = (w+wbar)**n - wbar**n`` (Section 2)."""
    check_domain_size(n)
    pair = _pair(pair)
    return (pair.w + pair.wbar) ** n - pair.wbar ** n


def wfomc_forall_exists_escape(n, pair_r, pair_s):
    """WFOMC of ``forall x exists y (R(x,y) & (S(x) -> ~S(y)))``.

    Every element needs an ``R``-successor, and an element of ``S`` needs
    one outside ``S``.  Summing over the size ``s`` of ``S``, with
    ``T = wR + wbarR``: ``sum_s C(n,s) wS**s wbarS**(n-s)
    (T**s (T**(n-s) - wbarR**(n-s)))**s (T**n - wbarR**n)**(n-s)`` --
    an ``S`` element's row is free on ``S`` and needs a successor
    outside it, an element outside ``S`` needs any successor.
    """
    check_domain_size(n)
    pr, ps = _pair(pair_r), _pair(pair_s)
    t = pr.w + pr.wbar
    total = Fraction(0)
    for s in range(n + 1):
        inside = (t ** s * (t ** (n - s) - pr.wbar ** (n - s))) ** s
        outside = (t ** n - pr.wbar ** n) ** (n - s)
        total += (binomial(n, s) * ps.w ** s * ps.wbar ** (n - s)
                  * inside * outside)
    return total


def table1_fomc(n):
    """Row 1 of Table 1: the unweighted count for Phi = forall x,y (R(x)|S(x,y)|T(y)).

    ``FOMC(Phi, n) = sum_{k,m=0..n} C(n,k) C(n,m) 2**(n**2 - k*m)``.

    Here ``k`` counts elements with ``R`` false and ``m`` elements with
    ``T`` false; the ``k*m`` cells of ``S`` they pin must be true.
    """
    check_domain_size(n)
    total = 0
    for k in range(n + 1):
        for m in range(n + 1):
            total += binomial(n, k) * binomial(n, m) * 2 ** (n * n - k * m)
    return total


def table1_wfomc(n, pair_r, pair_s, pair_t):
    """Row 2 of Table 1: the symmetric weighted count for the same Phi.

    ``WFOMC(Phi, n, w, wbar) = sum_{k,m} C(n,k) C(n,m) W_km`` with
    ``W_km = wR**(n-k) wbarR**k wS**(km) (wS+wbarS)**(n**2-km)
    wT**(n-m) wbarT**m``.
    """
    check_domain_size(n)
    pr, ps, pt = _pair(pair_r), _pair(pair_s), _pair(pair_t)
    total = Fraction(0)
    for k in range(n + 1):
        for m in range(n + 1):
            w_km = (
                pr.w ** (n - k)
                * pr.wbar ** k
                * ps.w ** (k * m)
                * (ps.w + ps.wbar) ** (n * n - k * m)
                * pt.w ** (n - m)
                * pt.wbar ** m
            )
            total += binomial(n, k) * binomial(n, m) * w_km
    return total
