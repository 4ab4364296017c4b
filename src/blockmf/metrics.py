"""Distances between distributions on the ordered color set 0..K-1."""

import math

import numpy as np

from .errors import InvalidArgumentError
from .rates import validate_probability

__all__ = ["w1_discrete", "d_bl", "relative_entropy"]


def _check_pair(mu, nu):
    mu = validate_probability(mu)
    nu = validate_probability(nu)
    if mu.shape != nu.shape:
        raise InvalidArgumentError(
            f"length mismatch: {mu.shape[0]} vs {nu.shape[0]}"
        )
    return mu, nu


def w1_discrete(mu, nu) -> float:
    """Order-1 transport distance for ground metric |z - z'|: the L1
    distance of the CDFs."""
    mu, nu = _check_pair(mu, nu)
    diff = np.cumsum(mu - nu)[:-1]
    return float(np.abs(diff).sum())


def d_bl(mu, nu) -> float:
    """Bounded-Lipschitz distance: sup of <g, mu-nu> over |g| <= 1,
    |g(z)-g(z')| <= |z-z'|.

    On the ordered colors the adjacent constraints |g[k+1]-g[k]| <= 1
    imply the rest. Box plus path-difference constraints form a network
    matrix with unit right-hand side, so every LP vertex is integral and
    the sup runs over chain profiles g in {-1,0,1}^K with |g[k+1]-g[k]|
    <= 1. A dynamic program keeps the best partial sum ending at each of
    the three values: exact, O(K), no LP solver."""
    mu, nu = _check_pair(mu, nu)
    theta = (mu - nu).tolist()
    if len(theta) == 1:
        return 0.0
    t = theta[0]
    lo, mid, hi = -t, 0.0, t
    for t in theta[1:]:
        lo, mid, hi = max(mid, lo) - t, max(mid, lo, hi), max(mid, hi) + t
    return max(mid, lo, hi)


def relative_entropy(p, q) -> float:
    """sum p*log(p/q) with 0*log 0 = 0; +inf when p charges a q-null set."""
    p = validate_probability(p)
    q = validate_probability(q)
    if p.shape != q.shape:
        raise InvalidArgumentError(
            f"length mismatch: {p.shape[0]} vs {q.shape[0]}"
        )
    if np.any((p > 0) & (q == 0)):
        return math.inf
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
