"""Distances between distributions on the ordered color set 0..K-1."""

import math

import numpy as np

from .errors import InvalidArgumentError
from .rates import validate_probability

__all__ = ["d_bl", "d_bl_of_differences", "relative_entropy"]


def _check_pair(mu, nu):
    mu = validate_probability(mu)
    nu = validate_probability(nu)
    if mu.shape != nu.shape:
        raise InvalidArgumentError(
            f"length mismatch: {mu.shape[0]} vs {nu.shape[0]}"
        )
    return mu, nu


def d_bl(mu, nu) -> float:
    """Bounded-Lipschitz distance: sup of <g, mu-nu> over |g| <= 1,
    |g(z)-g(z')| <= |z-z'|; see `d_bl_of_differences`."""
    mu, nu = _check_pair(mu, nu)
    return float(d_bl_of_differences(mu - nu))


def d_bl_of_differences(theta) -> np.ndarray:
    """Bounded-Lipschitz norm of each signed measure theta[..., :] on the
    ordered colors, for differences of probability vectors (unchecked).

    The adjacent constraints |g[k+1]-g[k]| <= 1 imply the rest. Box plus
    path-difference constraints form a network matrix with unit right-hand
    side, so every LP vertex is integral and the sup runs over chain
    profiles g in {-1,0,1}^K with |g[k+1]-g[k]| <= 1. A dynamic program
    keeps the best partial sum ending at each of the three values: exact,
    O(K) array operations over all leading axes, no LP solver."""
    theta = np.asarray(theta, dtype=float)
    t = theta[..., 0]
    lo, mid, hi = -t, np.zeros_like(t), t
    for k in range(1, theta.shape[-1]):
        t = theta[..., k]
        lo, mid, hi = (np.maximum(mid, lo) - t,
                       np.maximum(np.maximum(mid, lo), hi),
                       np.maximum(mid, hi) + t)
    return np.maximum(np.maximum(mid, lo), hi)


def relative_entropy(p, q) -> float:
    """sum p*log(p/q) with 0*log 0 = 0; +inf when p charges a q-null set."""
    p, q = _check_pair(p, q)
    if np.any((p > 0) & (q == 0)):
        return math.inf
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
