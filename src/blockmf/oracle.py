"""Exact transient law of tiny systems on the full product state space.

States are color tuples over all N nodes, encoded base K (node n is
digit n). Rates are evaluated node by node over the whole stack of
states, each node's neighbourhood through local_empirical and its rates
through total_rate — the definition-style path, deliberately different
code from the simulator's aggregated tables, so the two can cross-check
each other. The forward equation is solved by uniformization to a hard
absolute tolerance, on the generator's CSR arrays in numpy alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InvalidArgumentError
from .graph import BlockGraph, _node_id
from .rates import (
    _check_horizon,
    _integer,
    _reals,
    as_block_rates,
    total_rate,
    validate_probability,
)
from .simulate import SystemState, local_empirical

__all__ = ["StateDistribution", "master_equation_oracle"]

log = logging.getLogger(__name__)

STATE_CAP = 4096
UNIF_TOL = 1e-10
CHUNK_RATE = 50.0  # max uniformization rate*T per series chunk
# A chunk takes about 110 series terms of 110-115 us each, 14 ms at
# STATE_CAP states on a 2-vCPU Intel Xeon (numpy 2.4), so the cap keeps a
# solve near 70 s.
MAX_CHUNKS = 5000


@dataclass
class StateDistribution:
    """Distribution over the full color-tuple space. The solver's work
    counters take no part in equality: nonzeros of the generator, series
    chunks and series terms summed over the chunks; the state count is
    read off `probs`."""

    probs: np.ndarray  # length K^N
    K: int
    n_nodes: int
    nonzeros: int = field(default=0, compare=False)
    chunks: int = field(default=0, compare=False)
    series_terms: int = field(default=0, compare=False)

    def __post_init__(self):
        K, n = _integer(self.K, "K"), _integer(self.n_nodes, "n_nodes")
        if K < 1 or n < 1:
            raise InvalidArgumentError(
                f"need K >= 1 and n_nodes >= 1, got K={K}, n_nodes={n}")
        size = np.size(self.probs)
        # K >= 2 gives at least 2^n states, more than `size` from
        # n = size.bit_length() on: K^n is formed only for smaller n
        if np.ndim(self.probs) != 1 or K > 1 and n >= size.bit_length() \
                or K ** n != size:
            raise InvalidArgumentError(
                f"probs must be 1-d with K^n_nodes entries for K={K}, "
                f"n_nodes={n}, got shape {np.shape(self.probs)}")
        self.K, self.n_nodes = K, n

    @property
    def states(self) -> int:
        return self.probs.size

    def node_marginal(self, n: int) -> np.ndarray:
        n = _node_id(n, self.n_nodes)
        digit = (np.arange(self.probs.size) // self.K ** n) % self.K
        return np.bincount(digit, weights=self.probs, minlength=self.K)


def _decode_states(K: int, N: int) -> np.ndarray:
    """The colour matrix of all K^N states, shape (K^N, N): row idx holds
    the base-K digits of idx, node 0 fastest."""
    return (np.arange(K ** N)[:, None] // K ** np.arange(N)) % K


def _jump_matrix(graph, family):
    """The generator on the product space as CSR arrays (vals, cols,
    indptr): row i holds vals[indptr[i]:indptr[i + 1]] at the columns
    cols[indptr[i]:indptr[i + 1]], ascending, its diagonal among them.
    Off the diagonal sits the rate of every admissible one-node jump; on
    it, minus the state's total rate, its rates subtracted in node, then
    edge order. Built node by node over the whole stack of states."""
    K = family.colors.K
    N = graph.n_total
    idx = np.arange(K ** N)
    colors = _decode_states(K, N)
    states = SystemState.from_colors(graph, colors, K)
    rows, cols, vals = [idx], [idx], []
    diag = np.zeros(idx.size)
    for n in range(N):
        spec = family.spec_for(graph.block_of(n), graph.class_of(n))
        lm = local_empirical(states, graph, n)
        for e, (z, zp) in enumerate(family.colors.edges):
            lam = total_rate(spec, e, lm.proportions[0], lm.parts[0],
                             lm.proportions[1:], lm.parts[1:])
            jump = (colors[:, n] == z) & (lam > 0.0)
            rows.append(idx[jump])
            cols.append(idx[jump] + (zp - z) * K ** n)
            vals.append(lam[jump])
            diag[jump] -= lam[jump]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(idx.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=idx.size), out=indptr[1:])
    return np.concatenate([diag, *vals])[order], cols[order], indptr


def _uniformize(probs, Q, T):
    """The law probs e^{TQ} of a chain with generator Q, given as the CSR
    arrays of `_jump_matrix`, to an absolute tolerance of UNIF_TOL, and
    the series chunks and terms it took. Horizons with large rate*T are
    split into chunks so the Poisson series never underflows; more than
    MAX_CHUNKS chunks, or a non-finite rate*T, is a CapacityError.

    Each term sums its products for a target in row order, as a CSR
    vector-matrix product does."""
    vals, cols, indptr = Q
    counts = np.diff(indptr)
    on_diag = cols == np.repeat(np.arange(counts.size), counts)
    lam_max = float(-vals[on_diag].min())
    if lam_max == 0.0:
        return probs, 0, 0
    rate_T = lam_max * T
    if not math.isfinite(rate_T) or rate_T > CHUNK_RATE * MAX_CHUNKS:
        raise CapacityError(
            f"uniformization rate x T = {rate_T:.3g} needs more than "
            f"{MAX_CHUNKS} series chunks of {CHUNK_RATE:g}"
        )
    n_chunks = max(1, int(math.ceil(rate_T / CHUNK_RATE)))
    tau = T / n_chunks
    a = lam_max * tau
    P = vals * (1.0 / lam_max)  # the jump chain I + Q / lam_max
    P[on_diag] += 1.0
    p = probs
    terms = 0
    for _ in range(n_chunks):
        weight = math.exp(-a)
        acc = weight * p
        term = p
        k = 0
        remaining = 1.0 - weight
        while remaining > UNIF_TOL / n_chunks:
            k += 1
            w = np.repeat(term, counts)
            w *= P
            term = np.bincount(cols, weights=w, minlength=counts.size)
            weight *= a / k
            acc = acc + weight * term
            remaining -= weight
            if k > 100_000:
                raise CapacityError("uniformization series failed to settle")
        p = acc
        terms += k
    p = np.maximum(p, 0.0)
    p /= p.sum()
    return p, n_chunks, terms


def master_equation_oracle(graph: BlockGraph, spec, init_dist,
                           T: float) -> StateDistribution:
    """Solve the forward equation exactly (to 1e-10) on the product space.

    init_dist: the (N, K) array of independent per-node laws, row n the
    law of node n's color; `validate_probability` checks each row, and
    the error names the first bad one. Horizons with large rate*T are
    split into chunks so the Poisson series never underflows; more than
    MAX_CHUNKS chunks, or a non-finite rate*T, is a CapacityError.
    """
    family = as_block_rates(spec, graph.r)
    K = family.colors.K
    N = graph.n_total
    # K >= 2 colours give at least 2^N states, past the cap from
    # N = STATE_CAP.bit_length() on: K^N is formed only for smaller N
    if K > 1 and N >= STATE_CAP.bit_length() or K ** N > STATE_CAP:
        raise CapacityError(
            f"K^N states for K={K} colours and N={N} nodes exceed the "
            f"oracle cap {STATE_CAP}")
    T = _check_horizon(T)

    init = _reals(init_dist, "init_dist")
    if init.shape != (N, K):
        raise InvalidArgumentError(
            f"init_dist must be ({N},{K}) per-node laws, got {init.shape}")
    for n, law in enumerate(init):
        try:
            validate_probability(law)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(
                f"init_dist row {n} is not a distribution: {exc}") from None
    # node 0 is the fastest digit, so it sits innermost in the kron and
    # every later node wraps around it as a slower digit
    probs = np.ones(1)
    for n in range(N):
        probs = np.kron(init[n], probs)
    probs /= probs.sum()
    if T == 0:
        return _counted(probs, K, N, 0, 0, 0)

    Q = _jump_matrix(graph, family)
    p, n_chunks, terms = _uniformize(probs, Q, T)
    return _counted(p, K, N, Q[0].size, n_chunks, terms)


def _counted(p, K, N, *counters) -> StateDistribution:
    """The distribution with its counters, which are logged on
    `blockmf.oracle` at debug level with its state count."""
    log.debug("oracle: %d states, %d nonzeros, %d chunks, %d series terms",
              p.size, *counters)
    return StateDistribution(p, K, N, *counters)
