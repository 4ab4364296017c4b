"""Exact transient law of tiny systems on the full product state space.

States are color tuples over all N nodes, encoded base K (node n is
digit n). Rates are evaluated per node through local_empirical — the
slow definition-style path, deliberately different code from the
simulator's aggregated tables, so the two can cross-check each other.
The forward equation is solved by uniformization to a hard absolute
tolerance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InvalidArgumentError
from .graph import BlockGraph
from .rates import as_block_rates, total_rate
from .simulate import SystemState, local_empirical

__all__ = ["StateDistribution", "master_equation_oracle"]

log = logging.getLogger(__name__)

STATE_CAP = 4096
UNIF_TOL = 1e-10
CHUNK_RATE = 50.0  # max uniformization rate*T per series chunk


@dataclass
class StateDistribution:
    """Distribution over the full color-tuple space. The solver's work
    counters take no part in equality: states, nonzeros of the generator,
    series chunks and series terms summed over the chunks."""

    probs: np.ndarray  # length K^N
    K: int
    n_nodes: int
    states: int = field(default=0, compare=False)
    nonzeros: int = field(default=0, compare=False)
    chunks: int = field(default=0, compare=False)
    series_terms: int = field(default=0, compare=False)

    def decode(self, idx: int):
        out = []
        for _ in range(self.n_nodes):
            idx, z = divmod(idx, self.K)
            out.append(z)
        return tuple(out)

    def node_marginal(self, n: int) -> np.ndarray:
        block = self.K ** n
        out = np.zeros(self.K)
        for idx, p in enumerate(self.probs):
            out[(idx // block) % self.K] += p
        return out

    def expect(self, fn) -> float:
        """Mean of fn(color tuple) under the distribution."""
        return float(
            sum(p * fn(self.decode(i)) for i, p in enumerate(self.probs))
        )

    def mean_empirical(self, graph: BlockGraph) -> np.ndarray:
        """Expected empirical measure vector, shape (2r, K)."""
        out = np.zeros((2 * graph.r, self.K))
        comp = graph.component
        size = np.ravel(graph.block_sizes)[comp]
        for idx, p in enumerate(self.probs):
            if p != 0.0:
                np.add.at(out, (comp, self.decode(idx)), p / size)
        return out


def _node_rates(graph, family, colors, K):
    """All admissible (node, edge) rates in one state; returns a list of
    (node, from, to, rate)."""
    state = SystemState.from_colors(graph, colors, K)
    out = []
    for n in range(graph.n_total):
        j = graph.block_of(n)
        cls = graph.class_of(n)
        spec = family.spec_for(j, cls)
        lm = local_empirical(state, graph, n)
        z = int(colors[n])
        for e in spec.colors.out_edges(z):
            lam = total_rate(
                spec, e, lm.proportions[0], lm.parts[0],
                lm.proportions[1:], lm.parts[1:],
            )
            if lam > 0.0:
                out.append((n, z, spec.colors.edges[e][1], lam))
    return out


def master_equation_oracle(graph: BlockGraph, spec, targets, init_dist,
                           T: float) -> StateDistribution:
    """Solve the forward equation exactly (to 1e-10) on the product space.

    init_dist: either a length-K^N vector over encoded states, or an
    (N, K) array of independent per-node distributions. targets is
    accepted for signature parity with simulate and not used. Horizons
    with large rate*T are split into chunks so the Poisson series never
    underflows.
    """
    from scipy import sparse  # here, so importing blockmf loads no scipy

    family = as_block_rates(spec, graph.r)
    K = family.colors.K
    N = graph.n_total
    n_states = K ** N
    if n_states > STATE_CAP:
        raise CapacityError(
            f"K^N = {n_states} exceeds the oracle cap {STATE_CAP}"
        )
    if T < 0:
        raise InvalidArgumentError("T must be >= 0")

    init = np.asarray(init_dist, dtype=float)
    if init.shape == (N, K):
        # node 0 is the fastest digit, so it sits innermost in the kron
        # and every later node wraps around it as a slower digit
        probs = np.ones(1)
        for n in range(N):
            probs = np.kron(init[n], probs)
    elif init.shape == (n_states,):
        probs = init.copy()
    else:
        raise InvalidArgumentError(
            f"init_dist must be ({N},{K}) per-node or length {n_states}"
        )
    if np.any(probs < -1e-12) or abs(probs.sum() - 1.0) > 1e-9:
        raise InvalidArgumentError("init_dist is not a distribution")
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    if T == 0:
        return _counted(probs, K, N, n_states, 0, 0, 0)

    # assemble the jump matrix column by column
    rows, cols, vals = [], [], []
    diag = np.zeros(n_states)
    powK = [K ** n for n in range(N)]
    colors = [0] * N
    for idx in range(n_states):
        for n, z, zp, lam in _node_rates(graph, family, colors, K):
            jdx = idx + (zp - z) * powK[n]
            rows.append(idx)
            cols.append(jdx)
            vals.append(lam)
            diag[idx] -= lam
        # increment base-K counter
        for n in range(N):
            colors[n] += 1
            if colors[n] < K:
                break
            colors[n] = 0
    Q = sparse.csr_matrix(
        (vals + list(diag), (rows + list(range(n_states)),
                             cols + list(range(n_states)))),
        shape=(n_states, n_states),
    )
    lam_max = float(-diag.min())
    if lam_max == 0.0:
        return _counted(probs, K, N, n_states, Q.nnz, 0, 0)

    n_chunks = max(1, int(math.ceil(lam_max * T / CHUNK_RATE)))
    tau = T / n_chunks
    a = lam_max * tau
    P = sparse.identity(n_states, format="csr") + Q.multiply(1.0 / lam_max)
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
            term = term @ P
            weight *= a / k
            acc = acc + weight * term
            remaining -= weight
            if k > 100_000:
                raise CapacityError("uniformization series failed to settle")
        p = acc
        terms += k
    p = np.asarray(p).ravel()
    p = np.maximum(p, 0.0)
    p /= p.sum()
    return _counted(p, K, N, n_states, Q.nnz, n_chunks, terms)


def _counted(p, K, N, *counters) -> StateDistribution:
    """The distribution with its counters, which are logged on
    `blockmf.oracle` at debug level."""
    log.debug("oracle: %d states, %d nonzeros, %d chunks, %d series terms",
              *counters)
    return StateDistribution(p, K, N, *counters)
