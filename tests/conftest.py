import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockmf as bm


@pytest.fixture
def sis2():
    """Two-block SIS workhorse: spec, targets, per-component inits."""
    spec = bm.sis_spec(2, gamma=[0.8, 1.1], nu=[0.5, 0.4], eta=0.6,
                       zeta=[0.9, 0.7])
    targets = bm.ProportionTargets(
        p_c=(0.5, 0.5), alpha_c=(0.5, 0.5),
        q=((0.25, 0.25), (0.25, 0.25)), alpha=(0.5, 0.5))
    inits = [np.array([0.7, 0.3]), np.array([0.8, 0.2]),
             np.array([0.6, 0.4]), np.array([0.75, 0.25])]
    return spec, targets, inits


@pytest.fixture
def small_graph():
    return bm.build_complete_peripheral([(2, 3), (2, 3)])


def random_rate_family(gen, r, K, gamma_max=5.0):
    """Random BlockRates on a random color graph (at least one edge)."""
    pairs = [(z, zp) for z in range(K) for zp in range(K) if z != zp]
    keep = [p for p in pairs if gen.random() < 0.5]
    if not keep:
        keep = [pairs[int(gen.integers(len(pairs)))]]
    cg = bm.ColorGraph(K, keep)
    ne = cg.n_edges

    def one_spec():
        gc = gen.uniform(0.0, gamma_max, (ne, K)) * (gen.random((ne, K)) < 0.7)
        gp = gen.uniform(0.0, gamma_max, (ne, K)) * (gen.random((ne, K)) < 0.7)
        beta = gen.uniform(-0.5, 1.5, ne)
        return bm.RateSpec(cg, gc, gp, beta)

    return bm.BlockRates(tuple(one_spec() for _ in range(r)),
                         tuple(one_spec() for _ in range(r)))


def random_targets(gen, r):
    p_c = gen.uniform(0.2, 0.8, r)
    alpha_c = gen.uniform(0.1, 0.5, r)
    q = [(1.0 - alpha_c[j]) * gen.dirichlet(np.ones(r)) for j in range(r)]
    alpha = gen.dirichlet(np.ones(r))
    return bm.ProportionTargets(tuple(p_c), tuple(alpha_c),
                                tuple(tuple(row) for row in q), tuple(alpha))


def random_inits(gen, r, K):
    return [gen.dirichlet(np.ones(K)) for _ in range(2 * r)]


def list_affine_rows(family, readers):
    """The affine rate map compiled as Python lists, one reader at a time:
    rows[i][e] is the sorted list of (read_group * K + x, weight *
    table[e][x]) over the nonzero table entries of reader i's edge e,
    beta[i] the reader's per-edge state-only term. `rates.affine_rows`
    must give the same nonzeros as arrays."""
    K = family.colors.K
    rows, beta = [], []
    for (j, cls), reads in readers:
        spec = family.spec_for(j, cls)
        own = []
        for tabs in zip(spec.gamma_c, spec.gamma_p):
            nonzero = [[(x, v) for x, v in enumerate(tab) if v]
                       for tab in tabs]
            own.append(sorted(
                (gi * K + x, w * v)
                for gi, (w, read_cls) in reads.items()
                for x, v in nonzero[read_cls]
            ))
        rows.append(own)
        beta.append(list(spec.beta))
    return rows, beta


def run_python(args, **kwargs):
    """Run ``python <args>`` on the package this process imported; other
    keyword arguments go to `subprocess.run`.

    The directory holding the imported ``blockmf`` goes first on the child's
    PYTHONPATH, so the child loads the same code from any working directory,
    whether or not the package is installed.
    """
    src = str(Path(bm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, **kwargs)


def run_blockmf_module(args, **kwargs):
    """Run ``python -m blockmf <args>``; see `run_python`."""
    return run_python(["-m", "blockmf", *args], **kwargs)


# -- the product-space oracle as a per-state loop -------------------------

def reference_rate(spec, e, w0, nu, ws, mus):
    """One node's rate along edge e: the affine part by np.dot, plus beta,
    clamped at zero."""
    acc = w0 * float(np.dot(spec.gamma_c[e], nu))
    for w, mu in zip(ws, mus):
        if w != 0.0:
            acc += w * float(np.dot(spec.gamma_p[e], mu))
    v = acc + spec.beta[e]
    return v if v > 0.0 else 0.0


def _state_jumps(graph, family, colors):
    """Every (node, from, to, rate) with a positive rate in one state,
    node by node from its own neighbourhood scan."""
    K, r = family.colors.K, graph.r
    counts = np.zeros((2 * r, K))
    for n, z in enumerate(colors):
        counts[graph.component[n], z] += 1.0
    out = []
    for n in range(graph.n_total):
        j = graph.block_of(n)
        spec = family.spec_for(j, graph.class_of(n))
        nc, npp = graph.block_sizes[j]
        parts = [counts[2 * j] / nc]
        if graph.is_peripheral(n):
            nbr = np.zeros((r, K))
            for m in graph.peripheral_neighbors(n):
                nbr[graph.block_of(m), colors[m]] += 1.0
            nbr[j, colors[n]] += 1.0
            cross = graph.cross_counts(n)
            parts += [nbr[i] / cross[i] if cross[i] else nbr[i]
                      for i in range(r)]
            props = bm.neighborhood_proportions(graph, n)
        else:
            parts.append(counts[2 * j + 1] / npp)
            props = [nc / (nc + npp), npp / (nc + npp)]
        z = colors[n]
        for e in family.colors.out_edges(z):
            lam = reference_rate(spec, e, props[0], parts[0], props[1:],
                               parts[1:])
            if lam > 0.0:
                out.append((n, z, family.colors.edges[e][1], lam))
    return out


def reference_oracle(graph, spec, init_dist, T, unif_tol=1e-10,
                     chunk_rate=50.0):
    """The exact law at T on the product space, assembled one state at a
    time and solved by the same chunked uniformization series as
    `master_equation_oracle`. Returns (generator as CSR, probs, (states,
    nonzeros, chunks, series terms))."""
    import math

    from scipy import sparse

    family = bm.as_block_rates(spec, graph.r)
    K, N = family.colors.K, graph.n_total
    S = K ** N
    rows, cols, vals = [], [], []
    diag = np.zeros(S)
    for idx in range(S):
        colors = [(idx // K ** n) % K for n in range(N)]
        for n, z, zp, lam in _state_jumps(graph, family, colors):
            rows.append(idx)
            cols.append(idx + (zp - z) * K ** n)
            vals.append(lam)
            diag[idx] -= lam
    Q = sparse.csr_matrix((vals + list(diag), (rows + list(range(S)),
                                               cols + list(range(S)))),
                          shape=(S, S))
    init = np.asarray(init_dist, dtype=float)
    probs = np.ones(1)
    for n in range(N):
        probs = np.kron(init[n], probs)
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    lam_max = float(-diag.min())
    if T == 0 or lam_max == 0.0:
        return Q, probs, (S, Q.nnz if T else 0, 0, 0)
    n_chunks = max(1, int(math.ceil(lam_max * T / chunk_rate)))
    tau = T / n_chunks
    a = lam_max * tau
    P = sparse.identity(S, format="csr") + Q.multiply(1.0 / lam_max)
    p = probs
    terms = 0
    for _ in range(n_chunks):
        weight = math.exp(-a)
        acc = weight * p
        term = p
        k = 0
        remaining = 1.0 - weight
        while remaining > unif_tol / n_chunks:
            k += 1
            term = term @ P
            weight *= a / k
            acc = acc + weight * term
            remaining -= weight
        p = acc
        terms += k
    p = np.maximum(np.asarray(p).ravel(), 0.0)
    return Q, p / p.sum(), (S, Q.nnz, n_chunks, terms)


def reference_marginals(probs, K, N):
    """Per-node laws (N, K) of a product-space distribution, summed one
    state at a time in index order."""
    out = np.zeros((N, K))
    for idx, p in enumerate(probs):
        for n in range(N):
            out[n, (idx // K ** n) % K] += p
    return out
