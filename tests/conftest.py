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


def run_python(args):
    """Run ``python <args>`` on the package this process imported.

    The directory holding the imported ``blockmf`` goes first on the child's
    PYTHONPATH, so the child loads the same code from any working directory,
    whether or not the package is installed.
    """
    src = str(Path(bm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def run_blockmf_module(args):
    """Run ``python -m blockmf <args>``; see `run_python`."""
    return run_python(["-m", "blockmf", *args])
