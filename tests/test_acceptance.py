"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``criterion N: PASS/FAIL - ...`` line (shown in
the -rA summary) and asserts the stated tolerances and time budgets.
Criteria 2 and 3 share one batch of 50 random instances; the directly
integrated flows are cached so the fixed-point comparison does not pay
for them twice.
"""

import json
import time

import numpy as np

import blockmf as bm
from conftest import (random_inits, random_rate_family, random_targets,
                      run_blockmf_module)


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- shared random instances for the conservation / fixed-point pair -----

N_INSTANCES = 50
_instances = None
_flows = {}


def _get_instances():
    global _instances
    if _instances is None:
        gen = np.random.default_rng(np.random.SeedSequence(777))
        batch = []
        for _ in range(N_INSTANCES):
            r = int(gen.integers(1, 4))
            K = int(gen.integers(2, 6))
            fam = random_rate_family(gen, r, K)
            batch.append((fam, random_targets(gen, r),
                          random_inits(gen, r, K)))
        _instances = batch
    return _instances


def _rk_flow(i):
    if i not in _flows:
        fam, targets, inits = _get_instances()[i]
        _flows[i] = bm.solve_mckean_vlasov(fam, targets, inits, 5.0, 0.002)
    return _flows[i]


# -- shared chaos model: two blocks, even masses, N-exact proportions ----

CHAOS_TARGETS = bm.ProportionTargets(
    p_c=(0.5, 0.5), alpha_c=(1 / 3, 1 / 3),
    q=((1 / 3, 1 / 3), (1 / 3, 1 / 3)), alpha=(0.5, 0.5))
# Near-critical pull through the peripheral pool: without spontaneous
# infection the all-susceptible state is absorbing, so small systems
# carry a visible shared-extinction correlation that dies off with N.
CHAOS_SPEC = bm.sis_spec(2, gamma=1.0, nu=3.0, eta=3.0, zeta=2.0)
CHAOS_INITS = [np.array([0.75, 0.25]) for _ in range(4)]


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    graph = bm.build_complete_peripheral([(2, 1)])
    spec = bm.sis_spec(1, gamma=1.4, nu=0.9, eta=0.7, zeta=0.8)
    init = np.array([[0.65, 0.35], [0.80, 0.20], [0.50, 0.50]])
    T = 2.0
    dist = bm.master_equation_oracle(graph, spec, init, T)
    p_exact = np.array([dist.node_marginal(n)[1]
                        for n in range(graph.n_total)])

    replicas = 20000
    counts = np.zeros(graph.n_total)
    for child in np.random.SeedSequence(20260815).spawn(replicas):
        gen = np.random.default_rng(child)
        colors = np.array([gen.choice(2, p=row) for row in init])
        counts += bm.simulate(graph, spec, colors, T, gen).final_colors
    p_mc = counts / replicas
    se = np.sqrt(p_mc * (1.0 - p_mc) / replicas)
    ratio = float(np.max(np.abs(p_mc - p_exact) / se))
    elapsed = time.perf_counter() - t0
    _report(1, ratio <= 3.0 and elapsed < 60.0,
            f"all {graph.n_total} node marginals within {ratio:.2f} SE of "
            f"the exact law (limit 3); {elapsed:.1f}s < 60s")


def test_criterion_02_meanfield_conservation():
    t0 = time.perf_counter()
    worst_mass = 0.0
    worst_min = np.inf
    for i in range(N_INSTANCES):
        flow = _rk_flow(i)
        worst_mass = max(worst_mass,
                         float(np.abs(flow.values.sum(axis=2) - 1.0).max()))
        worst_min = min(worst_min, float(flow.values.min()))
    elapsed = time.perf_counter() - t0
    _report(2, worst_mass <= 1e-9 and worst_min >= -1e-12 and elapsed < 60.0,
            f"{N_INSTANCES} flows: max |mass-1| = {worst_mass:.1e} (<= 1e-9),"
            f" min entry = {worst_min:.1e} (>= -1e-12); {elapsed:.1f}s < 60s")


def test_criterion_03_picard_agreement():
    from blockmf import meanfield

    # the sweeps stop at a residual of 1e-8 and give up after 50
    assert (meanfield.PICARD_TOL, meanfield.PICARD_MAX_ITER) == (1e-8, 50)
    worst_sup = 0.0
    monotone = True
    failed = None
    for i, (fam, targets, inits) in enumerate(_get_instances()):
        try:
            pic, res = bm.picard_iterate(fam, targets, inits, 5.0, 0.002)
        except bm.NonConvergenceError:
            failed = i
            break
        worst_sup = max(worst_sup,
                        float(np.abs(pic.values - _rk_flow(i).values).max()))
        monotone &= all(res[k + 1] < res[k] for k in range(1, len(res) - 1))
    if failed is not None:
        _report(3, False, f"instance {failed} did not converge in 50 sweeps")
    _report(3, worst_sup <= 1e-6 and monotone,
            f"all {N_INSTANCES} converged; sup gap to the direct flow = "
            f"{worst_sup:.1e} (<= 1e-6); residuals decreasing from sweep 2: "
            f"{monotone}")


def test_criterion_04_chaos_scaling():
    t0 = time.perf_counter()
    family = bm.proportional_family(CHAOS_TARGETS)
    report = bm.lln_experiment([family(N) for N in (40, 160, 640)],
                               CHAOS_SPEC, CHAOS_TARGETS, CHAOS_INITS, T=3.0,
                               grid=31, replicas=100,
                               seeds=[(20260815, i) for i in range(3)],
                               dt=0.01)
    decreasing = all(report.means[i + 1] < report.means[i] for i in range(2))
    ratio = float(report.means[0] / report.means[-1])
    elapsed = time.perf_counter() - t0
    _report(4, decreasing and ratio >= 2.0 and elapsed < 300.0,
            f"mean sup-grid d_BL {report.means[0]:.3f} > "
            f"{report.means[1]:.3f} > {report.means[2]:.3f}, "
            f"e(40)/e(640) = {ratio:.2f} (>= 2); {elapsed:.0f}s < 300s")


def test_criterion_05_multichaos():
    t0 = time.perf_counter()
    family = bm.proportional_family(CHAOS_TARGETS)
    runs = bm.multichaos_test(
        [family(40), family(640)], CHAOS_SPEC, [(0, "c"), (1, "p")],
        3.0, 2000, [(20260815, 40), (20260815, 640)], inits=CHAOS_INITS)
    tv = {N: run[2] for N, run in zip((40, 640), runs)}
    elapsed = time.perf_counter() - t0
    _report(5, tv[40] > tv[640] and tv[640] < 0.1 and elapsed < 300.0,
            f"TV(joint, product) {tv[40]:.4f} @ N=40 -> {tv[640]:.4f} "
            f"@ N=640 (< 0.1); {elapsed:.0f}s < 300s")


def test_criterion_06_zero_cost(sis2):
    t0 = time.perf_counter()
    spec, targets, inits = sis2
    flow = bm.solve_mckean_vlasov(spec, targets, inits, 1.0, 0.01)
    vc = bm.variational_cost(flow, targets, spec)
    lc = bm.legendre_cost(flow, targets, spec,
                          bm.flow_rates(flow, spec, targets))
    elapsed = time.perf_counter() - t0
    _report(6, vc.total <= 1e-5 and lc.total == 0.0 and elapsed < 10.0,
            f"variational cost of the solved flow = {vc.total:.1e} "
            f"(<= 1e-5), cost at the model's own rates = {lc.total}; "
            f"{elapsed:.1f}s < 10s")


# -- criterion 7 instance builders ---------------------------------------

def _tree_instance(gen):
    """Directed tree: the divergence constraint pins the flux, so the
    optimal value is the generating flux's own cost."""
    K = int(gen.integers(2, 6))
    edges = []
    for k in range(1, K):
        p = int(gen.integers(k))
        edges.append((p, k) if gen.random() < 0.5 else (k, p))
    colors = bm.ColorGraph(K, edges)
    mu = gen.dirichlet(np.ones(K)) * 0.5 + 0.5 / K
    lam = gen.uniform(0.1, 3.0, colors.n_edges)
    theta = np.zeros(K)
    ref = 0.0
    for e, (src, dst) in enumerate(colors.edges):
        w = mu[src] * lam[e]
        x = (-gen.uniform(0.2, 0.9) if gen.random() < 0.35
             else gen.uniform(0.2, 3.0))
        theta[dst] += w * x
        theta[src] -= w * x
        ref += w * bm.tau_star(x)
    return theta, mu, lam, colors, ref


def _gradient_instance(gen):
    """Flux of the form w*(e^{dPhi} - 1) is optimal for its own
    divergence on any graph; the value is available in closed form."""
    K = int(gen.integers(2, 6))
    pairs = [(a, b) for a in range(K) for b in range(K) if a != b]
    keep = [p for p in pairs if gen.random() < 0.6]
    if not keep:
        keep = [pairs[int(gen.integers(len(pairs)))]]
    colors = bm.ColorGraph(K, keep)
    mu = gen.dirichlet(np.ones(K)) * 0.5 + 0.5 / K
    lam = gen.uniform(0.1, 3.0, colors.n_edges)
    phi = gen.uniform(-1.5, 1.5, K)
    while True:
        theta = np.zeros(K)
        ref = 0.0
        for e, (src, dst) in enumerate(colors.edges):
            w = mu[src] * lam[e]
            jump = np.expm1(phi[dst] - phi[src])
            theta[dst] += w * jump
            theta[src] -= w * jump
            ref += w * bm.tau_star(jump)
        if ref >= 1e-3:
            return theta, mu, lam, colors, ref
        phi = phi * 2.0


def test_criterion_07_duality():
    t0 = time.perf_counter()
    gen = np.random.default_rng(np.random.SeedSequence(4242))
    worst = 0.0
    for i in range(200):
        theta, mu, lam, colors, ref = (
            _tree_instance(gen) if i < 120 else _gradient_instance(gen))
        val = bm.variational_norm(theta, mu, lam, colors)
        worst = max(worst, abs(val - ref) / max(ref, 1e-12))
    elapsed = time.perf_counter() - t0
    _report(7, worst <= 1e-4 and elapsed < 30.0,
            f"200 closed-form instances, worst relative gap = {worst:.1e} "
            f"(<= 1e-4); {elapsed:.1f}s < 30s")


def test_criterion_08_girsanov_normalization():
    t0 = time.perf_counter()
    targets = bm.ProportionTargets((0.5,), (0.4,), ((0.6,),), (1.0,))
    spec = bm.sis_spec(1, gamma=1.2, nu=0.8, eta=0.9, zeta=0.7)
    T = 1.0
    flow = bm.solve_mckean_vlasov(spec, targets,
                                  [np.array([0.7, 0.3])] * 2, T, 0.01)
    colors = bm.ColorGraph(2, [(0, 1), (1, 0)])
    paths = [bm.sample_reference_path(colors, 0, T, np.random.default_rng(c))
             for c in np.random.SeedSequence(99).spawn(10000)]
    h = bm.girsanov_log_densities(paths, flow, targets, spec, (0, "c"))
    w = np.exp(h)
    se = w.std(ddof=1) / np.sqrt(w.size)
    ratio = abs(float(w.mean()) - 1.0) / se
    elapsed = time.perf_counter() - t0
    _report(8, ratio <= 3.0 and elapsed < 30.0,
            f"E[e^h] = {w.mean():.4f} over 10^4 reference paths, "
            f"{ratio:.2f} SE from 1 (limit 3); {elapsed:.1f}s < 30s")


def test_criterion_09_tau_suite():
    gen = np.random.default_rng(np.random.SeedSequence(31415))
    u = gen.uniform(-8.0, 8.0, 100000)
    v = gen.uniform(-1.0, 50.0, 100000)
    fy_min = float((bm.tau(u) + bm.tau_star(v) - u * v).min())
    eq_gap = float(np.abs(bm.tau(u) + bm.tau_star(np.expm1(u))
                          - u * np.expm1(u)).max())
    at_minus_one = bm.tau_star(-1.0)
    _report(9, fy_min >= -1e-12 and eq_gap <= 1e-8 and at_minus_one == 1.0,
            f"Fenchel-Young min slack = {fy_min:.1e} (>= -1e-12), gap at "
            f"v = e^u - 1 = {eq_gap:.1e} (<= 1e-8), "
            f"tau*(-1) = {at_minus_one}")


def test_criterion_10_thread_determinism(tmp_path):
    scen = {
        "schema": "blockmf/1",
        "seed": 515,
        "graph": {"complete_blocks": [[2, 3], [2, 3]]},
        "rates": {"model": "sis", "r": 2, "gamma": [0.8, 1.1],
                  "nu": [0.5, 0.4], "eta": 0.6, "zeta": [0.9, 0.7]},
        "targets": "from_graph",
        "init": {"c": [[0.7, 0.3], [0.8, 0.2]],
                 "p": [[0.6, 0.4], [0.75, 0.25]]},
        "horizon": 1.0,
        "dt": 0.01,
        "grid": 21,
        "replicas": 10,
        "n_list": [20, 40],
    }
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scen))
    expected = {"simulate": ("trajectory.csv", "empirical.csv"),
                "chaos": ("convergence.csv", "chaos_convergence.svg")}
    identical = True
    n_files = 0
    for sub, artifacts in expected.items():
        outs = []
        for threads in (1, 8):
            out = tmp_path / f"{sub}_t{threads}"
            proc = run_blockmf_module(
                [sub, "--scenario", str(path), "--out", str(out),
                 "--threads", str(threads)])
            assert proc.returncode == 0, proc.stderr
            for name in artifacts:
                assert (out / name).is_file(), (
                    f"{sub} --threads {threads} wrote no {name}\n"
                    f"{proc.stderr}")
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        identical &= names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            n_files += 1
            identical &= ((outs[0] / name).read_bytes()
                          == (outs[1] / name).read_bytes())
    _report(10, identical,
            f"simulate and chaos artifacts byte-identical for --threads 1 "
            f"vs 8 ({n_files} files compared)")
