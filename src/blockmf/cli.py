"""Command-line front end: scenario in, CSV/SVG artifacts out.

Every subcommand is a pure function of (scenario, flags): rerunning
with the same inputs rewrites identical files. Exit codes: 0 success,
1 validation problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .errors import InvalidConfigurationError, NumericalError, ValidationError
from .experiments import (
    lln_experiment,
    multichaos_test,
    proportional_family,
    proportional_sizes,
    resolve_tagged,
    sample_block_colors,
)
from .graph import build_complete_peripheral, check_regularity
from .ldp import variational_cost
from .meanfield import MeanFieldFlow, picard_iterate, solve_mckean_vlasov
from .oracle import master_equation_oracle
from .rng import substream
from .simulate import empirical_process, simulate

from .scenario import load_scenario

log = logging.getLogger("blockmf")

_COMMANDS = ("simulate", "meanfield", "picard", "chaos", "multichaos",
             "ldp-cost", "oracle-check", "validate")


def _setup_logging():
    name = os.environ.get("BLOCKMF_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if name not in levels:
        raise InvalidConfigurationError(
            f"BLOCKMF_LOG must be one of {sorted(levels)}, got {name!r}"
        )
    logging.basicConfig(level=levels[name],
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="blockmf",
        description="Simulate and analyze multiclass jump processes on "
                    "block-structured networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", help="output directory (overrides scenario)")
        p.add_argument("--seed", type=int,
                       help="master seed (overrides scenario)")
        p.add_argument("--threads", type=int,
                       default=os.cpu_count() or 1,
                       help="worker processes for replica farms")
        p.add_argument("--grid", type=int,
                       help="time-grid size (overrides scenario)")
    return parser


def _resolve(args, *, need_seed=True):
    sc = load_scenario(args.scenario)
    # --seed and --grid override the scenario's fields and pass their
    # checks, also where the subcommand does not use them
    if args.grid is not None:
        sc.raw["grid"] = args.grid
        sc.grid()
    if args.seed is not None:
        sc.raw["seed"] = args.seed
    seed = sc.seed
    if need_seed and seed is None:
        raise InvalidConfigurationError(
            "no seed: set one in the scenario or pass --seed"
        )
    if args.threads < 1:
        raise InvalidConfigurationError("--threads must be >= 1")
    out_dir = args.out or sc.out or "."
    os.makedirs(out_dir, exist_ok=True)
    return sc, seed, out_dir


def _n_list_sizes(sc, targets):
    """Block sizes of the graph chaos and multichaos build for each N of
    n_list, found without building the graphs."""
    try:
        return [proportional_sizes(targets, N) for N in sc.n_list]
    except ValidationError as exc:
        raise InvalidConfigurationError(f"n_list: {exc}") from None


def _resolve_tagged_for_every_n(tagged, n_list, sizes):
    """Resolve the tagged requests on the graph of every N, so that a
    request that some N cannot honour fails before any run."""
    for N, s in zip(n_list, sizes):
        try:
            resolve_tagged(build_complete_peripheral(s), tagged)
        except ValidationError as exc:
            raise InvalidConfigurationError(f"N={N}: {exc}") from None


def cmd_validate(args):
    sc, seed, _ = _resolve(args, need_seed=False)
    checked = ["schema"]
    graph = targets = K = None
    if "graph" in sc.raw:
        graph = sc.build_graph()
        checked.append(f"graph(N={graph.n_total},r={graph.r})")
    if "rates" in sc.raw:
        K = sc.build_rates().colors.K
        checked.append("rates")
    if "targets" in sc.raw or graph is not None:
        targets = sc.build_targets(graph)
        checked.append("targets")
    if "init" in sc.raw and targets is not None:
        sc.build_inits(targets.r, K)
        checked.append("init")
    numeric_checks = {
        "horizon": lambda: sc.horizon,
        "dt": sc.dt,
        "grid": sc.grid,
        "replicas": sc.replicas,
        "n_list": lambda: sc.n_list,
    }
    for field, check in numeric_checks.items():
        if field in sc.raw:
            check()
            checked.append(field)
    sizes = None
    if "n_list" in sc.raw and targets is not None:
        sizes = _n_list_sizes(sc, targets)
    if "tagged" in sc.raw and targets is not None:
        tagged = sc.tagged(targets.r)
        if sizes is not None:
            _resolve_tagged_for_every_n(tagged, sc.n_list, sizes)
        checked.append("tagged")
    extra = ""
    if graph is not None and targets is not None:
        rep = check_regularity(graph, targets)
        extra = f", max target residual {rep.max_resid:.3g}"
    return f"scenario OK: {', '.join(checked)}{extra}"


def cmd_simulate(args):
    sc, seed, out_dir = _resolve(args)
    graph = sc.build_graph()
    spec = sc.build_rates()
    targets = sc.build_targets(graph)
    inits = sc.build_inits(graph.r, spec.colors.K)
    T = sc.horizon
    grid = np.linspace(0.0, T, sc.grid())
    gen = substream(seed)
    colors = sample_block_colors(graph, inits, gen)
    traj = simulate(graph, spec, targets, colors, T, gen)
    with open(os.path.join(out_dir, "trajectory.csv"), "w") as fp:
        traj.to_csv(fp)
    emp = empirical_process(traj, graph, grid)
    with open(os.path.join(out_dir, "empirical.csv"), "w") as fp:
        emp.to_csv(fp)
    return (f"simulate: N={graph.n_total}, {len(traj.events)} events to "
            f"T={T:g} -> trajectory.csv, empirical.csv")


def cmd_meanfield(args):
    sc, seed, out_dir = _resolve(args, need_seed=False)
    graph = sc.build_graph() if "graph" in sc.raw else None
    spec = sc.build_rates()
    targets = sc.build_targets(graph)
    inits = sc.build_inits(targets.r, spec.colors.K)
    flow = solve_mckean_vlasov(spec, targets, inits, sc.horizon, sc.dt())
    with open(os.path.join(out_dir, "flow.csv"), "w") as fp:
        flow.to_csv(fp)
    drift = np.abs(flow.values.sum(axis=2) - 1.0).max()
    return (f"meanfield: {flow.times.size} grid points, max mass drift "
            f"{drift:.3g} -> flow.csv")


def cmd_picard(args):
    sc, seed, out_dir = _resolve(args, need_seed=False)
    graph = sc.build_graph() if "graph" in sc.raw else None
    spec = sc.build_rates()
    targets = sc.build_targets(graph)
    inits = sc.build_inits(targets.r, spec.colors.K)
    flow, residuals = picard_iterate(
        spec, targets, inits, sc.horizon, sc.dt(),
        tol=sc.picard_tol, max_iter=sc.picard_max_iter,
    )
    with open(os.path.join(out_dir, "flow_picard.csv"), "w") as fp:
        flow.to_csv(fp)
    with open(os.path.join(out_dir, "residuals.csv"), "w") as fp:
        fp.write("iter,residual\n")
        for i, res in enumerate(residuals, start=1):
            fp.write(f"{i},{res:.17g}\n")
    return (f"picard: {len(residuals)} sweeps, final residual "
            f"{residuals[-1]:.3g} -> flow_picard.csv, residuals.csv")


def cmd_chaos(args):
    sc, seed, out_dir = _resolve(args)
    spec = sc.build_rates()
    targets = sc.build_targets(None if "graph" not in sc.raw
                               else sc.build_graph())
    inits = sc.build_inits(targets.r, spec.colors.K)
    _n_list_sizes(sc, targets)
    report = lln_experiment(
        proportional_family(targets), spec, targets, inits, sc.horizon,
        sc.grid(31), sc.n_list, sc.replicas(),
        seed, dt=sc.dt(), threads=args.threads,
    )
    with open(os.path.join(out_dir, "convergence.csv"), "w") as fp:
        report.to_csv(fp)
    with open(os.path.join(out_dir, "chaos_convergence.svg"), "w") as fp:
        report.to_svg(fp)
    pairs = ", ".join(f"N={n}: {m:.4g}"
                      for n, m in zip(report.n_values, report.means))
    return (f"chaos: mean sup-grid distance {pairs} -> convergence.csv, "
            f"chaos_convergence.svg")


def cmd_multichaos(args):
    sc, seed, out_dir = _resolve(args)
    spec = sc.build_rates()
    targets = sc.build_targets(None if "graph" not in sc.raw
                               else sc.build_graph())
    inits = sc.build_inits(targets.r, spec.colors.K)
    sizes = _n_list_sizes(sc, targets)
    tagged = sc.tagged(targets.r)
    _resolve_tagged_for_every_n(tagged, sc.n_list, sizes)
    family = proportional_family(targets)
    replicas = sc.replicas()
    rows = []
    for idx, N in enumerate(sc.n_list):
        graph = family(N)
        _, _, tv = multichaos_test(
            graph, spec, targets, tagged, sc.horizon, replicas,
            (seed, idx), inits=inits, threads=args.threads,
        )
        rows.append((N, tv))
        log.info("multichaos N=%d tv=%.5g", N, tv)
    with open(os.path.join(out_dir, "multichaos.csv"), "w") as fp:
        fp.write("N,replicas,tv_distance\n")
        for N, tv in rows:
            fp.write(f"{N},{replicas},{tv:.17g}\n")
    pairs = ", ".join(f"N={n}: {tv:.4g}" for n, tv in rows)
    return f"multichaos: TV(joint, product) {pairs} -> multichaos.csv"


def cmd_ldp_cost(args):
    sc, seed, out_dir = _resolve(args, need_seed=False)
    graph = sc.build_graph() if "graph" in sc.raw else None
    spec = sc.build_rates()
    targets = sc.build_targets(graph)
    flow_path = sc.flow_csv or os.path.join(out_dir, "flow.csv")
    if os.path.exists(flow_path):
        with open(flow_path) as fp:
            flow = MeanFieldFlow.from_csv(fp)
        source = flow_path
    else:
        inits = sc.build_inits(targets.r, spec.colors.K)
        flow = solve_mckean_vlasov(spec, targets, inits, sc.horizon, sc.dt())
        source = "fresh mean-field solve"
    cost = variational_cost(flow, targets, spec)
    with open(os.path.join(out_dir, "cost.csv"), "w") as fp:
        cost.to_csv(fp)
    return (f"ldp-cost: S_total={cost.total:.6g} for flow from {source} "
            f"-> cost.csv")


def cmd_oracle_check(args):
    sc, seed, out_dir = _resolve(args)
    graph = sc.build_graph()
    spec = sc.build_rates()
    targets = sc.build_targets(graph)
    inits = sc.build_inits(graph.r, spec.colors.K)
    T = sc.horizon
    replicas = sc.replicas(default=20000)
    K = inits[0].size
    init_mat = np.asarray(inits)[graph.component]
    dist = master_equation_oracle(graph, spec, targets, init_mat, T)
    oracle_p = np.stack([dist.node_marginal(n) for n in range(graph.n_total)])

    counts = np.zeros((graph.n_total, K))
    for rep in range(replicas):
        gen = substream(seed, rep)
        colors = sample_block_colors(graph, inits, gen)
        traj = simulate(graph, spec, targets, colors, T, gen)
        final = traj.final_colors
        counts[np.arange(graph.n_total), final] += 1.0
    mc_p = counts / replicas
    se = np.sqrt(oracle_p * (1.0 - oracle_p) / replicas)
    diff = np.abs(mc_p - oracle_p)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(diff == 0.0, 0.0, diff / se)
    with open(os.path.join(out_dir, "oracle_check.csv"), "w") as fp:
        fp.write("node,color,oracle_p,mc_p,stderr\n")
        for n in range(graph.n_total):
            for z in range(K):
                fp.write(f"{n},{z},{oracle_p[n, z]:.17g},"
                         f"{mc_p[n, z]:.17g},{se[n, z]:.17g}\n")
    return (f"oracle-check: max |MC-oracle| = {diff.max():.5g}, max ratio "
            f"to SE = {ratios.max():.3g} over {replicas} replicas -> "
            f"oracle_check.csv")


_DISPATCH = {
    "simulate": cmd_simulate,
    "meanfield": cmd_meanfield,
    "picard": cmd_picard,
    "chaos": cmd_chaos,
    "multichaos": cmd_multichaos,
    "ldp-cost": cmd_ldp_cost,
    "oracle-check": cmd_oracle_check,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        summary = _DISPATCH[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
