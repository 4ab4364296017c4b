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
    block_color_cdf,
    draw_colors,
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
from .rng import ORACLE_CHECK, SIMULATE, substream
from .simulate import empirical_process, simulate
from .scenario import load_scenario
from .tables import write_table

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
                       help="accepted for compatibility; has no effect "
                            "(every subcommand runs in one process)")
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
    return sc, seed, args.out or sc.out or "."


def _write(out_dir, name, write, *args):
    """Write the artifact `name` into out_dir through write(fp, *args);
    out_dir is created with the first artifact."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fp:
        write(fp, *args)


def _read_flow(path):
    # undecodable bytes become U+FFFD and fail as a bad row
    with open(path, errors="replace") as fp:
        return MeanFieldFlow.from_csv(fp)


def _limit_model(sc):
    """Rate spec, targets and initial measures of the limit; the graph, if
    any, only supplies the targets."""
    graph = sc.build_graph() if "graph" in sc.raw else None
    spec = sc.build_rates()
    targets = sc.build_targets(graph)
    return spec, targets, sc.build_inits(targets.r, spec.colors.K)


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
        "picard_tol": lambda: sc.picard_tol,
        "picard_max_iter": lambda: sc.picard_max_iter,
    }
    for field, check in numeric_checks.items():
        if field in sc.raw:
            check()
            checked.append(field)
    if "flow_csv" in sc.raw:
        flow = _read_flow(sc.flow_csv)
        if targets is not None and K is not None \
                and (flow.r, flow.K) != (targets.r, K):
            raise InvalidConfigurationError(
                f"flow_csv: flow has r={flow.r}, K={flow.K}; the model has "
                f"r={targets.r}, K={K}")
        if flow.times.size < 3:  # what ldp-cost's derivative needs
            raise InvalidConfigurationError(
                "flow_csv: flow needs at least 3 grid points")
        checked.append("flow_csv")
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
    sc.build_targets(graph)  # checked; the dynamics read the graph itself
    inits = sc.build_inits(graph.r, spec.colors.K)
    T = sc.horizon
    grid = np.linspace(0.0, T, sc.grid())
    gen = substream(seed, 0, 0, SIMULATE)
    colors = sample_block_colors(graph, inits, gen)
    traj = simulate(graph, spec, colors, T, gen)
    _write(out_dir, "trajectory.csv", traj.to_csv)
    emp = empirical_process(traj, graph, grid)
    _write(out_dir, "empirical.csv", emp.to_csv)
    return (f"simulate: N={graph.n_total}, {len(traj.events)} events to "
            f"T={T:g} -> trajectory.csv, empirical.csv")


def cmd_meanfield(args):
    sc, seed, out_dir = _resolve(args, need_seed=False)
    spec, targets, inits = _limit_model(sc)
    flow = solve_mckean_vlasov(spec, targets, inits, sc.horizon, sc.dt())
    _write(out_dir, "flow.csv", flow.to_csv)
    drift = np.abs(flow.values.sum(axis=2) - 1.0).max()
    return (f"meanfield: {flow.times.size} grid points, max mass drift "
            f"{drift:.3g} -> flow.csv")


def cmd_picard(args):
    sc, seed, out_dir = _resolve(args, need_seed=False)
    spec, targets, inits = _limit_model(sc)
    flow, residuals = picard_iterate(
        spec, targets, inits, sc.horizon, sc.dt(),
        tol=sc.picard_tol, max_iter=sc.picard_max_iter,
    )
    _write(out_dir, "flow_picard.csv", flow.to_csv)
    _write(out_dir, "residuals.csv", write_table, ("iter", "residual"),
           [range(1, len(residuals) + 1), residuals])
    return (f"picard: {len(residuals)} sweeps, final residual "
            f"{residuals[-1]:.3g} -> flow_picard.csv, residuals.csv")


def cmd_chaos(args):
    sc, seed, out_dir = _resolve(args)
    spec, targets, inits = _limit_model(sc)
    _n_list_sizes(sc, targets)
    report = lln_experiment(
        proportional_family(targets), spec, targets, inits, sc.horizon,
        sc.grid(31), sc.n_list, sc.replicas(),
        seed, dt=sc.dt(),
    )
    _write(out_dir, "convergence.csv", report.to_csv)
    _write(out_dir, "chaos_convergence.svg", report.to_svg)
    pairs = ", ".join(f"N={n}: {m:.4g}"
                      for n, m in zip(report.n_values, report.means))
    return (f"chaos: mean sup-grid distance {pairs} -> convergence.csv, "
            f"chaos_convergence.svg")


def cmd_multichaos(args):
    sc, seed, out_dir = _resolve(args)
    spec, targets, inits = _limit_model(sc)
    sizes = _n_list_sizes(sc, targets)
    tagged = sc.tagged(targets.r)
    _resolve_tagged_for_every_n(tagged, sc.n_list, sizes)
    family = proportional_family(targets)
    replicas = sc.replicas()
    tvs = []
    for idx, N in enumerate(sc.n_list):
        graph = family(N)
        _, _, tv = multichaos_test(graph, spec, tagged, sc.horizon,
                                   replicas, (seed, idx), inits=inits)
        tvs.append(tv)
        log.info("multichaos N=%d tv=%.5g", N, tv)
    _write(out_dir, "multichaos.csv", write_table,
           ("N", "replicas", "tv_distance"),
           [sc.n_list, [replicas] * len(tvs), tvs])
    pairs = ", ".join(f"N={n}: {tv:.4g}" for n, tv in zip(sc.n_list, tvs))
    return f"multichaos: TV(joint, product) {pairs} -> multichaos.csv"


def cmd_ldp_cost(args):
    sc, seed, out_dir = _resolve(args, need_seed=False)
    graph = sc.build_graph() if "graph" in sc.raw else None
    spec = sc.build_rates()
    targets = sc.build_targets(graph)
    flow_path = sc.flow_csv or os.path.join(out_dir, "flow.csv")
    if os.path.isfile(flow_path):
        flow = _read_flow(flow_path)
        source = flow_path
    else:
        inits = sc.build_inits(targets.r, spec.colors.K)
        flow = solve_mckean_vlasov(spec, targets, inits, sc.horizon, sc.dt())
        source = "fresh mean-field solve"
    cost = variational_cost(flow, targets, spec)
    _write(out_dir, "cost.csv", cost.to_csv)
    return (f"ldp-cost: S_total={cost.total:.6g} for flow from {source} "
            f"-> cost.csv")


def cmd_oracle_check(args):
    sc, seed, out_dir = _resolve(args)
    graph = sc.build_graph()
    spec = sc.build_rates()
    sc.build_targets(graph)  # checked; the dynamics read the graph itself
    inits = sc.build_inits(graph.r, spec.colors.K)
    T = sc.horizon
    replicas = sc.replicas(default=20000)
    K = inits[0].size
    init_mat = np.asarray(inits)[graph.component]
    dist = master_equation_oracle(graph, spec, init_mat, T)
    oracle_p = np.stack([dist.node_marginal(n) for n in range(graph.n_total)])

    # the initial laws are checked and cumulated once; each replica draws
    # its colours from its own stream, as sample_block_colors does
    cdf = block_color_cdf(graph, inits)
    counts = np.zeros((graph.n_total, K))
    for rep in range(replicas):
        gen = substream(seed, 0, rep, ORACLE_CHECK)
        traj = simulate(graph, spec, draw_colors(cdf, gen), T, gen)
        counts[np.arange(graph.n_total), traj.final_colors] += 1.0
    mc_p = counts / replicas
    se = np.sqrt(oracle_p * (1.0 - oracle_p) / replicas)
    diff = np.abs(mc_p - oracle_p)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(diff == 0.0, 0.0, diff / se)
    _write(out_dir, "oracle_check.csv", write_table,
           ("node", "color", "oracle_p", "mc_p", "stderr"),
           [np.repeat(np.arange(graph.n_total), K),
            np.tile(np.arange(K), graph.n_total),
            oracle_p.ravel(), mc_p.ravel(), se.ravel()])
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
