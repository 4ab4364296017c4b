"""Command-line front end: scenario in, CSV/SVG artifacts out.

Every subcommand is a pure function of (scenario, flags): rerunning
with the same inputs rewrites identical files. Exit codes: 0 success,
1 validation problem (also a size too large to allocate), 2 numerical
failure.

Each subcommand imports the modules it runs in its own body: a call
loads only its own engine, and `numpy.random` only if it draws.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

import numpy as np

from .errors import InvalidConfigurationError, NumericalError, ValidationError
from .scenario import _NUMBERS, load_scenario
from .tables import write_table

log = logging.getLogger("blockmf")


def _setup_logging():
    name = os.environ.get("BLOCKMF_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if name not in levels:
        from .rates import _quoted

        raise InvalidConfigurationError(
            f"BLOCKMF_LOG must be one of {sorted(levels)}, got {_quoted(name)}"
        )
    logging.basicConfig(level=levels[name],
                        format="%(levelname)s %(name)s: %(message)s")


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and every subcommand call would otherwise pay for it."""
    parser = argparse.ArgumentParser(
        prog="blockmf",
        description="Simulate and analyze multiclass jump processes on "
                    "block-structured networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", help="output directory (default: .)")
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
        sc.number("grid")
    if args.seed is not None:
        sc.raw["seed"] = args.seed
    seed = sc.number("seed") if "seed" in sc.raw else None
    if need_seed and seed is None:
        raise InvalidConfigurationError(
            "no seed: set one in the scenario or pass --seed"
        )
    if args.threads < 1:
        raise InvalidConfigurationError("--threads must be >= 1")
    return sc, seed, args.out or "."


def _write(out_dir, name, write, *args):
    """Write the artifact `name` into out_dir through write(fp, *args);
    out_dir is created with the first artifact. An out_dir that cannot
    take it (an existing file, no permission, a full disk) is a
    configuration error."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fp:
            write(fp, *args)
    except OSError as exc:
        raise InvalidConfigurationError(
            f"cannot write {name} to {out_dir}: {exc.strerror or exc}"
        ) from None


def _read_flow(path):
    from .meanfield import MeanFieldFlow

    # undecodable bytes become U+FFFD and fail as a bad row
    with open(path, errors="replace") as fp:
        return MeanFieldFlow.from_csv(fp)


def _limit_rates(sc):
    """Rate spec and targets of the limit; a graph only supplies targets."""
    graph = sc.build_graph() if "graph" in sc.raw else None
    return sc.build_rates(), sc.build_targets(graph)


def _limit_model(sc):
    spec, targets = _limit_rates(sc)
    return spec, targets, sc.build_inits(targets.r, spec.colors.K)


def _particle_model(sc):
    """Graph, rate spec and initial measures; the targets are checked, but
    the dynamics read the graph itself."""
    graph, spec = sc.build_graph(), sc.build_rates()
    sc.build_targets(graph)
    return graph, spec, sc.build_inits(graph.r, spec.colors.K)


def _n_list_graphs(sc, targets):
    """The graph chaos and multichaos run for each N of n_list: the
    complete design of `proportional_family(targets)`."""
    from .experiments import proportional_family

    n_list = sc.n_list  # names itself when refused
    build = proportional_family(targets)
    try:
        return [build(N) for N in n_list]
    except ValidationError as exc:
        raise InvalidConfigurationError(f"n_list: {exc}") from None


def _resolve_tagged_for_every_n(tagged, graphs):
    """Resolve the tagged requests on the graph of every N, so that a
    request that some N cannot honour fails before any run."""
    from .experiments import resolve_tagged

    for graph in graphs:
        try:
            resolve_tagged(graph, tagged)
        except ValidationError as exc:
            raise InvalidConfigurationError(
                f"N={graph.n_total}: {exc}") from None


def cmd_validate(args):
    from .graph import check_regularity

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
    for field in _NUMBERS:
        if field in sc.raw and field != "seed":  # _resolve read the seed
            sc.n_list if field == "n_list" else sc.number(field)
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
    graphs = None
    if "n_list" in sc.raw and targets is not None:
        graphs = _n_list_graphs(sc, targets)
    if "tagged" in sc.raw and targets is not None:
        tagged = sc.tagged(targets.r)
        if graphs is not None:
            _resolve_tagged_for_every_n(tagged, graphs)
        checked.append("tagged")
    extra = ""
    if graph is not None and targets is not None:
        rep = check_regularity(graph, targets)
        extra = f", max target residual {rep.max_resid:.3g}"
    return f"scenario OK: {', '.join(checked)}{extra}"


def cmd_simulate(args):
    from .rng import SIMULATE, substream
    from .simulate import empirical_process, sample_block_colors, simulate

    sc, seed, out_dir = _resolve(args)
    graph, spec, inits = _particle_model(sc)
    T = sc.number("horizon")
    grid = np.linspace(0.0, T, sc.number("grid"))
    gen = substream(seed, 0, 0, SIMULATE)
    colors = sample_block_colors(graph, inits, gen)
    traj = simulate(graph, spec, colors, T, gen)
    _write(out_dir, "trajectory.csv", traj.to_csv)
    emp = empirical_process(traj, graph, grid)
    _write(out_dir, "empirical.csv", emp.to_csv)
    return (f"simulate: N={graph.n_total}, {len(traj.events)} events to "
            f"T={T:g} -> trajectory.csv, empirical.csv")


def cmd_meanfield(args):
    from .meanfield import solve_mckean_vlasov

    sc, seed, out_dir = _resolve(args, need_seed=False)
    spec, targets, inits = _limit_model(sc)
    flow = solve_mckean_vlasov(spec, targets, inits, sc.number("horizon"),
                               sc.number("dt"))
    _write(out_dir, "flow.csv", flow.to_csv)
    drift = np.abs(flow.values.sum(axis=2) - 1.0).max()
    return (f"meanfield: {flow.times.size} grid points, max mass drift "
            f"{drift:.3g} -> flow.csv")


def cmd_picard(args):
    from .meanfield import picard_iterate

    sc, seed, out_dir = _resolve(args, need_seed=False)
    spec, targets, inits = _limit_model(sc)
    flow, residuals = picard_iterate(
        spec, targets, inits, sc.number("horizon"), sc.number("dt"),
        tol=sc.number("picard_tol"), max_iter=sc.number("picard_max_iter"),
    )
    _write(out_dir, "flow_picard.csv", flow.to_csv)
    _write(out_dir, "residuals.csv", write_table, ("iter", "residual"),
           [range(1, len(residuals) + 1), residuals])
    return (f"picard: {len(residuals)} sweeps, final residual "
            f"{residuals[-1]:.3g} -> flow_picard.csv, residuals.csv")


def cmd_chaos(args):
    from .experiments import lln_experiment

    sc, seed, out_dir = _resolve(args)
    spec, targets, inits = _limit_model(sc)
    graphs = _n_list_graphs(sc, targets)
    report = lln_experiment(
        graphs, spec, targets, inits, sc.number("horizon"),
        sc.number("grid", 31), sc.number("replicas"),
        [(seed, idx) for idx in range(len(graphs))], dt=sc.number("dt"),
    )
    _write(out_dir, "convergence.csv", report.to_csv)
    _write(out_dir, "chaos_convergence.svg", report.to_svg)
    pairs = ", ".join(f"N={n}: {m:.4g}"
                      for n, m in zip(report.n_values, report.means))
    return (f"chaos: mean sup-grid distance {pairs} -> convergence.csv, "
            f"chaos_convergence.svg")


def cmd_multichaos(args):
    from .experiments import multichaos_test

    sc, seed, out_dir = _resolve(args)
    spec, targets, inits = _limit_model(sc)
    graphs = _n_list_graphs(sc, targets)
    tagged = sc.tagged(targets.r)
    _resolve_tagged_for_every_n(tagged, graphs)
    T, replicas = sc.number("horizon"), sc.number("replicas")
    tvs = [tv for _, _, tv in multichaos_test(
        graphs, spec, tagged, T, replicas,
        [(seed, idx) for idx in range(len(graphs))], inits=inits)]
    for N, tv in zip(sc.n_list, tvs):
        log.info("multichaos N=%d tv=%.5g", N, tv)
    _write(out_dir, "multichaos.csv", write_table,
           ("N", "replicas", "tv_distance"),
           [sc.n_list, [replicas] * len(tvs), tvs])
    pairs = ", ".join(f"N={n}: {tv:.4g}" for n, tv in zip(sc.n_list, tvs))
    return f"multichaos: TV(joint, product) {pairs} -> multichaos.csv"


def cmd_ldp_cost(args):
    from .ldp import variational_cost
    from .meanfield import solve_mckean_vlasov

    sc, seed, out_dir = _resolve(args, need_seed=False)
    spec, targets = _limit_rates(sc)
    flow_path = sc.flow_csv or os.path.join(out_dir, "flow.csv")
    if os.path.isfile(flow_path):
        flow = _read_flow(flow_path)
        source = flow_path
    else:
        inits = sc.build_inits(targets.r, spec.colors.K)
        flow = solve_mckean_vlasov(spec, targets, inits,
                                   sc.number("horizon"), sc.number("dt"))
        source = "fresh mean-field solve"
    cost = variational_cost(flow, targets, spec)
    _write(out_dir, "cost.csv", cost.to_csv)
    return (f"ldp-cost: S_total={cost.total:.6g} for flow from {source} "
            f"-> cost.csv")


def cmd_oracle_check(args):
    from .experiments import final_group_counts, tagged_law
    from .oracle import master_equation_oracle
    from .rng import ORACLE_CHECK, substream

    sc, seed, out_dir = _resolve(args)
    graph, spec, inits = _particle_model(sc)
    T = sc.number("horizon")
    replicas = sc.number("replicas", 20000)
    N, K = graph.n_total, inits[0].size
    init_mat = np.asarray(inits)[graph.component]
    dist = master_equation_oracle(graph, spec, init_mat, T)
    oracle_p = np.stack([dist.node_marginal(n) for n in range(N)])
    # a node's law given the counts is its group's colour fractions, in
    # [0, 1] with mean p, so `se` bounds the standard error of their mean
    [(tables, counts)] = final_group_counts(
        [graph], spec, T, replicas, [substream(seed, 0, 0, ORACLE_CHECK)],
        inits=inits)
    mc_p = np.stack([tagged_law(tables, counts, [n]) for n in range(N)])
    se = np.sqrt(oracle_p * (1.0 - oracle_p) / replicas)
    diff = np.abs(mc_p - oracle_p)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(diff == 0.0, 0.0, diff / se)
    _write(out_dir, "oracle_check.csv", write_table,
           ("node", "color", "oracle_p", "mc_p", "stderr"),
           [np.repeat(np.arange(N), K), np.tile(np.arange(K), N),
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
_COMMANDS = tuple(_DISPATCH)


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        summary = _DISPATCH[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # sizes too large to allocate are bad input too
        print(f"error: out of memory: {exc or 'allocation failed'}",
              file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
