"""Statistical experiments: empirical-measure convergence to the
mean-field flow, and factorization of tagged-node joint laws.

On the designs these experiments build, every member of a group (a
block's centrals, a peripheral twin class) jumps at the same rates, so
the system is Kurtz's density-dependent chain on group colour counts.
Both experiments run it as a count-level farm: all replicas of one N
advance together in numpy arrays, one jump per replica per lock-step,
in the calling process. The farm reads the rate map of
`simulate.GroupTables`, the one the per-node kernel reads.

Each N draws from one stream keyed by (seed path, N index, purpose
word), so results are a pure function of the seed and the replica
count; a replica's draws depend on how many replicas share its stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, InvalidArgumentError
from .graph import CENTRAL, BlockGraph, ProportionTargets, \
    build_complete_peripheral, class_index
from .meanfield import solve_mckean_vlasov
from .metrics import d_bl_of_differences
from .rates import validate_probability
from .rng import CHAOS, MULTICHAOS, substream
from .simulate import GroupTables
from .tables import write_table

__all__ = [
    "ConvergenceReport",
    "proportional_family",
    "proportional_sizes",
    "resolve_tagged",
    "sample_block_colors",
    "lln_experiment",
    "multichaos_test",
]


@dataclass(frozen=True)
class ConvergenceReport:
    """Mean sup-grid distance to the limiting flow per system size."""

    n_values: tuple
    replicas: int
    means: np.ndarray            # (n_N,)
    stderrs: np.ndarray          # (n_N,)
    component_means: np.ndarray  # (n_N, 2r)
    distances: np.ndarray        # (n_N, replicas) raw per-replica sups

    def __post_init__(self):
        if list(self.n_values) != sorted(set(self.n_values)):
            raise InvalidArgumentError("N values must be strictly increasing")
        if np.any(self.stderrs < 0):
            raise InvalidArgumentError("standard errors must be >= 0")

    def to_csv(self, fp) -> None:
        write_table(fp, ("N", "replicas", "mean_dist", "stderr"),
                    [self.n_values, [self.replicas] * len(self.n_values),
                     self.means, self.stderrs])

    def to_svg(self, fp) -> None:
        """Log-log plot of mean distance vs N with a slope -1/2 guide."""
        _svg_loglog(fp, np.asarray(self.n_values, dtype=float), self.means,
                    self.stderrs)


def _svg_loglog(fp, xs, ys, errs, slope=-0.5):
    if np.any(ys <= 0) or np.any(xs <= 0):
        raise InvalidArgumentError("log-log plot needs positive data")
    W, H = 640.0, 480.0
    ml, mr, mt, mb = 80.0, 24.0, 24.0, 56.0
    lx, ly = np.log10(xs), np.log10(ys)
    ref = ly[0] + slope * (lx - lx[0])
    # error bars clamp at 30% of the mean so a wide bar cannot wreck the scale
    bar_lo = np.log10(np.maximum(ys - errs, 0.3 * ys))
    bar_hi = np.log10(ys + errs)
    lo = np.concatenate((ly, ref, bar_lo))
    xmin, xmax = lx.min() - 0.08, lx.max() + 0.08
    ymin = lo.min() - 0.15
    ymax = max(ly.max(), ref.max(), bar_hi.max()) + 0.15

    def X(u):
        return ml + (u - xmin) / (xmax - xmin) * (W - ml - mr)

    def Y(v):
        return H - mb - (v - ymin) / (ymax - ymin) * (H - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" '
        f'height="{H:.0f}" viewBox="0 0 {W:.0f} {H:.0f}">',
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{W - ml - mr:.2f}" '
        f'height="{H - mt - mb:.2f}" fill="none" stroke="black"/>',
    ]
    for x, v in zip(xs, lx):
        out.append(f'<line x1="{X(v):.2f}" y1="{H - mb:.2f}" x2="{X(v):.2f}" '
                   f'y2="{H - mb + 6:.2f}" stroke="black"/>')
        out.append(f'<text x="{X(v):.2f}" y="{H - mb + 22:.2f}" '
                   f'font-size="13" text-anchor="middle">{x:g}</text>')
    dec0, dec1 = int(math.floor(ymin)), int(math.ceil(ymax))
    for d in range(dec0, dec1 + 1):
        if not ymin <= d <= ymax:
            continue
        out.append(f'<line x1="{ml - 6:.2f}" y1="{Y(d):.2f}" x2="{ml:.2f}" '
                   f'y2="{Y(d):.2f}" stroke="black"/>')
        out.append(f'<text x="{ml - 10:.2f}" y="{Y(d) + 4:.2f}" '
                   f'font-size="13" text-anchor="end">1e{d}</text>')
    pts = " ".join(f"{X(a):.2f},{Y(b):.2f}" for a, b in zip(lx, ly))
    rpts = " ".join(f"{X(a):.2f},{Y(b):.2f}" for a, b in zip(lx, ref))
    out.append(f'<polyline points="{rpts}" fill="none" stroke="gray" '
               f'stroke-dasharray="6 4"/>')
    out.append(f'<polyline points="{pts}" fill="none" stroke="black"/>')
    for a, b, blo, bhi in zip(lx, ly, bar_lo, bar_hi):
        out.append(f'<line x1="{X(a):.2f}" y1="{Y(blo):.2f}" x2="{X(a):.2f}" '
                   f'y2="{Y(bhi):.2f}" stroke="black"/>')
        out.append(f'<circle cx="{X(a):.2f}" cy="{Y(b):.2f}" r="3.5" '
                   f'fill="black"/>')
    out.append(f'<text x="{(ml + W - mr) / 2:.2f}" y="{H - 12:.2f}" '
               f'font-size="14" text-anchor="middle">N</text>')
    out.append(f'<text x="18" y="{(mt + H - mb) / 2:.2f}" font-size="14" '
               f'text-anchor="middle" transform="rotate(-90 18 '
               f'{(mt + H - mb) / 2:.2f})">mean distance</text>')
    out.append(f'<text x="{X(lx[-1]) - 8:.2f}" y="{Y(ref[-1]) - 8:.2f}" '
               f'font-size="12" text-anchor="end" fill="gray">slope -1/2'
               f'</text>')
    out.append("</svg>")
    fp.write("\n".join(out) + "\n")


def proportional_sizes(targets: ProportionTargets, N: int):
    """(central, peripheral) size of each block of an N-node system whose
    block and class sizes are exactly proportional to the targets; N
    values that do not split into integers are rejected."""
    sizes = []
    for j in range(targets.r):
        nj = targets.alpha[j] * N
        ncj = targets.p_c[j] * nj
        if abs(nj - round(nj)) > 1e-9 or abs(ncj - round(ncj)) > 1e-9:
            raise InvalidArgumentError(
                f"N={N} does not realize the target proportions"
            )
        nj, ncj = int(round(nj)), int(round(ncj))
        sizes.append((ncj, nj - ncj))
    return sizes


def proportional_family(targets: ProportionTargets):
    """Callable N -> complete-peripheral graph with the sizes of
    `proportional_sizes`."""

    def build(N: int) -> BlockGraph:
        return build_complete_peripheral(proportional_sizes(targets, N))

    return build


def block_color_cdf(graph: BlockGraph, inits) -> np.ndarray:
    """Per-node cumulative initial law, shape (N, K): row n cumulates
    inits[2*block + class] of node n. Validates the laws."""
    if len(inits) != 2 * graph.r:
        raise InvalidArgumentError(f"need 2r={2 * graph.r} initial measures")
    K = validate_probability(inits[0]).size
    cdf = np.cumsum([validate_probability(m, K) for m in inits], axis=1)
    return cdf[graph.component]


def draw_colors(cdf, gen) -> np.ndarray:
    """One colour per row of a per-node cdf from one gen.random(N) draw: a
    node's colour is the number of its cdf entries at or below u."""
    u = gen.random(len(cdf))
    return np.minimum((cdf <= u[:, None]).sum(axis=1), cdf.shape[1] - 1)


def sample_block_colors(graph: BlockGraph, inits, gen) -> np.ndarray:
    """iid initial colors, one distribution per component 2*block+class."""
    return draw_colors(block_color_cdf(graph, inits), gen)


def _seed_path(seed):
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def _count_farm(tables: GroupTables, inits, T: float, replicas: int, gen,
                *, grid=None, tagged=()):
    """Run `replicas` copies of the count chain of `tables` to time T in
    lock-step, from iid initial colours with law inits[2*block + class].

    Each lock-step computes every replica's rates max(0, beta + A n) from
    the sparse map, draws one exponential and one uniform per replica to
    pick the jump time and the (group, edge), and applies the jump to the
    replicas still before T with a positive total rate.

    grid: nondecreasing times in [0, T]. Returns the group counts at each,
    shape (replicas, len(grid), G, K), taken as the state after the last
    jump at or before that time (right-continuous, as in
    `empirical_process`), or None without a grid.
    tagged: distinct node ids, followed exactly. A bucket's tagged members
    sit in its first slots and a third uniform u picks slot floor(u *
    count) as the jumper. Returns their final colours, shape (replicas,
    len(tagged)).
    """
    if T < 0:
        raise InvalidArgumentError("T must be >= 0")
    if len(inits) != 2 * tables.graph.r:
        raise InvalidArgumentError(
            f"need 2r={2 * tables.graph.r} initial measures")
    K, G, E = tables.K, tables.n_groups, tables.n_edges
    law = np.array([validate_probability(m, K) for m in inits])
    R, GE = replicas, G * E

    # initial state: one multinomial per group for the untagged members,
    # then each tagged node's colour on its own
    tag_group = np.array([tables.group_of(n) for n in tagged], dtype=np.int64)
    free = tables.sizes - np.bincount(tag_group, minlength=G)
    n = gen.multinomial(free, law[tables.component], size=(R, G))
    n = n.astype(float).reshape(R, G * K)
    tag_law = np.cumsum(law[tables.component[tag_group]], axis=1)
    tag_col = tag_group * K + np.minimum(
        (tag_law <= gen.random((R, len(tagged)))[..., None]).sum(axis=2),
        K - 1)
    np.add.at(n, (np.arange(R)[:, None], tag_col), 1.0)

    # the rate map's rows summed by reduceat over their columns; an empty
    # row gets one zero-weight entry, so every row has a start
    row_len = np.bincount(tables.row, minlength=GE)
    empty = np.flatnonzero(row_len == 0)
    order = np.argsort(np.concatenate((tables.row, empty)), kind="stable")
    col = np.concatenate((tables.col, np.zeros(empty.size, np.int64)))[order]
    weight = np.concatenate((tables.weight, np.zeros(empty.size)))[order]
    starts = np.cumsum(np.maximum(row_len, 1)) - np.maximum(row_len, 1)
    beta = tables.beta.ravel()
    src, dst = tables.family.colors.edge_cells(G)  # flat buckets of (g, e)

    if grid is not None:
        grid = np.append(np.asarray(grid, dtype=float), np.inf)
        rows = np.empty((R, grid.size - 1, G * K))
        filled_to = np.zeros(R, dtype=np.int64)  # next grid row to write
        due = np.full(R, grid[0])                # its time
    every = np.arange(R)
    t = np.zeros(R)
    live = np.ones(R, dtype=bool)
    no_rate = np.full(R, np.inf)
    while True:
        rate = np.add.reduceat(n[:, col] * weight, starts, axis=1)
        rate += beta
        np.maximum(rate, 0.0, out=rate)
        rate *= n[:, src]
        cum = np.cumsum(rate, axis=1)
        total = cum[:, -1]
        if not np.isfinite(total.sum()):
            raise InternalConsistencyError("non-finite rate in the count farm")
        t_next = t + np.divide(gen.standard_exponential(R), total,
                               out=no_rate.copy(), where=total > 0.0)
        u = gen.random(R)
        slot_u = gen.random(R) if tagged else None
        if grid is not None:
            # a grid time before the next jump sees the current state; a
            # replica that stops here fills all its remaining rows
            due_now = due < t_next
            w = due_now.nonzero()[0] if due_now.any() else ()
            while len(w):
                rows[w, filled_to[w]] = n[w]
                filled_to[w] += 1
                due[w] = grid[filled_to[w]]
                w = w[due[w] < t_next[w]]
        live &= t_next <= T
        if not live.any():
            break
        # the first (group, edge) whose cumulated rate exceeds u * total:
        # u < 1 keeps u * total below cum[-1] == total, so a replica with
        # a positive total picks an edge of positive rate. Stopped
        # replicas pick anything and move by 0.
        k = (cum > (u * total)[:, None]).argmax(axis=1)
        frm, to = src[k], dst[k]
        step = live.astype(float)
        if tagged:
            count = n[every, frm]
            slot = np.minimum((slot_u * count).astype(np.int64),
                              count.astype(np.int64) - 1)
            here = (tag_col == frm[:, None]) & live[:, None]
            mover = here & (np.cumsum(here, axis=1) - 1 == slot[:, None])
            tag_col = np.where(mover, to[:, None], tag_col)
        n[every, frm] -= step
        n[every, to] += step
        t = t_next
    counts = None if grid is None else rows.reshape(R, -1, G, K)
    return counts, tag_col % K


def lln_experiment(graph_family, spec, targets: ProportionTargets, inits,
                   T, grid, N_list, replicas, seed, *,
                   dt=0.01) -> ConvergenceReport:
    """For each N: sample iid initial colors, simulate, and take the sup
    over the grid of the max-component BL distance between the empirical
    measures and the limiting flow. Reports mean and standard error over
    replicas per N. All replicas of one N run as one count farm."""
    N_list = [int(n) for n in N_list]
    if N_list != sorted(set(N_list)):
        raise InvalidArgumentError("N_list must be strictly increasing")
    if replicas < 2:
        raise InvalidArgumentError("need at least 2 replicas")
    T = float(T)
    grid_times = (np.linspace(0.0, T, int(grid)) if np.ndim(grid) == 0
                  else np.asarray(grid, dtype=float))
    if (grid_times.ndim != 1 or grid_times.size == 0
            or np.any(np.diff(grid_times) < 0)
            or grid_times[0] < 0 or grid_times[-1] > T):
        raise InvalidArgumentError(
            f"grid must be a nonempty nondecreasing 1-d array within "
            f"[0, {T}]")
    flow = solve_mckean_vlasov(spec, targets, inits, T, dt)
    flow_grid = np.stack([flow.at(t) for t in grid_times])
    seed_path = _seed_path(seed)

    r = targets.r
    means = np.empty(len(N_list))
    stderrs = np.empty(len(N_list))
    comp_means = np.empty((len(N_list), 2 * r))
    dists = np.empty((len(N_list), replicas))
    for n_idx, N in enumerate(N_list):
        graph = graph_family(N)
        if graph.r != r:
            raise InvalidArgumentError("graph family disagrees with targets")
        tables = GroupTables(graph, spec)
        counts, _ = _count_farm(tables, inits, T, replicas,
                                substream(*seed_path, n_idx, CHAOS),
                                grid=grid_times)
        to_component = np.zeros((2 * r, tables.n_groups))
        to_component[tables.component, np.arange(tables.n_groups)] = 1.0
        emp = ((to_component @ counts)
               / np.ravel(graph.block_sizes)[:, None])  # (R, grid, 2r, K)
        per_comp = d_bl_of_differences(emp - flow_grid).max(axis=1)
        dists[n_idx] = per_comp.max(axis=1)
        comp_means[n_idx] = per_comp.mean(axis=0)
        means[n_idx] = dists[n_idx].mean()
        stderrs[n_idx] = dists[n_idx].std(ddof=1) / math.sqrt(replicas)
    return ConvergenceReport(tuple(N_list), replicas, means, stderrs,
                             comp_means, dists)


def resolve_tagged(graph: BlockGraph, tagged_nodes):
    """One to three distinct node ids from raw node ids or (block, class)
    requests; a request picks the first node of that class
    (exchangeability makes the choice neutral)."""
    out = []
    for spec_ in tagged_nodes:
        if isinstance(spec_, (int, np.integer)):
            n = int(spec_)
            if not 0 <= n < graph.n_total:
                raise InvalidArgumentError(
                    f"tagged node {n} outside 0..{graph.n_total - 1}"
                )
            out.append(n)
        else:
            j, cls = spec_
            cls = class_index(cls)
            if not 0 <= j < graph.r or cls is None:
                raise InvalidArgumentError(
                    f"tagged {tuple(spec_)!r} names no class of a graph "
                    f"with {graph.r} blocks"
                )
            nodes = (graph.central_nodes(j) if cls == CENTRAL
                     else graph.peripheral_nodes(j))
            out.append(nodes[0])
    if len(out) != len(set(out)):
        raise InvalidArgumentError("tagged nodes must be distinct")
    if not 1 <= len(out) <= 3:
        raise InvalidArgumentError(
            f"need 1 to 3 tagged nodes, got {len(out)}"
        )
    return out


def multichaos_test(graph: BlockGraph, spec, tagged_nodes, T, replicas,
                    seed, *, inits):
    """Estimate the joint law of the tagged nodes' colors at time T, the
    product of its marginals, and the total-variation distance between
    the two. tagged_nodes entries are node ids or (block, class) pairs
    (resolved to the first node of the class). The dynamics run on the
    graph's own proportions."""
    tagged = resolve_tagged(graph, tagged_nodes)
    if replicas < 1:
        raise InvalidArgumentError("need at least 1 replica")
    tables = GroupTables(graph, spec)
    _, final = _count_farm(tables, inits, float(T), replicas,
                           substream(*_seed_path(seed), MULTICHAOS),
                           tagged=tagged)
    K = tables.K
    m = len(tagged)
    joint = np.zeros((K,) * m)
    np.add.at(joint, tuple(final.T), 1.0)
    joint /= replicas
    product = np.ones(())
    for axis in range(m):
        marg = joint.sum(axis=tuple(a for a in range(m) if a != axis))
        shape = [1] * m
        shape[axis] = K
        product = product * marg.reshape(shape)
    tv = 0.5 * float(np.abs(joint - product).sum())
    return joint, product, tv
