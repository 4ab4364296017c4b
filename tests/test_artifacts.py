"""Exact bytes of every CSV artifact, on edge values: signed zeros, tiny
and infinite floats, numpy integer ids. Floats are written with 17
significant digits, integers and class labels as plain text."""

import io
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import blockmf as bm
import blockmf.cli as cli
import blockmf.experiments as experiments
import blockmf.meanfield as meanfield
import blockmf.oracle as oracle
import blockmf.tables as tables
from test_cli import ORACLE_SCEN, scen_path

TIMES = np.array([-0.0, 0.1 + 0.2])
VALUES = np.array([[[-0.0, 1.0], [1e-300, 1.0], [1 / 3, 2 / 3], [0.5, 0.5]]])
VALUES = np.concatenate((VALUES, 2.0 * VALUES))  # (2 times, 2r=4, K=2)
SERIES_CSV = """\
t,block,class,color,mass
-0,0,c,0,-0
-0,0,c,1,1
-0,0,p,0,1e-300
-0,0,p,1,1
-0,1,c,0,0.33333333333333331
-0,1,c,1,0.66666666666666663
-0,1,p,0,0.5
-0,1,p,1,0.5
0.30000000000000004,0,c,0,-0
0.30000000000000004,0,c,1,2
0.30000000000000004,0,p,0,2.0000000000000001e-300
0.30000000000000004,0,p,1,2
0.30000000000000004,1,c,0,0.66666666666666663
0.30000000000000004,1,c,1,1.3333333333333333
0.30000000000000004,1,p,0,1
0.30000000000000004,1,p,1,1
"""


def to_text(obj):
    buf = io.StringIO()
    obj.to_csv(buf)
    return buf.getvalue()


def test_trajectory_csv_bytes(small_graph):
    initial = bm.SystemState.from_colors(small_graph, [0] * 10, 2)
    events = [(-0.0, np.int64(0), 0, 1),
              (1e-300, np.int64(7), np.int64(1), np.int64(0)),
              (0.1 + 0.2, 2, 0, 1)]
    traj = bm.Trajectory(initial, events, 1.0)
    assert to_text(traj) == ("t,node,from,to\n-0,0,0,1\n1e-300,7,1,0\n"
                             "0.30000000000000004,2,0,1\n")
    assert to_text(bm.Trajectory(initial, [], 1.0)) == "t,node,from,to\n"


@pytest.mark.parametrize("series", [bm.EmpiricalSeries, bm.MeanFieldFlow])
def test_component_series_csv_bytes(series):
    assert to_text(series(TIMES, VALUES)) == SERIES_CSV


def test_convergence_csv_bytes():
    # replicas, means and standard errors are read off the distances
    report = bm.ConvergenceReport(
        (np.int64(10), 20), np.zeros((2, 4)),
        np.array([[1e-300, 1e-300], [0.0, 2 / 3]]))
    assert to_text(report) == ("N,replicas,mean_dist,stderr\n"
                               "10,2,1e-300,0\n"
                               "20,2,0.33333333333333331,"
                               "0.33333333333333331\n")


@pytest.mark.parametrize("total, last", [(np.inf, "inf"), (-0.0, "-0"),
                                         (1e-300, "1e-300")])
def test_cost_csv_bytes(total, last):
    cost = bm.DeviationCost(
        np.array([0.0, 0.5]), np.array([[-0.0, np.inf], [1e-300, 1 / 3]]),
        np.zeros(2), np.ones(2), total)
    assert to_text(cost) == ("t,block,class,integrand\n"
                             "0,0,c,-0\n0,0,p,inf\n"
                             "0.5,0,c,1e-300\n0.5,0,p,0.33333333333333331\n"
                             f"S_total,{last}\n")


def run_cli(argv, capsys):
    code = cli.main(argv)
    assert code == 0, capsys.readouterr().err
    capsys.readouterr()


def test_picard_csv_bytes(tmp_path, capsys, monkeypatch):
    flow = bm.MeanFieldFlow(TIMES, VALUES)
    monkeypatch.setattr(meanfield, "picard_iterate",
                        lambda *a, **k: (flow, [0.5, 1e-300, 0.1 + 0.2]))
    run_cli(["picard", "--scenario", scen_path(tmp_path),
             "--out", str(tmp_path)], capsys)
    assert (tmp_path / "flow_picard.csv").read_text() == SERIES_CSV
    assert (tmp_path / "residuals.csv").read_text() == (
        "iter,residual\n1,0.5\n2,1e-300\n3,0.30000000000000004\n")


def test_multichaos_csv_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "multichaos_test",
                        lambda *a, **k: [(None, None, -0.0),
                                         (None, None, 1e-300)])
    run_cli(["multichaos", "--scenario", scen_path(tmp_path),
             "--out", str(tmp_path)], capsys)
    assert (tmp_path / "multichaos.csv").read_text() == (
        "N,replicas,tv_distance\n10,30,-0\n20,30,1e-300\n")


def test_oracle_check_csv_bytes(tmp_path, capsys, monkeypatch):
    marginals = np.array([[0.5, 0.5], [1.0, -0.0], [1e-300, 1.0]])
    monkeypatch.setattr(oracle, "master_equation_oracle", lambda *a: (
        SimpleNamespace(node_marginal=lambda n: marginals[n])))
    # the law is read once per group, off its first node: node 0 is the
    # central group, nodes 1 and 2 the peripheral twins, read off node 1
    asked = []
    monkeypatch.setattr(experiments, "tagged_law", lambda tables, counts, n: (
        asked.append(n) or np.array([[0.5, 0.5], [1.0, 0.0]])[n[0]]))
    sp = scen_path(tmp_path, {**ORACLE_SCEN, "replicas": 4})
    run_cli(["oracle-check", "--scenario", sp, "--out", str(tmp_path)],
            capsys)
    assert asked == [[0], [1]]
    assert (tmp_path / "oracle_check.csv").read_text() == (
        "node,color,oracle_p,mc_p,stderr\n"
        "0,0,0.5,0.5,0.25\n0,1,0.5,0.5,0.25\n"
        "1,0,1,1,0\n1,1,-0,0,-0\n"
        "2,0,1e-300,1,5e-151\n2,1,1,0,0\n")



@pytest.mark.parametrize("chunk", [1, 3, 5])
def test_chunking_changes_no_byte_and_no_line_number(monkeypatch, chunk):
    # rows are formatted and parsed a few at a time; the chunk size shows
    # neither in the bytes written nor in the lines named by an error
    monkeypatch.setattr(tables, "CHUNK_ROWS", chunk)
    flow = bm.MeanFieldFlow(TIMES, VALUES)
    assert to_text(flow) == SERIES_CSV
    cost = bm.DeviationCost(TIMES, VALUES[:, :, 0], np.zeros(4), np.ones(4),
                            np.inf)
    assert to_text(cost).splitlines()[1::8] == ["-0,0,c,-0", "S_total,inf"]
    header, *rows = SERIES_CSV.splitlines()
    text = "\n".join([header, "", *rows[:4], " ", *rows[4:]]) + "\n"
    back = bm.MeanFieldFlow.from_csv(io.StringIO(text))
    assert np.array_equal(back.values, VALUES)
    bad = text.replace("0.30000000000000004,1,c,1,", "0.3,1,x,1,")
    with pytest.raises(bm.InvalidArgumentError, match="flow line 17:"):
        bm.MeanFieldFlow.from_csv(io.StringIO(bad))
    repeat = text + rows[6] + "\n"
    with pytest.raises(bm.InvalidArgumentError, match="flow line 20:"):
        bm.MeanFieldFlow.from_csv(io.StringIO(repeat))


@pytest.mark.parametrize("chunk", [1, 3, 1024])
@pytest.mark.parametrize("r, K", [(1, 1), (1, 2), (1, 6), (3, 1), (3, 2),
                                  (3, 6)])
def test_series_round_trips_bit_exactly(monkeypatch, chunk, r, K):
    # what write_series writes, read_series gives back bit for bit: the
    # rows shuffled, with blank, all-space, CRLF and tab-padded lines;
    # signed zero, subnormal, tiny and huge values (.17g's exponent form)
    monkeypatch.setattr(tables, "CHUNK_ROWS", chunk)
    gen = np.random.default_rng(100 * r + 10 * K + chunk)
    n = 7
    times = gen.uniform(-1.0, 1.0) + gen.uniform(0.001, 1.0) * np.arange(n)
    values = gen.standard_normal((n, 2 * r, K)) * 10.0 ** gen.integers(
        -300, 300, (n, 2 * r, K))
    flat = values.reshape(-1)
    flat[gen.choice(flat.size, 4, replace=False)] = [-0.0, 5e-324, 1e-300,
                                                     1e300]
    buf = io.StringIO()
    tables.write_series(buf, times, values)
    header, *rows = buf.getvalue().splitlines()
    rows = [rows[i] for i in gen.permutation(len(rows))]
    pick = gen.choice(len(rows), 6, replace=False)
    for i in pick[:4]:  # tab-padded, the last two with CRLF endings
        rows[i] = "\t" + rows[i] + "\t"
    rows = [row + ("\r\n" if i in pick[2:] else "\n")
            for i, row in enumerate(rows)]
    for at, line in ((0, "\n"), (len(rows) // 2, "  \t \n"),
                     (len(rows), "\r\n")):
        rows.insert(at, line)
    got_t, got_v = tables.read_series(io.StringIO(header + "\n"
                                                  + "".join(rows)))
    assert got_t.tobytes() == times.tobytes()
    assert got_v.tobytes() == values.tobytes()


def reference_write_cells(fp, header, times, values, chunk):
    """Rows (t, block, class, [color,] value) as object columns zipped
    `chunk` rows at a time: the reference the cell writer must reproduce
    byte for byte."""
    fp.write(",".join(header) + "\n")
    cells = values[0].size
    g, z = np.divmod(np.arange(cells), cells // values.shape[1])
    keys = [g // 2, np.asarray(tables.CLASS_LABELS)[g % 2], z][:values.ndim]
    step = max(1, chunk // cells)
    for a in range(0, len(times), step):
        t = ["%.17g" % x for x in np.asarray(times[a:a + step]).tolist()]
        columns = [np.repeat(np.array(t, dtype=object), cells),
                   *(np.tile(k, len(t)) for k in keys),
                   values[a:a + step].reshape(-1)]
        row = ",".join("%.17g" if c.dtype.kind == "f" else "%s"
                       for c in columns) + "\n"
        n = len(columns[0])
        for start in range(0, n, chunk):
            rows = zip(*(c[start:start + chunk].tolist() for c in columns))
            fp.write(row * min(chunk, n - start)
                     % tuple(itertools.chain.from_iterable(rows)))


@pytest.mark.parametrize("chunk", [1, 3, 1024])
@pytest.mark.parametrize("shape", [(5, 2, 1), (4, 2, 2), (3, 6, 6), (7, 6),
                                   (2, 180, 6)])
def test_cell_writer_matches_reference(monkeypatch, chunk, shape):
    # random series for r in {1, 3} and K in {1, 2, 6}, a 2-D cost
    # integrand, and a time point of 1080 cells, more than any chunk;
    # signed zero, tiny, infinite and NaN values are written
    monkeypatch.setattr(tables, "CHUNK_ROWS", chunk)
    gen = np.random.default_rng(sum(shape) * chunk)
    values = gen.standard_normal(shape) * 10.0 ** gen.integers(-300, 300,
                                                                shape)
    flat = values.reshape(-1)
    flat[gen.choice(flat.size, 4, replace=False)] = [-0.0, 1e-300, np.inf,
                                                     np.nan]
    times = np.cumsum(gen.uniform(0.0, 1.0, shape[0])) - 0.5
    times[0] = -0.0
    header = tables.SERIES_HEADER[:len(shape) + 1] + ("value",)
    want, got = io.StringIO(), io.StringIO()
    reference_write_cells(want, header, times, values, chunk)
    tables._write_cells(got, header, times, values)
    assert got.getvalue() == want.getvalue()
    assert got.getvalue().count("\n") == 1 + values.size
