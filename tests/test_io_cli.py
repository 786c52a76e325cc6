import csv
import hashlib
import io as io_text
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import multilogistic
from multilogistic import io, itm, network
from multilogistic.cli import build_parser, main
from multilogistic.core import closed_form
from multilogistic.errors import InputDataError
from multilogistic.maxent import analytic_rank, solve_lambda


# the UTF-8 byte-order mark that spreadsheets write at the start of a "CSV UTF-8" export
BOM = b"\xef\xbb\xbf"


def read_report(path):
    header, rows = io.read_table(path)
    assert header == ["metric", "value"]
    return {k: v for k, v in rows}


def write_population_csv(path, pops, place="p{}"):
    """A 'population' column, after a 'place_name' column made from ``place`` unless None."""
    if place is None:
        io.write_table(path, ["population"], [pops])
    else:
        io.write_table(path, ["place_name", "population"],
                       [[place.format(i) for i in range(len(pops))], pops])


def write_share_csv(path, epoch="2012-03", rates=(0.0, 0.1, 0.3), months=36,
                    components=("explorer", "firefox", "chrome")):
    times = np.arange(-months, 1, dtype=float)
    x0 = np.array([50.0, 30.0, 20.0])
    shares = closed_form(x0, np.asarray(rates), 100.0, times)
    dates = [io.month_shift(epoch, int(t)) for t in times]
    io.write_table(path, ["date", *components], [dates, *shares.T])


def csv_module_bytes(header, columns):
    """The reference bytes: csv.writer over ``str`` of each cell, ndarray columns via tolist()."""
    buf = io_text.StringIO(newline="")
    w = csv.writer(buf)
    if header is not None:
        w.writerow(header)
    cells = [map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns]
    w.writerows(zip(*cells, strict=True))
    return buf.getvalue().encode()


class TestWriterMatchesCsvModule:
    """write_table's bytes against the csv module writing str of each cell."""

    TEXT = ["plain", "a,b", 'say "hi"', "two\r\nlines", "cr\rhere", "lf\nhere",
            " spaced ", "", '""', '"', ",", "tab\there", "ünï"]

    def check(self, tmp_path, header, columns):
        p = tmp_path / "t.csv"
        io.write_table(p, header, columns)
        assert p.read_bytes() == csv_module_bytes(header, columns)
        return p

    def test_text_cells_and_header(self, tmp_path):
        n = len(self.TEXT)
        self.check(tmp_path, ["name", "n,1", 'q"uote', ""],
                   [self.TEXT, np.arange(n), np.array(self.TEXT), list(reversed(self.TEXT))])

    def test_one_column_with_empty_text(self, tmp_path):
        p = self.check(tmp_path, ["name"], [["a", "", "b,c", ""]])
        assert p.read_bytes() == b'name\r\na\r\n""\r\n"b,c"\r\n""\r\n'
        self.check(tmp_path, [""], [np.array(["", "x"])])

    def test_scalars_of_every_kind(self, tmp_path):
        special = [float("inf"), float("-inf"), float("nan"), -0.0, 5e-324, 1e16, 1e-05, 0.1]
        values = [np.float64(0.1), np.float32(0.1), np.int64(-7), np.int32(12), np.bool_(True),
                  True, False, None, 2**70, *special]
        n = len(values)
        self.check(tmp_path, ["v", "f", "b", "u"], [
            values, np.resize(special, n), np.arange(n) % 3 == 0, np.arange(n, dtype=np.uint16),
        ])

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_edges(self, tmp_path, offset):
        rng = np.random.default_rng(5)
        for n in (0, 1, io._BLOCK_ROWS + offset, 2 * io._BLOCK_ROWS + offset):
            self.check(tmp_path, ["i", "x", "name"],
                       [np.arange(n), rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n),
                        [f"n{i}" if i % 7 else f"n,{i}" for i in range(n)]])
            self.check(tmp_path, ["x"], [rng.random(n)])
            # numeric columns become Python numbers block by block: narrow
            # dtypes, bool, and the strided rows of a transposed 2-D array
            pairs = rng.integers(-2**40, 2**40, (n, 2))
            self.check(tmp_path, ["u", "v", "i32", "b", "f32"], [
                *pairs.T, rng.integers(-2**31, 2**31, n, dtype=np.int32), rng.random(n) < 0.5,
                rng.random(n).astype(np.float32),
            ])
            self.check(tmp_path, None, pairs.T)

    def test_numbers_converted_per_block(self, tmp_path):
        # a 200k x 2 int64 table: only one block's Python ints at a time are
        # held, not the whole table's 400k (about 15 MB)
        table = np.arange(400_000, dtype=np.int64).reshape(2, -1)
        p = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            io.write_table(p, ["u", "v"], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert p.read_bytes() == csv_module_bytes(["u", "v"], table)


class TestIoRoundTrips:
    def test_month_arithmetic(self):
        assert io.month_shift("2012-03", -3) == "2011-12"
        assert io.month_shift("2012-03", 10) == "2013-01"

    def test_write_table_bytes(self, tmp_path):
        p = tmp_path / "t.csv"
        io.write_table(p, ["name", "x", "value"], [
            ["a", "b,c", "d", "e", "f", "g"],
            np.array([0.1, 1e16, 1e-05, -0.0, 5e-324, 2.0]),
            [3, np.int64(-7), np.float64(0.1), np.float64(1e16), np.int32(12), 0.5],
        ])
        assert p.read_bytes() == (b"name,x,value\r\n"
                                  b"a,0.1,3\r\n"
                                  b'"b,c",1e+16,-7\r\n'
                                  b"d,1e-05,0.1\r\n"
                                  b"e,-0.0,1e+16\r\n"
                                  b"f,5e-324,12\r\n"
                                  b"g,2.0,0.5\r\n")
        before = p.read_bytes()
        with pytest.raises(ValueError, match="unequal lengths"):
            io.write_table(p, ["x", "y"], [[1, 2], [3]])
        with pytest.raises(ValueError, match="unequal lengths"):
            io.write_table(p, ["x", "y"], [np.arange(600.0), np.arange(599)])
        assert p.read_bytes() == before  # checked before the file is opened

    def test_populations_with_and_without_header(self, tmp_path):
        pops = np.array([1234.5, 99.0, 150.0, 8.25e5])
        for i, place in enumerate(("p{}", 'Town {}, "Upper" County', None)):
            p = tmp_path / f"pops_{i}.csv"
            write_population_csv(p, pops, place)
            np.testing.assert_array_equal(io.read_populations(p), pops)
        # a byte-order mark before 'population' as the first column, the only column, and no header
        p = tmp_path / "pops_bom.csv"
        for header, columns in ((["population", "place_name"], [pops, ["a", "b", "c", "d"]]),
                                (["population"], [pops]), (None, [pops])):
            io.write_table(p, header, columns)
            p.write_bytes(BOM + p.read_bytes())
            np.testing.assert_array_equal(io.read_populations(p), pops)

    def test_malformed_population_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("place_name,population\na,100\nb,not_a_number\n")
        from multilogistic import InputDataError

        with pytest.raises(InputDataError, match="line 3"):
            io.read_populations(p)

    def test_line_numbers_count_quoted_line_breaks(self, tmp_path):
        # a quoted cell that spans two lines: the bad row is on line 4, the third
        # row; a bad row that spans lines is reported where it starts
        pops = tmp_path / "pops.csv"
        pops.write_text('place_name,population\n"two\nlines",100\nb,xx\n')
        with pytest.raises(InputDataError, match="pops.csv: line 4: bad value"):
            io.read_populations(pops)
        pops.write_text('place_name,population\na,1\n"two\nlines",xx\nb,2\n')
        with pytest.raises(InputDataError, match="pops.csv: line 3: bad value"):
            io.read_populations(pops)
        shares = tmp_path / "shares.csv"
        shares.write_text('date,"fire\nfox",chrome\n2012-03,50,50\n2012-04,xx,50\n')
        with pytest.raises(InputDataError, match="shares.csv: line 4: bad row"):
            io.read_share_csv(shares, "2012-03")

    def test_edges_round_trip(self, tmp_path):
        from multilogistic import generate_sfin

        net = generate_sfin(300, 20, seed=1)
        p = tmp_path / "edges.csv"
        io.write_edges(p, net)
        for prefix in (b"", BOM):
            p.write_bytes(prefix + p.read_bytes())
            back = io.read_edges(p)
            assert np.array_equal(back.edge_array(), net.edge_array())

    def test_processes_round_trip(self, tmp_path):
        # processes [1, 4, 9] and [1, 2]; the shorter row repeats its final size
        sizes = np.array([[1, 4, 9], [1, 2, 2]])
        p = tmp_path / "procs.csv"
        io.write_processes(p, sizes)
        assert p.read_text().splitlines()[1:] == ["0,0,1", "0,1,4", "0,2,9", "1,0,1", "1,1,2"]
        back = io.read_processes(p)
        assert back.dtype == np.int64 and back.tolist() == [[1, 4, 9], [1, 2, 2]]

    @pytest.mark.parametrize("rows, line", [
        ("0,0,1\n0,2,3\n", 3),
        ("0,0,1\n1,0,1\n0,1,2\n1,1,2\n0,1,3\n", 6),
        ("0,0,1\n1,1,1\n1,2,2\n", 3),
    ], ids=["gap", "repeated", "not-from-0"])
    def test_processes_iterations_must_count_up_from_0(self, tmp_path, rows, line):
        # every size column here would pass on its own: each process starts at 1 and grows
        p = tmp_path / "procs.csv"
        p.write_text("process_id,iteration,size\n" + rows)
        with pytest.raises(InputDataError, match=f"procs.csv: line {line}: process"):
            io.read_processes(p)

    def test_share_series_round_trip(self, tmp_path):
        for i, (components, prefix) in enumerate([(("explorer", "firefox", "chrome"), b""),
                                                  (("explorer", "fire,fox", "chrome"), b""),
                                                  (("explorer", "firefox", "chrome"), BOM)]):
            p = tmp_path / f"shares_{i}.csv"
            write_share_csv(p, components=components)
            p.write_bytes(prefix + p.read_bytes())
            series = io.read_share_csv(p, "2012-03")
            assert series.components == components
            assert series.times[-1] == 0.0
            out = tmp_path / f"again_{i}.csv"
            io.write_share_series(out, series, epoch="2012-03")
            again = io.read_share_csv(out, "2012-03")
            assert again.components == components
            np.testing.assert_array_equal(again.shares, series.shares)

    def test_matrix_round_trip(self, tmp_path):
        p = tmp_path / "m.csv"
        for m in (np.array([[0.0, 0.25, 1e16], [-0.0, 5e-324, -1.5]]), np.array([[2.5, 1e-05]])):
            io.write_matrix(p, m)
            assert p.read_bytes() == csv_module_bytes(None, m.T)
            np.testing.assert_array_equal(io.read_matrix(p), m)
            p.write_bytes(BOM + p.read_bytes())
            np.testing.assert_array_equal(io.read_matrix(p), m)


class TestWalkersCommand:
    def test_small_run_outputs_and_reproducibility(self, tmp_path):
        args = ["walkers", "--seed", "7", "--n", "60", "--total", "360000",
                "--burn-in", "400", "--sample-every", "10", "--samples", "4"]

        def run(sub):
            out = tmp_path / sub
            assert main(args + ["--out", str(out)]) == 0
            return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

        a, b = run("a"), run("b")
        assert set(a) == {"rank.csv", "snapshot.csv", "diagnostics.csv", "manifest.json"}
        assert a == b  # byte-identical re-run

        diag = read_report(tmp_path / "a" / "diagnostics.csv")
        model = solve_lambda(360000.0, 60, 150.0)
        assert float(diag["lambda_analytic"]) == pytest.approx(model.lam, rel=1e-12)
        assert "ks_distance" in diag and "corr_coeff" in diag
        moves = [int(diag[k]) for k in
                 ("accepted_moves", "mover_rejections", "rescale_rejections")]
        assert sum(moves) == int(diag["steps"]) * 60
        settled = int(diag["bound_settled_steps"])
        assert 0 <= settled <= int(diag["steps"])
        assert int(diag["fixed_point_rounds"]) >= int(diag["steps"]) - settled

    def test_single_walker_rejected(self, tmp_path):
        code = main(["walkers", "--seed", "1", "--n", "1",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_infeasible_floor_rejected(self, tmp_path):
        code = main(["walkers", "--seed", "1", "--n", "100", "--total", "1000",
                     "--out", str(tmp_path)])
        assert code == 2


class TestRankfitCommand:
    def test_synthetic_rank_data_recovers_lambda(self, tmp_path):
        model = solve_lambda(6e6, 1000, 150.0)
        pops = analytic_rank(model, np.arange(1, 1001.0))
        src = tmp_path / "pops.csv"
        write_population_csv(src, pops)
        out = tmp_path / "fit"
        assert main(["rankfit", "--input", str(src), "--drop-top", "0",
                     "--out", str(out)]) == 0
        rep = read_report(out / "report.csv")
        assert float(rep["lambda_fit"]) == pytest.approx(model.lam, rel=1e-6)
        assert int(rep["dropped_below_floor"]) == 0

    def test_filters_reported(self, tmp_path):
        rng = np.random.default_rng(1)
        pops = np.concatenate([rng.uniform(150.0, 5e4, size=300),
                               rng.uniform(1.0, 149.0, size=25),
                               [1e6, 2e6, 3e6, 4e6]])
        src = tmp_path / "pops.csv"
        write_population_csv(src, pops)
        out = tmp_path / "fit"
        assert main(["rankfit", "--input", str(src), "--out", str(out)]) == 0
        rep = read_report(out / "report.csv")
        assert int(rep["dropped_below_floor"]) == 25
        assert int(rep["dropped_top"]) == 4
        assert int(rep["n_effective"]) == 300

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_population_is_input_error(self, tmp_path, value):
        pops = analytic_rank(solve_lambda(6e6, 1000, 150.0), np.arange(1, 51.0))
        rows = [f"p{i},{v!r}" for i, v in enumerate(pops.tolist())]
        rows.insert(20, f"p_bad,{value}")  # line 22: the header is line 1
        src = tmp_path / "pops.csv"
        src.write_text("place_name,population\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputDataError, match=f"line 22: population '{value}' is not finite"):
            io.read_populations(src)
        for drop_top in ("0", "4"):
            assert main(["rankfit", "--input", str(src), "--drop-top", drop_top,
                         "--out", str(tmp_path / "fit")]) == 2

    def test_empty_file_is_input_error(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("")
        assert main(["rankfit", "--input", str(src), "--out", str(tmp_path)]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["rankfit", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2


class TestNetworkCommands:
    def test_sfin_outputs_and_reproducibility(self, tmp_path):
        args = ["sfin", "--seed", "3", "--nodes", "800", "--max-degree", "30"]

        def run(sub):
            out = tmp_path / sub
            assert main(args + ["--out", str(out)]) == 0
            return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

        a, b = run("a"), run("b")
        assert a == b
        assert set(a) == {"edges.csv", "degrees.csv", "report.csv", "manifest.json"}

    def test_sfin_tables_pinned(self, tmp_path):
        # integer tables, so the digests hold at every supported numpy
        out = tmp_path / "s"
        assert main(["sfin", "--seed", "13", "--nodes", "2000", "--max-degree", "50",
                     "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("edges.csv", "degrees.csv")}
        assert digests == {
            "edges.csv": "3b6e64661ba8d9ef486838f828376f840cb1ae7940aeb785867f8a303a9618db",
            "degrees.csv": "6c70798eb56671a3792f1c941a72ac3daa870e14ef697f3337d7f6ec1cd51f59",
        }

    def test_diffuse_small_run(self, tmp_path):
        out = tmp_path / "d"
        assert main(["diffuse", "--seed", "11", "--nodes", "2500",
                     "--max-degree", "50", "--processes", "60",
                     "--density-times", "1,2",
                     "--out", str(out)]) == 0
        names = {f.name for f in out.iterdir()}
        assert {"processes.csv", "median.csv", "kernel_report.csv",
                "density.csv", "degrees.csv", "manifest.json"} <= names
        rep = read_report(out / "kernel_report.csv")
        assert float(rep["diff_coeff"]) >= 0.0
        procs = io.read_processes(out / "processes.csv")
        assert len(procs) == 60

    def test_diffuse_processes_pinned(self, tmp_path, capsys):
        # integers only (Philox seed draws, BFS layer sizes), so no libm dependence
        out = tmp_path / "d"
        assert main(["diffuse", *NETWORK_SMALL, "--processes", "40", "--out", str(out)]) == 0
        # the graph is not connected: the seeds come from its largest component
        assert capsys.readouterr().err == (
            "warning: graph is not connected; seeds restricted to its largest component "
            "(490 of 500 nodes)\n")
        digest = hashlib.sha256((out / "processes.csv").read_bytes()).hexdigest()
        assert digest == "33f9ae606ecff51c98f9650a3a5c298220211a70d847b10ee6bcd4135d373ee6"

    def test_diffuse_takes_growth_statistics_once(self, tmp_path, monkeypatch):
        calls = []
        stats = network.growth_statistics
        monkeypatch.setattr(network, "growth_statistics",
                            lambda *args: calls.append(args) or stats(*args))
        assert main(["diffuse", *NETWORK_SMALL, "--processes", "40",
                     "--out", str(tmp_path / "d")]) == 0
        assert len(calls) == 1

    def test_diffuse_too_few_processes_refused(self, tmp_path):
        assert main(["diffuse", "--seed", "11", "--nodes", "500",
                     "--max-degree", "20", "--processes", "1",
                     "--out", str(tmp_path)]) == 2

    def test_diffuse_from_edge_file(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["sfin", "--seed", "3", "--nodes", "1500",
                     "--max-degree", "40", "--out", str(gen)]) == 0
        out = tmp_path / "d2"
        assert main(["diffuse", "--seed", "4", "--edges", str(gen / "edges.csv"),
                     "--processes", "40", "--out", str(out)]) == 0


class TestForecastCommand:
    def test_constant_rate_recovery(self, tmp_path):
        src = tmp_path / "shares.csv"
        write_share_csv(src, rates=(0.0, 0.1, 0.3))
        out = tmp_path / "fc"
        assert main(["forecast", "--input", str(src), "--reference", "explorer",
                     "--epoch", "2012-03", "--horizon", "12",
                     "--out", str(out)]) == 0
        header, rows = io.read_table(out / "fit_report.csv")
        by_comp = {r[0]: r for r in rows}
        a_col = header.index("a")
        assert float(by_comp["firefox"][a_col]) == pytest.approx(0.1, abs=1e-7)
        assert float(by_comp["chrome"][a_col]) == pytest.approx(0.3, abs=1e-7)
        fheader, frows = io.read_table(out / "forecast.csv")
        assert fheader[:2] == ["date", "t"]
        assert frows[-1][1] == "12.0"
        # forecast on training epoch matches the observation
        row0 = [r for r in frows if float(r[1]) == 0.0][0]
        assert float(row0[2]) == pytest.approx(50.0, abs=1e-6)

    @pytest.mark.parametrize("form", ["exponential", "linear"])
    def test_fit_report_rss(self, tmp_path, form):
        # rss is each component's sum of squared residuals of its exponents h,
        # 0 for the reference
        src = tmp_path / "shares.csv"
        write_share_csv(src, rates=(0.0, 0.1, 0.3))
        header, rows = io.read_table(src)
        noise = np.exp(0.01 * np.random.default_rng(4).standard_normal((len(rows), 3)))
        noisy = np.array([[float(v) for v in r[1:]] for r in rows]) * noise
        noisy *= 100.0 / noisy.sum(axis=1, keepdims=True)
        io.write_table(src, header, [[r[0] for r in rows], *noisy.T])
        out = tmp_path / "fc"
        assert main(["forecast", "--input", str(src), "--reference", "explorer",
                     "--epoch", "2012-03", "--horizon", "6", "--form", form,
                     "--out", str(out)]) == 0
        rheader, rrows = io.read_table(out / "fit_report.csv")
        assert rheader[-1] == "rss"
        report = {r[0]: dict(zip(rheader, r)) for r in rrows}
        assert report["explorer"]["rss"] == "0.0"
        series = io.read_share_csv(src, "2012-03")
        h = multilogistic.growth_exponents(series, 0)
        t = series.times
        for j, name in ((1, "firefox"), (2, "chrome")):
            a, b, c = (float(report[name][k]) for k in "abc")
            expected = np.sum((a * np.exp(-b * t) * t + c - h[:, j]) ** 2)
            assert float(report[name]["rss"]) == pytest.approx(expected, rel=1e-9)
            assert 0.0 < expected < 1e-2

    def test_non_settling_fit_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys.modules["multilogistic.forecast"], "_STEPS", 0)
        src = tmp_path / "shares.csv"
        write_share_csv(src)
        out = tmp_path / "fc"
        assert main(["forecast", "--input", str(src), "--reference", "firefox",
                     "--epoch", "2012-03", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "did not settle" in err and "components [0, 2]" in err
        assert not any(out.iterdir())

    def test_horizon_zero_echoes_training(self, tmp_path):
        src = tmp_path / "shares.csv"
        write_share_csv(src, months=12)
        out = tmp_path / "fc0"
        assert main(["forecast", "--input", str(src), "--reference", "explorer",
                     "--epoch", "2012-03", "--horizon", "0",
                     "--out", str(out)]) == 0
        _, frows = io.read_table(out / "forecast.csv")
        assert len(frows) == 13

    def test_renormalize_any_row_sum(self, tmp_path):
        src = tmp_path / "shares.csv"
        write_share_csv(src, months=12)
        header, rows = io.read_table(src)
        io.write_table(src, header, [[r[0] for r in rows],
                                     *([2.6 * float(r[j]) for r in rows] for j in (1, 2, 3))])
        out = tmp_path / "fc"
        assert main(["forecast", "--input", str(src), "--reference", "explorer",
                     "--epoch", "2012-03", "--horizon", "6", "--renormalize",
                     "--out", str(out)]) == 0
        _, frows = io.read_table(out / "forecast.csv")
        for r in frows:
            assert sum(map(float, r[2:])) == pytest.approx(100.0, rel=1e-12)

    def test_missing_epoch_row_rejected(self, tmp_path):
        src = tmp_path / "shares.csv"
        write_share_csv(src, epoch="2012-03")
        assert main(["forecast", "--input", str(src), "--reference", "explorer",
                     "--epoch", "2020-01", "--out", str(tmp_path)]) == 2

    def test_unknown_reference_rejected(self, tmp_path):
        src = tmp_path / "shares.csv"
        write_share_csv(src)
        assert main(["forecast", "--input", str(src), "--reference", "netscape",
                     "--epoch", "2012-03", "--out", str(tmp_path)]) == 2

    def test_nonpositive_share_rejected(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("date,a,b\n2012-02,50,50\n2012-03,0,100\n")
        assert main(["forecast", "--input", str(src), "--reference", "a",
                     "--epoch", "2012-03", "--out", str(tmp_path)]) == 2


class TestItmCommand:
    def test_diagonal_equivalence_pass(self, tmp_path):
        m = tmp_path / "k.csv"
        io.write_matrix(m, np.diag([0.0, 0.4, -0.3]))
        out = tmp_path / "itm"
        assert main(["itm", "--matrix", str(m), "--initial", "50,30,20",
                     "--t-end", "2.0", "--out", str(out)]) == 0
        rep = read_report(out / "report.csv")
        assert rep["diagonal"] == "1"
        assert rep["equivalence_pass"] == "1"
        assert float(rep["equivalence_max_rel_error"]) < 1e-6
        assert float(rep["norm_max_error"]) <= 1e-10
        # the total is the sum of --initial, so the manifest records no other
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["initial"] == [50.0, 30.0, 20.0]
        assert "total" not in manifest["config"]
        assert manifest["seed"] is None

    def test_scalar_matrix_constant_trajectory(self, tmp_path):
        m = tmp_path / "k.csv"
        io.write_matrix(m, 1.5 * np.eye(2))
        out = tmp_path / "itm"
        assert main(["itm", "--matrix", str(m), "--initial", "30,70",
                     "--t-end", "1.0", "--out", str(out)]) == 0
        header, rows = io.read_table(out / "trajectory.csv")
        first, last = rows[0], rows[-1]
        for c in range(1, 3):
            assert float(last[c]) == pytest.approx(float(first[c]), abs=1e-10)

    def test_asymmetric_matrix_rejected(self, tmp_path, capsys):
        m = tmp_path / "k.csv"
        io.write_matrix(m, np.array([[0.0, 1.0], [0.2, 0.0]]))
        assert main(["itm", "--matrix", str(m), "--initial", "50,50",
                     "--out", str(tmp_path)]) == 2
        assert "asymmetry" in capsys.readouterr().err

    def test_coupling_validated_once(self, tmp_path, monkeypatch):
        calls = []
        validate = itm.validate_coupling

        def counted(*args, **kwargs):
            calls.append(args)
            return validate(*args, **kwargs)

        monkeypatch.setattr(itm, "validate_coupling", counted)
        m = tmp_path / "k.csv"
        io.write_matrix(m, np.array([[0.1, 0.3], [0.3, 0.4]]))
        assert main(["itm", "--matrix", str(m), "--initial", "50,50",
                     "--out", str(tmp_path / "itm")]) == 0
        assert len(calls) == 1


class TestManifest:
    def test_contents(self, tmp_path):
        out = tmp_path / "w"
        main(["walkers", "--seed", "5", "--n", "40", "--total", "240000",
              "--burn-in", "50", "--sample-every", "5", "--samples", "2",
              "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "walkers"
        assert manifest["seed"] == 5
        assert manifest["config"]["burn_in"] == 50
        assert set(manifest["versions"]) == {"multilogistic", "numpy", "scipy"}


def test_start_up_loads_no_scipy():
    # each scipy routine is imported where it is called, so a fresh interpreter
    # gets through the package, the parser and --help on numpy alone
    program = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(multilogistic.__file__).parent.parent)!r})",
        "import multilogistic",
        "import multilogistic.cli as cli",
        "cli.build_parser()",
        "try:",
        "    cli.main(['--help'])",
        "except SystemExit as exc:",
        "    assert exc.code == 0, exc.code",
        "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])",
    ])
    run = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                         timeout=120, check=True)
    assert "usage: multilogistic" in run.stdout
    assert run.stdout.splitlines()[-1] == "[]"


WALKERS_SMALL = ["walkers", "--seed", "5", "--n", "40", "--total", "240000",
                 "--burn-in", "50", "--sample-every", "5", "--samples", "2"]
NETWORK_SMALL = ["--seed", "3", "--nodes", "500", "--max-degree", "20", "--processes", "10"]


def test_walkers_and_rankfit_load_no_scipy_optimize(tmp_path):
    # the mean-value solve and the rank-law fit are Newton loops of their own, so a
    # fresh interpreter runs both subcommands without scipy.optimize or scipy.linalg
    pops = tmp_path / "populations.csv"
    io.write_table(pops, ["population"],
                   [150.0 * np.exp(np.random.default_rng(1).exponential(2.0, 300))])
    program = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(multilogistic.__file__).parent.parent)!r})",
        "import multilogistic.cli as cli",
        f"assert cli.main({[*WALKERS_SMALL, '--out', str(tmp_path / 'w')]!r}) == 0",
        f"assert cli.main({['rankfit', '--input', str(pops), '--out', str(tmp_path / 'r')]!r}) == 0",
        "print(sorted({'scipy.optimize', 'scipy.linalg'} & set(sys.modules)))",
    ])
    run = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                         timeout=120, check=True)
    assert run.stdout.splitlines()[-1] == "[]"


class TestBadInput:
    @pytest.mark.parametrize("argv, word", [
        (WALKERS_SMALL + ["--seed", "-1"], "seed"),
        (WALKERS_SMALL + ["--sigma", "nan"], "sigma"),
        (WALKERS_SMALL + ["--drift", "nan"], "drift"),
        (WALKERS_SMALL + ["--dt", "inf"], "dt"),
        (WALKERS_SMALL + ["--n", "0"], "walkers"),
        (["sfin", *NETWORK_SMALL[:-2], "--seed", "-1"], "seed"),
        (["diffuse", *NETWORK_SMALL, "--seed", "-1"], "seed"),
        (["diffuse", *NETWORK_SMALL, "--processes", "-1"], "processes"),
        # enough processes for the kernel fit, so only the density times are bad
        (["diffuse", *NETWORK_SMALL, "--processes", "40", "--density-times", "-1"],
         "density_times"),
        (["diffuse", *NETWORK_SMALL, "--processes", "40", "--density-times", "1,inf"],
         "density_times"),
        (["itm", "--matrix", "{matrix}", "--initial", "50,50", "--t-end", "-1"], "t_end"),
        (["itm", "--matrix", "{matrix}", "--initial", "50,50", "--dt", "inf"], "dt"),
        # step counts are checked before the trajectory is allocated
        (["itm", "--matrix", "{matrix}", "--initial", "50,50", "--t-end", "1", "--dt", "1e-300"],
         "t_end=1.0 over dt=1e-300 is 1e+300 steps"),
        (["itm", "--matrix", "{matrix}", "--initial", "50,50", "--dt", "5e-324"],
         "t_end=5.0 over dt=5e-324 is inf steps"),
        (["itm", "--matrix", "{matrix}", "--initial", "50,50", "--t-end", "1e300", "--dt", "0.01"],
         "t_end=1e+300 over dt=0.01 is 1e+302 steps"),
        (["itm", "--matrix", "{matrix}", "--initial", "50,50", "--t-end", "1", "--dt", "0.3"],
         "t_end=1.0 is not a whole number of steps of dt=0.3"),
        (["itm", "--matrix", "{matrix}", "--initial", "50,50", "--t-end", "1", "--dt", "1e300"],
         "t_end=1.0 is not a whole number of steps of dt=1e+300"),
        (["itm", "--matrix", "{matrix_empty}", "--initial", "50,50"],
         "matrix_empty.csv: expected one or more rows"),
        (["itm", "--matrix", "{matrix_non_numeric}", "--initial", "50,50"],
         "matrix_non_numeric.csv: line 2"),
        # its norm overflows, its asymmetry must still be seen
        (["itm", "--matrix", "{matrix_antisymmetric}", "--initial", "50,50"], "symmetric"),
        # a zero population is rejected whether or not K is diagonal
        (["itm", "--matrix", "{matrix}", "--initial", "50,0"], "--initial"),
        (["itm", "--matrix", "{matrix_coupled}", "--initial", "50,0"], "--initial"),
        (["rankfit", "--input", "{populations}", "--drop-top", "-3"], "drop_top"),
        (["rankfit", "--input", "{populations}", "--x0", "nan"], "x0"),
        (["rankfit", "--input", "{populations}", "--x0", "inf"], "x0"),
        (["diffuse", *NETWORK_SMALL, "--edges", "{header_only}"], "header_only.csv"),
        (["diffuse", *NETWORK_SMALL, "--edges", "{non_integer}"], "non_integer.csv: line 3"),
        # int() reads these two cells, np.loadtxt does not
        (["diffuse", *NETWORK_SMALL, "--edges", "{underscore}"], "underscore.csv: line 3"),
        (["diffuse", *NETWORK_SMALL, "--edges", "{quoted}"], "quoted.csv: line 3"),
        # the shares file is valid: only the epoch is at fault
        (["forecast", "--input", "{shares}", "--reference", "explorer", "--epoch", "2012-13"],
         "--epoch"),
        (["forecast", "--input", "{shares}", "--reference", "explorer", "--epoch", "march"],
         "--epoch"),
        (["forecast", "--input", "{shares}", "--reference", "explorer", "--epoch", "2012-03",
          "--horizon", "-1"], "--horizon"),
        (["forecast", "--input", "{shares_nan}", "--reference", "explorer", "--epoch", "2012-03"],
         "shares_nan.csv: line 3"),
        (["forecast", "--input", "{shares_inf}", "--reference", "explorer", "--epoch", "2012-03"],
         "shares_inf.csv: line 3"),
        # a bad share on line 3 is named before the malformed row on line 4
        (["forecast", "--input", "{shares_nan_then_malformed}", "--reference", "explorer",
          "--epoch", "2012-03"],
         "shares_nan_then_malformed.csv: line 3: shares must be positive"),
        # the shares are valid: the scaled total overflows or is subnormal
        *[(["forecast", "--input", "{shares}", "--reference", "explorer", "--epoch", "2012-03",
            "--n-prime-factor", factor], "n_prime_factor") for factor in ("inf", "1e307", "5e-324")],
        # paths that cannot be read or written
        (["sfin", *NETWORK_SMALL[:-2], "--out", "{shares}"], "File exists"),
        (["rankfit", "--input", "{directory}"], "Is a directory"),
        (["forecast", "--input", "{directory}", "--reference", "explorer", "--epoch", "2012-03"],
         "Is a directory"),
        (["itm", "--matrix", "{directory}", "--initial", "50,50"], "Is a directory"),
        (["diffuse", *NETWORK_SMALL, "--edges", "{directory}"], "Is a directory"),
        (["itm", "--matrix", "{missing}", "--initial", "50,50"], "missing.csv"),
        (["diffuse", *NETWORK_SMALL, "--edges", "{missing}"], "missing.csv"),
        # bytes that are not UTF-8 text
        (["rankfit", "--input", "{binary}"], "binary.csv: not utf-8 text"),
        (["forecast", "--input", "{binary}", "--reference", "explorer", "--epoch", "2012-03"],
         "binary.csv: not utf-8 text"),
        (["itm", "--matrix", "{binary}", "--initial", "50,50"], "binary.csv: not utf-8 text"),
        (["diffuse", *NETWORK_SMALL, "--edges", "{binary}"], "binary.csv: not utf-8 text"),
    ], ids=["walkers-seed", "walkers-sigma", "walkers-drift", "walkers-dt", "walkers-n",
            "sfin-seed", "diffuse-seed", "diffuse-processes", "diffuse-density-negative",
            "diffuse-density-inf", "itm-t-end", "itm-dt", "itm-dt-tiny", "itm-dt-subnormal",
            "itm-t-end-huge", "itm-t-end-partial-step", "itm-dt-huge", "itm-matrix-empty",
            "itm-matrix-non-numeric", "itm-matrix-antisymmetric-huge",
            "itm-initial-zero-diagonal", "itm-initial-zero-coupled", "rankfit-drop-top",
            "rankfit-x0-nan", "rankfit-x0-inf",
            "diffuse-edges-header-only", "diffuse-edges-non-integer",
            "diffuse-edges-underscore", "diffuse-edges-quoted", "forecast-epoch-month",
            "forecast-epoch-text", "forecast-horizon-negative", "forecast-share-nan",
            "forecast-share-inf", "forecast-share-nan-then-malformed",
            "forecast-n-prime-factor-inf",
            "forecast-n-prime-factor-huge", "forecast-n-prime-factor-subnormal", "out-existing-file",
            "rankfit-input-directory", "forecast-input-directory", "itm-matrix-directory",
            "diffuse-edges-directory", "itm-matrix-missing", "diffuse-edges-missing",
            "rankfit-input-not-utf8", "forecast-input-not-utf8", "itm-matrix-not-utf8",
            "diffuse-edges-not-utf8"])
    @pytest.mark.filterwarnings("error")
    def test_exits_2_with_message(self, tmp_path, capsys, argv, word):
        matrix = tmp_path / "k.csv"
        io.write_matrix(matrix, np.diag([0.0, 0.4]))
        matrix_empty = tmp_path / "matrix_empty.csv"
        matrix_empty.write_text("")
        matrix_non_numeric = tmp_path / "matrix_non_numeric.csv"
        matrix_non_numeric.write_text("0.0,0.1\n0.1,x\n")
        matrix_antisymmetric = tmp_path / "matrix_antisymmetric.csv"
        matrix_antisymmetric.write_text("0,1e200\n-1e200,0\n")
        matrix_coupled = tmp_path / "matrix_coupled.csv"
        io.write_matrix(matrix_coupled, np.array([[0.0, 0.3], [0.3, 0.4]]))
        populations = tmp_path / "pops.csv"
        model = solve_lambda(6e5, 100, 150.0)
        write_population_csv(populations, analytic_rank(model, np.arange(1, 101.0)))
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("u,v\n")
        non_integer = tmp_path / "non_integer.csv"
        non_integer.write_text("u,v\n0,1\n1,x\n")
        underscore = tmp_path / "underscore.csv"
        underscore.write_text("u,v\n0,1\n1_0,2\n")
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('u,v\n0,1\n"1",2\n')
        shares = tmp_path / "s2.csv"
        write_share_csv(shares)
        shares_bytes = shares.read_bytes()
        # the first component of the second data row, on line 3
        header, first, second, *rest = shares_bytes.decode().splitlines(keepends=True)
        date, _, *others = second.split(",")
        for value in ("nan", "inf"):
            (tmp_path / f"shares_{value}.csv").write_text(
                "".join([header, first, ",".join([date, value, *others]), *rest]))
        (tmp_path / "shares_nan_then_malformed.csv").write_text(
            "".join([header, first, ",".join([date, "nan", *others]), "2012-xx,1,2,3\n",
                     *rest[1:]]))
        # 0x80, in the first line, cannot start a UTF-8 character
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\x7fELF" + bytes(range(256)))
        argv = [a.format(matrix=matrix, matrix_empty=matrix_empty,
                         matrix_non_numeric=matrix_non_numeric,
                         matrix_antisymmetric=matrix_antisymmetric,
                         matrix_coupled=matrix_coupled, populations=populations,
                         header_only=header_only, non_integer=non_integer,
                         underscore=underscore, quoted=quoted, shares=shares,
                         shares_nan=tmp_path / "shares_nan.csv",
                         shares_inf=tmp_path / "shares_inf.csv",
                         shares_nan_then_malformed=tmp_path / "shares_nan_then_malformed.csv",
                         directory=tmp_path, missing=tmp_path / "missing.csv", binary=binary)
                for a in argv]
        out = tmp_path / "out"
        if "--out" not in argv:
            argv += ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err
        # rejected before any work: nothing written
        assert not out.exists() or not any(out.iterdir())
        assert shares.read_bytes() == shares_bytes

    @pytest.mark.parametrize("argv, option", [
        (["diffuse", *NETWORK_SMALL, "--density-times", "1,x"], "--density-times"),
        (["itm", "--matrix", "k.csv", "--initial", "50,x"], "--initial"),
    ], ids=["density-times", "initial"])
    def test_number_lists_must_be_numbers(self, tmp_path, capsys, argv, option):
        # argparse rejects the list itself, naming the option and what it expects
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert option in err and "comma-separated numbers" in err
        assert "<lambda>" not in err
        assert not out.exists()

    def test_density_times_parsed(self):
        args = build_parser().parse_args(["diffuse", "--seed", "1", "--density-times", "1,2.5"])
        assert args.density_times == [1.0, 2.5]


# every numeric option of every subcommand, each on a tiny base configuration
SWEEP = {
    "walkers": (["walkers", "--seed", "1", "--n", "10", "--total", "10000", "--floor", "50",
                 "--burn-in", "10", "--sample-every", "2", "--samples", "2"],
                ["--seed", "--n", "--total", "--floor", "--dt", "--sigma", "--drift",
                 "--burn-in", "--sample-every", "--samples"]),
    "rankfit": (["rankfit", "--input", "{populations}"], ["--x0", "--drop-top"]),
    "sfin": (["sfin", "--seed", "1", "--nodes", "60", "--max-degree", "10"],
             ["--seed", "--nodes", "--max-degree", "--min-degree"]),
    "diffuse": (["diffuse", *NETWORK_SMALL[:-1], "40"],
                ["--seed", "--nodes", "--max-degree", "--min-degree", "--processes",
                 "--density-times"]),
    "forecast": (["forecast", "--input", "{shares}", "--reference", "explorer",
                  "--epoch", "2012-03", "--horizon", "3"], ["--horizon", "--n-prime-factor"]),
    "itm": (["itm", "--matrix", "{matrix}", "--initial", "50,50", "--t-end", "0.1",
             "--dt", "0.01"], ["--initial", "--t-end", "--dt"]),
}


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep_inputs")
    files = {"populations": base / "pops.csv", "shares": base / "shares.csv",
             "matrix": base / "k.csv"}
    write_population_csv(files["populations"],
                         analytic_rank(solve_lambda(6e5, 100, 150.0), np.arange(1, 101.0)))
    write_share_csv(files["shares"])
    io.write_matrix(files["matrix"], np.diag([0.0, 0.4]))
    return {k: str(v) for k, v in files.items()}


class TestBadValueSweep:
    @pytest.mark.parametrize("command, option",
                             [(c, o) for c, (_, options) in SWEEP.items() for o in options])
    @pytest.mark.filterwarnings("error")
    def test_no_traceback_and_no_output_on_exit_2(self, tmp_path, capsys, sweep_inputs,
                                                  command, option):
        base = [a.format(**sweep_inputs) for a in SWEEP[command][0]]
        for i, value in enumerate(["0", "-1", "-0.0", "nan", "inf", "-inf",
                                   "5e-324", "1e-300", "1e300"]):
            out = tmp_path / str(i)
            # "--opt=value": argparse would read a bare "-inf" as an option
            argv = base + [f"{option}={value}", "--out", str(out)]
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value
                code = exc.code
            capsys.readouterr()
            assert code in (0, 2, 3), argv
            if code in (2, 3):
                assert not out.exists() or not any(out.iterdir()), argv


class TestNumericalFailure:
    @pytest.mark.parametrize("argv, word", [
        (["sfin", "--seed", "0", "--nodes", "2", "--max-degree", "2", "--min-degree", "2"],
         "not graphical"),
        # the graph builds, but its degrees give no slope estimate
        (["sfin", "--seed", "1", "--nodes", "60", "--max-degree", "4"], "degree bins"),
        (["diffuse", "--seed", "1", "--nodes", "300", "--max-degree", "4", "--processes", "40"],
         "degree bins"),
    ], ids=["sfin-not-graphical", "sfin-no-degree-slope", "diffuse-no-degree-slope"])
    def test_degree_failures_exit_3(self, tmp_path, capsys, argv, word):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 3
        # diffuse warns about the graph's components first
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("numerical failure: ") and word in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.filterwarnings("error")
    def test_overflowing_walker_step_exit_3(self, tmp_path, capsys):
        argv = ["walkers", "--seed", "1", "--n", "20", "--total", "60000", "--sigma", "1e4",
                "--burn-in", "5", "--sample-every", "1", "--samples", "2"]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert not out.exists() or not any(out.iterdir())
