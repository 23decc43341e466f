"""End-to-end command-line runs against the shipped fixture graphs."""
from __future__ import annotations

import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphspectra import bounds, cli
from graphspectra.cli import main
from graphspectra.solver import compute_spectra

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SRC = ROOT / "src"  # the subprocesses below import the checkout from their cwd


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestSpectrum:
    def test_interval_neumann_table(self, tmp_path):
        code, out = run_cli(
            ["spectrum", "--graph", str(FIXTURES / "interval.json"),
             "--sigma", "0", "--nmax", "5"],
            tmp_path,
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["n", "k_n", "lambda_n", "multiplicity"]
        assert len(rows) == 5
        assert float(rows[0][1]) == 0.0
        assert float(rows[1][1]) == pytest.approx(math.pi, rel=1e-12)
        assert all(r[3] == "1" for r in rows)

    def test_kmax_mode(self, tmp_path):
        code, out = run_cli(
            ["spectrum", "--graph", str(FIXTURES / "interval.json"),
             "--sigma", "0", "--kmax", "10"],
            tmp_path,
        )
        assert code == 0
        _, rows = read_rows(out)
        ks = [float(r[1]) for r in rows]
        assert ks == pytest.approx([0.0, math.pi, 2 * math.pi, 3 * math.pi])

    @pytest.mark.parametrize(
        "fixture", ["interval", "star_incommensurate", "star_equilateral", "tetrahedron"]
    )
    def test_kmax_prints_the_nmax_rows_up_to_kmax(self, fixture, capsys):
        # a k_max spectrum runs on to k_cap; its table stops at k_max
        graph = str(FIXTURES / f"{fixture}.json")
        assert main(["spectrum", "--graph", graph, "--nmax", "80"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert float(rows[-1].split(",")[1]) > 15.0
        assert main(["spectrum", "--graph", graph, "--kmax", "15"]) == 0
        below = [row for row in rows if float(row.split(",")[1]) <= 15.0]
        assert capsys.readouterr().out.splitlines() == [header, *below]

    def test_sigma_override_changes_spectrum(self, tmp_path):
        code, out = run_cli(
            ["spectrum", "--graph", str(FIXTURES / "interval.json"),
             "--nmax", "3"],
            tmp_path,
        )
        assert code == 0
        _, rows = read_rows(out)
        # the file couples vertex 0 at sigma=1: no zero mode, k tan k = 1
        assert float(rows[0][1]) == pytest.approx(0.8603335890193797, abs=1e-10)

    def test_equilateral_multiplicities(self, tmp_path):
        code, out = run_cli(
            ["spectrum", "--graph", str(FIXTURES / "star_equilateral.json"),
             "--sigma", "0", "--nmax", "6"],
            tmp_path,
        )
        assert code == 0
        _, rows = read_rows(out)
        mults = [r[3] for r in rows]
        assert mults == ["1", "3", "3", "3", "1", "3"]

    def test_nmax_kmax_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--graph", str(FIXTURES / "interval.json"),
                  "--nmax", "5", "--kmax", "3.0"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flag", [["--window", "5"], ["--step-scale", "0.5"], ["--tol", "1e-6"]]
    )
    def test_unknown_flags_rejected(self, flag):
        # --window belongs to rng alone, and neither the scan step nor the
        # stop width is a setting
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--graph", str(FIXTURES / "interval.json"),
                  "--nmax", "5", *flag])
        assert err.value.code == 2

    # --kmax=inf ended in an OverflowError traceback
    @pytest.mark.parametrize("flag", ["--kmax=inf", "--kmax=nan"])
    def test_bad_ceiling_exits_1(self, flag, tmp_path, capsys):
        args = ["spectrum", "--graph", str(FIXTURES / "star_incommensurate.json"), flag]
        code, out = run_cli(args, tmp_path)
        assert code == 1
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


class TestRng:
    def test_interval_table(self, tmp_path):
        code, out = run_cli(
            ["rng", "--graph", str(FIXTURES / "interval.json"),
             "--nmax", "25", "--window", "5"],
            tmp_path,
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["n", "d_n", "d_n_normalized", "running_avg",
                          "arctan_pred", "gap_bound", "improved_bound"]
        assert len(rows) == 25
        # theoretical mean on the interval with one coupled end is 2 sigma
        assert float(rows[10][2]) == pytest.approx(float(rows[10][1]) / 2.0)
        assert float(rows[0][4]) == 0.0  # prediction vanishes at k=0
        assert rows[0][6] == "NA"  # zero mode sits below the refined threshold
        assert all(float(r[5]) == 2.0 for r in rows)

    def test_cluster_companion_written(self, tmp_path):
        code, out = run_cli(
            ["rng", "--graph", str(FIXTURES / "star_equilateral.json"),
             "--nmax", "40"],
            tmp_path,
            name="gaps.csv",
        )
        assert code == 0
        side = tmp_path / "gaps.clusters.csv"
        header, rows = read_rows(side)
        assert header == ["value", "count"]
        # three quarters of the gaps vanish identically
        assert float(rows[0][0]) == pytest.approx(0.0, abs=1e-10)
        assert int(rows[0][1]) == 30

    def test_companion_sits_beside_an_extensionless_out(self, tmp_path):
        # a dot in a directory name is no extension
        (tmp_path / "results.v2").mkdir()
        code, out = run_cli(
            ["rng", "--graph", str(FIXTURES / "star_incommensurate.json"),
             "--nmax", "40"],
            tmp_path,
            name="results.v2/gaps",
        )
        assert code == 0
        header, _ = read_rows(tmp_path / "results.v2" / "gaps.clusters")
        assert header == ["value", "count"]
        assert sorted(p.name for p in (tmp_path / "results.v2").iterdir()) == [
            "gaps", "gaps.clusters"
        ]

    def test_shared_roots_give_zero_gaps(self, tmp_path):
        # on the equilateral 4-star three of every four eigenvalues vanish
        # at the coupled center and stay put: each gap is exactly 0, none
        # negative, as interlacing requires
        code, out = run_cli(
            ["rng", "--graph", str(FIXTURES / "star_equilateral.json"),
             "--nmax", "300"],
            tmp_path,
        )
        assert code == 0
        _, rows = read_rows(out)
        gaps = [float(r[1]) for r in rows]
        assert gaps.count(0.0) == 225
        assert min(gaps) >= 0.0

    def test_gaps_judged_at_their_error(self, tmp_path, capsys, monkeypatch):
        # the interval's gaps approach the sharp flat bound 2 sigma / |G|,
        # which is no violation at their error bars; the bound scaled by
        # 0.99 is violated
        args = ["rng", "--graph", str(FIXTURES / "interval.json"), "--nmax", "300"]
        code, _ = run_cli(args, tmp_path)
        assert code == 0
        gap_bound = bounds.gap_bound
        monkeypatch.setattr(
            bounds, "gap_bound", lambda decomp, robin: 0.99 * gap_bound(decomp, robin)
        )
        code, _ = run_cli(args, tmp_path)
        assert code == 1
        assert "bound violation" in capsys.readouterr().err

    def test_requires_positive_sigma(self, tmp_path, capsys):
        code, _ = run_cli(
            ["rng", "--graph", str(FIXTURES / "interval.json"), "--sigma", "0",
             "--nmax", "10"],
            tmp_path,
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_even_window_rejected(self, tmp_path, capsys):
        code, _ = run_cli(
            ["rng", "--graph", str(FIXTURES / "interval.json"),
             "--nmax", "10", "--window", "4"],
            tmp_path,
        )
        assert code == 1
        assert "odd" in capsys.readouterr().err


class TestWeyl:
    def test_star_rows(self, tmp_path):
        code, out = run_cli(
            ["weyl", "--graph", str(FIXTURES / "star_incommensurate.json"),
             "--nmax", "40"],
            tmp_path,
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["quantity", "measured", "predicted", "rel_error"]
        # 2 count rows + 5 vertices + 8 slots + 28 slot pairs
        assert len(rows) == 43
        table = {r[0]: r for r in rows}
        assert float(table["n_used"][1]) == 40.0
        assert table["n_used"][2] == "NA"
        total = 1.0 + 1.224744871391589 + 1.5811388300841895 + 1.8708286933869707
        assert float(table["vertex_sq_0"][2]) == pytest.approx(2.0 / (4.0 * total))
        assert float(table["slot_sq_0"][2]) == pytest.approx(1.0 / (2.0 * total))
        assert float(table["cross_0_1"][2]) == 0.0

    def test_no_simple_positive_eigenvalue_exits_1(self, tmp_path, capsys):
        code, out = run_cli(
            ["weyl", "--graph", str(FIXTURES / "star_equilateral.json"),
             "--sigma", "0", "--nmax", "3"],
            tmp_path,
        )
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.startswith("error: no simple positive eigenvalue")


class TestCdf:
    def test_sections_and_area(self, tmp_path):
        code, out = run_cli(
            ["cdf", "--graph", str(FIXTURES / "interval.json"), "--nmax", "30"],
            tmp_path,
        )
        assert code == 0
        _, rows = read_rows(out)
        kinds = {r[0] for r in rows}
        assert kinds == {"cdf", "hist", "support"}
        cdf_rows = [r for r in rows if r[0] == "cdf"]
        assert float(cdf_rows[-1][3]) == 1.0
        values = [float(r[3]) for r in cdf_rows]
        assert values == sorted(values)
        hist_rows = [r for r in rows if r[0] == "hist"]
        area = sum((float(r[2]) - float(r[1])) * float(r[3]) for r in hist_rows)
        assert area == pytest.approx(1.0, rel=1e-12)
        (support,) = [r for r in rows if r[0] == "support"]
        assert float(support[1]) < float(support[2])


    @pytest.mark.parametrize("command", ["rng", "cdf"])
    def test_solver_settings_reach_both_spectra(self, command, tmp_path, monkeypatch):
        # one solver pass computes the Neumann and the coupled spectrum
        seen = []

        def recording(graph, robins, **kwargs):
            seen.append((tuple(robin.sigma > 0.0 for robin in robins), kwargs))
            return compute_spectra(graph, robins, **kwargs)

        monkeypatch.setattr(cli, "compute_spectra", recording)
        code, _ = run_cli(
            [command, "--graph", str(FIXTURES / "interval.json"), "--nmax", "30"], tmp_path
        )
        assert code == 0
        assert seen == [((False, True), {"n_max": 30, "k_max": None})]

    def test_top_gap_at_the_ceiling_is_no_violation(self, tmp_path, monkeypatch):
        # cdf checks the ceiling 4 sigma / l_min with the slack rng uses
        args = ["cdf", "--graph", str(FIXTURES / "interval.json"), "--nmax", "30",
                "--format", "json"]
        code, out = run_cli(args, tmp_path, name="first.json")
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        (top,) = [r[1] for r in rows if r[0] == "support"]
        monkeypatch.setattr(cli, "shortest_edge_bound", lambda graph, robin: top)
        code, _ = run_cli(args, tmp_path, name="second.json")
        assert code == 0


class TestIndexTarget:
    @pytest.mark.parametrize("command", ["rng", "weyl", "cdf", "sensitivity"])
    def test_statistics_take_no_kmax(self, command, capsys):
        # the statistics pair spectra by index: --kmax was offered, then
        # refused at run time with exit 1
        with pytest.raises(SystemExit) as err:
            main([command, "--graph", str(FIXTURES / "interval.json"), "--kmax", "5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --kmax 5" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        help_text = capsys.readouterr().out
        assert "--nmax" in help_text and "--kmax" not in help_text


class TestDefaultTarget:
    @pytest.mark.parametrize("command", ["spectrum", "weyl", "sensitivity"])
    def test_neither_nmax_nor_kmax_means_2500(self, command, tmp_path):
        code, out = run_cli(
            [command, "--graph", str(FIXTURES / "interval.json")], tmp_path
        )
        assert code == 0
        header, rows = read_rows(out)
        if command == "weyl":
            assert rows[0][:2] == ["n_used", "2500"]
        else:
            assert len(rows) == 2500 and rows[-1][0] == "2500"


class TestSensitivity:
    def test_equilateral_flags_and_sharp_bound(self, tmp_path):
        code, out = run_cli(
            ["sensitivity", "--graph", str(FIXTURES / "star_equilateral.json"),
             "--nmax", "6"],
            tmp_path,
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["n", "lambda_n", "sensitivity", "prediction",
                          "bound", "degenerate"]
        assert [r[5] for r in rows] == ["0", "1", "1", "1", "0", "1"]
        # the symmetric branch saturates the bound on an equilateral star
        assert float(rows[0][2]) == pytest.approx(float(rows[0][4]), rel=1e-10)
        assert float(rows[1][2]) == pytest.approx(0.0, abs=1e-20)

    def test_neumann_slope_row(self, tmp_path):
        code, out = run_cli(
            ["sensitivity", "--graph", str(FIXTURES / "interval.json"),
             "--sigma", "0", "--nmax", "3"],
            tmp_path,
        )
        assert code == 0
        _, rows = read_rows(out)
        assert float(rows[0][1]) == 0.0
        assert float(rows[0][2]) == pytest.approx(1.0, rel=1e-12)
        assert rows[0][3] == "NA" and rows[0][4] == "NA"


    # a 1:3:5 star coupled at its centre: its doubles sit where the stub
    # poles of all three leaves meet
    RATIONAL_STAR = {
        "vertices": 4,
        "edges": [{"u": 0, "v": j + 1, "len": r} for j, r in enumerate((1.0, 3.0, 5.0))],
        "robin": {"vertices": [0], "sigma": 2.0},
    }

    @pytest.mark.parametrize(
        "name, svds",
        [
            ("interval", 0),
            # the two records that fall back from the closed form
            ("star_incommensurate", 2),
            # the triples at the stub poles, 75 of the 150 records, too
            ("star_equilateral", 0),
            ("star_rational", 0),
            # one per record: the eigenbasis reuses the one the certification took
            ("tetrahedron", 300),
        ],
    )
    def test_svd_matrices_of_the_eigenbasis(self, name, svds, tmp_path, svd_matrices):
        # a simple record of a star takes its kernel in closed form, and a
        # multiple one at a stub pole too; every other record one SVD of A(k)
        graph = FIXTURES / f"{name}.json"
        if name == "star_rational":
            graph = tmp_path / "star_rational.json"
            graph.write_text(json.dumps(self.RATIONAL_STAR))
        code, _ = run_cli(["sensitivity", "--graph", str(graph), "--nmax", "300"], tmp_path)
        assert code == 0
        assert svd_matrices[0] == svds

    # weyl solves only the simple records it averages, not the triples
    @pytest.mark.parametrize("name, svds", [("star_equilateral", 0), ("tetrahedron", 300)])
    def test_weyl_svd_matrices_of_the_eigenbasis(self, name, svds, tmp_path, svd_matrices):
        code, _ = run_cli(
            ["weyl", "--graph", str(FIXTURES / f"{name}.json"), "--nmax", "300"], tmp_path
        )
        assert code == 0
        assert svd_matrices[0] == svds


class TestNearDegenerateStar:
    # four edges 1e-8 apart in length: simple roots 1.76e-8 apart near
    # pi / 2, each inside the numerical kernel of its neighbours
    GRAPH = {
        "vertices": 5,
        "edges": [{"u": 0, "v": j, "len": 1.0 + 1e-8 * (j - 1)} for j in range(1, 5)],
        "robin": {"vertices": [0], "sigma": 1.0},
    }

    @pytest.mark.parametrize("command, n", [("sensitivity", "8"), ("weyl", "60")])
    def test_eigenfunction_commands_accept_the_spectrum(self, command, n, tmp_path):
        path = tmp_path / "star.json"
        path.write_text(json.dumps(self.GRAPH))
        code, _ = run_cli([command, "--graph", str(path), "--nmax", n], tmp_path)
        assert code == 0


class TestOutputDiscipline:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["rng", "--graph", str(FIXTURES / "star_equilateral.json"),
                "--nmax", "30"]
        _, first = run_cli(args, tmp_path, name="a.csv")
        _, second = run_cli(args, tmp_path, name="b.csv")
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.clusters.csv").read_bytes() == (
            tmp_path / "b.clusters.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "strings",
        [("vertex_sq_0", "cross_0_1"), ("a,b", 'say "hi"'), ("two\nlines", "cr\r"),
         ("", " padded ")],
        ids=["plain", "comma-quote", "newline", "empty"],
    )
    def test_column_formatting_matches_the_value_by_value_path(self, strings):
        # the table mixes Python and numpy ints and floats, NaN, None and
        # strings, some of which csv must quote
        rows = [
            (1, np.float64(1.0 / 3.0), None, strings[0], np.int64(7)),
            (np.int64(2), float("nan"), 2.5e-300, strings[1], True),
            (3, np.float64(-0.0), np.float64(np.inf), strings[0], np.int64(-1)),
        ]
        columns = ["n", "x", "y", "label", "m"]

        def value_by_value(columns, rows):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([cli._fmt(x) for x in row])
            return buf.getvalue()

        for cols, table in ((columns, rows), (columns[:1], [(s,) for s in strings]),
                            (columns[:2], [row[:2] for row in rows]), (columns, [])):
            assert cli._csv_text(cols, table) == value_by_value(cols, table)

    @given(
        st.lists(st.sampled_from(["float", "int", "str", "mixed"]), min_size=1, max_size=5),
        st.integers(0, 6),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_row_formats_match_the_cell_by_cell_oracle(self, kinds, size, data):
        # every column kind the commands write, NaN and None among floats
        # in some rows only, strings csv must quote, and columns of mixed
        # kinds: the row-wise formats give the bytes of _fmt cell by cell
        floats = st.one_of(
            st.floats(), st.floats().map(np.float64), st.none(), st.just(float("nan"))
        )
        ints = st.one_of(st.integers(), st.integers(-(2**63), 2**63 - 1).map(np.int64))
        cells = {
            "float": floats,
            "int": ints,
            "str": st.text(),
            "mixed": st.one_of(floats, ints, st.text(), st.booleans()),
        }
        table = [data.draw(st.lists(cells[kind], min_size=size, max_size=size)) for kind in kinds]
        rows = list(zip(*table))
        columns = [f"c{j}" for j in range(len(kinds))]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([cli._fmt(value) for value in row] for row in rows)
        assert cli._csv_text(columns, rows) == buf.getvalue()

    def test_consecutive_runs_carry_no_state(self, capsys):
        # one parser serves every run in a process; a run with --window
        # must leave the default of the next run alone
        args = ["rng", "--graph", str(FIXTURES / "star_incommensurate.json"), "--nmax", "30"]
        runs = ([*args, "--window", "5"], args)
        separate = [
            subprocess.run(
                [sys.executable, "-m", "graphspectra.cli", *run],
                capture_output=True, check=True, cwd=SRC,
            ).stdout
            for run in runs
        ]
        together = []
        for run in runs:
            assert main(run) == 0
            together.append(capsys.readouterr().out.encode())
        assert together == separate
        assert separate[0] != separate[1]

    def test_lf_line_endings(self, tmp_path):
        _, out = run_cli(
            ["spectrum", "--graph", str(FIXTURES / "interval.json"),
             "--nmax", "4"],
            tmp_path,
        )
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_json_format(self, tmp_path):
        code, out = run_cli(
            ["rng", "--graph", str(FIXTURES / "interval.json"), "--nmax", "12",
             "--window", "5", "--format", "json"],
            tmp_path,
            name="out.json",
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "n"
        assert len(payload["rows"]) == 12
        assert payload["rows"][0][6] is None  # NA as JSON null
        assert "clusters" in payload

    def test_stdout_default(self, capsys):
        code = main(["spectrum", "--graph", str(FIXTURES / "interval.json"),
                     "--sigma", "0", "--nmax", "3"])
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.splitlines()[0] == "n,k_n,lambda_n,multiplicity"

    def test_missing_file(self, tmp_path, capsys):
        code, _ = run_cli(
            ["spectrum", "--graph", str(tmp_path / "nope.json"), "--nmax", "3"],
            tmp_path,
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys):
        code, out = run_cli(
            ["spectrum", "--graph", str(FIXTURES / "interval.json"), "--nmax", "3"],
            tmp_path,
            name="missing/x.csv",
        )
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _ = run_cli(["spectrum", "--graph", str(bad), "--nmax", "3"], tmp_path)
        assert code == 1
        assert "error" in capsys.readouterr().err
        # valid JSON, but a Robin vertex that is no integer: not rounded to 0
        bad.write_text(
            '{"vertices": 2, "edges": [{"u": 0, "v": 1, "len": 1.0}], '
            '"robin": {"vertices": [0.6], "sigma": 1.0}}'
        )
        code, _ = run_cli(["spectrum", "--graph", str(bad), "--nmax", "3"], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: Robin vertex must be an integer, got 0.6\n"

    def test_huge_vertex_count_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        bad.write_text(
            '{"vertices": 1000000000000000000, "edges": [{"u": 0, "v": 1, "len": 1.0}]}'
        )
        code, _ = run_cli(["spectrum", "--graph", str(bad), "--nmax", "3"], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: vertex count 1000000000000000000 above the edge count plus one, 2: "
            "the graph cannot be connected\n"
        )

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "graphspectra.cli", "spectrum",
             "--graph", str(FIXTURES / "interval.json"), "--sigma", "0",
             "--nmax", "3", "--out", str(out)],
            capture_output=True,
            text=True,
            cwd=SRC,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_cli_import_leaves_scipy_out(self):
        # the command line and every other package module run on numpy alone
        probe = (
            "import importlib, pkgutil, sys, graphspectra, graphspectra.cli\n"
            "assert callable(graphspectra.cli.load_graph_file)\n"
            "for module in pkgutil.iter_modules(graphspectra.__path__):\n"
            "    importlib.import_module('graphspectra.' + module.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, cwd=SRC
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", ["cdf", "weyl", "sensitivity"])
    def test_commands_leave_numpy_ma_out(self, command):
        # a plain np.unique imports numpy.ma, about 15 ms and 2 MB a run
        argv = [command, "--graph", str(FIXTURES / "star_incommensurate.json"), "--nmax", "40"]
        probe = (
            "import contextlib, io, sys\n"
            "from graphspectra.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, 'numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, cwd=SRC
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]

    def test_runtime_dependencies_are_numpy_only(self):
        tomllib = pytest.importorskip("tomllib", reason="tomllib is new in 3.11")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

        def names(requirements):
            return [re.match(r"[A-Za-z0-9_.-]+", r).group() for r in requirements]

        assert names(project["dependencies"]) == ["numpy"]
        assert "scipy" in names(project["optional-dependencies"]["test"])
