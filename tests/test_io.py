"""The one column-wise writer: its bytes, its refusals, and its reuse of
columns that several files of one output tree share."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fgl_lab
from fgl_lab import io as fio
from fgl_lab.cli import _Result, _write_tree, main

ROOT = Path(__file__).resolve().parents[1]


def _reference_cell(v) -> str:
    """The per-cell rule the CSV writer has always followed."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _reference_table(header, columns) -> str:
    lines = [",".join(header)]
    lines += [",".join(_reference_cell(v) for v in row) for row in zip(*columns)]
    return "".join(line + "\n" for line in lines)


def _reference_curve(x, y) -> str:
    xs = np.asarray(x, dtype=float).ravel()
    ys = np.asarray(y, dtype=float).ravel()
    return "".join(f"{repr(float(a))} {repr(float(b))}\n" for a, b in zip(xs, ys))


SPECIALS = np.array([-0.0, 5e-324, 1e-320, 1e-5, 1e-4, 1e16, 0.1 + 0.2,
                     np.nan, np.inf, -np.inf])


class TestBytes:
    def test_columns_match_the_per_cell_rule(self, tmp_path):
        n = len(SPECIALS)
        mixed = [True, np.bool_(False), 3, np.int64(-4), 0.5, np.float32(0.1),
                 np.float64(1e16), "label", -0.0, float("inf")]
        columns = (
            SPECIALS,
            (SPECIALS * 1.7).astype(np.float32),
            SPECIALS.astype(np.longdouble),
            np.arange(-5, n - 5, dtype=np.int64),
            np.arange(n) % 3 == 0,
            mixed,
            [float(v) for v in SPECIALS],
        )
        header = [f"c{i}" for i in range(len(columns))]
        curves = [
            ("floats", "x", "y", "", SPECIALS, SPECIALS[::-1].copy()),
            ("float32", "x", "y", "", columns[1], SPECIALS),
            ("ints", "x", "y", "", [1, 2, 4, 8], np.array([3, 5, 7, 9])),
            ("shared", "x", "y", "", columns[3], SPECIALS),
        ]
        _write_tree(str(tmp_path), _Result("", {}, [("t.csv", header, columns)],
                                           curves))
        assert (tmp_path / "t.csv").read_text() == _reference_table(header, columns)
        for stem, _, _, _, x, y in curves:
            text = (tmp_path / "plots" / f"{stem}.dat").read_text()
            assert text == _reference_curve(x, y), stem
        ints = (tmp_path / "plots" / "ints.dat").read_text()
        assert ints.startswith("1.0 3.0\n")
        # the int64 column reads 3 in the table and 3.0 as a curve
        assert (tmp_path / "plots" / "shared.dat").read_text().startswith("-5.0 ")

    def test_empty_columns(self, tmp_path):
        fio.write_columns(str(tmp_path / "t.csv"), (np.array([]), []), ["a", "b"])
        fio.write_columns(str(tmp_path / "c.dat"), (np.array([]), []), sep=" ")
        assert (tmp_path / "t.csv").read_text() == "a,b\n"
        assert (tmp_path / "c.dat").read_text() == ""


class TestRefusals:
    def test_ragged_table(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=r"t\.csv: columns of unequal "
                                             r"length \[3, 2, 3\]"):
            fio.write_columns(str(path), (np.zeros(3), [1, 2], np.ones(3)),
                              ["a", "b", "c"])
        assert not path.exists()

    def test_ragged_curve(self, tmp_path):
        result = _Result("", {}, [], [("c", "x", "y", "", np.zeros(4), [1.0])])
        with pytest.raises(ValueError, match=r"c\.dat: columns of unequal "
                                             r"length \[4, 1\]"):
            _write_tree(str(tmp_path), result)
        assert not (tmp_path / "plots" / "c.dat").exists()

    def test_header_that_does_not_fit(self, tmp_path):
        with pytest.raises(ValueError, match="2 header names for 3 columns"):
            fio.write_columns(str(tmp_path / "t.csv"), ([1], [2], [3]), ["a", "b"])


def _csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _curve_lines(path):
    return Path(path).read_text().splitlines()


def _assert_float_cells(columns):
    for name, cells in columns.items():
        for c in cells:
            assert repr(float(c)) == c, (name, c)


class TestSharedColumns:
    def test_kernel_curves_repeat_the_table(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["kernel", "--out-dir", str(out), "--kernel.x_max", "250",
                     "--kernel.num_samples", "400",
                     "--kernel.num_nodes", "800"]) == 0
        capsys.readouterr()
        table = _csv_columns(out / "kernel.csv")
        _assert_float_cells(table)
        for stem, y in (("g_vs_x", "g"), ("envelope_vs_x", "envelope")):
            expected = [f"{a} {b}" for a, b in zip(table["x"], table[y])]
            assert _curve_lines(out / "plots" / f"{stem}.dat") == expected

    def test_series_curves_repeat_the_table(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--out-dir", str(out),
                     "--grid.half_length", "10", "--grid.points", "64",
                     "--evolution.profile", "constant",
                     "--evolution.amplitude", "2", "--evolution.dt_max", "1e-3",
                     "--evolution.t_max", "1"]) == 0
        capsys.readouterr()
        table = _csv_columns(out / "series.csv")
        _assert_float_cells(table)
        curves = sorted((out / "plots").glob("*_vs_t.dat"))
        assert len(curves) == 4
        for path in curves:
            y = path.name[:-len("_vs_t.dat")]
            expected = [f"{a} {b}" for a, b in zip(table["t"], table[y])]
            assert _curve_lines(path) == expected, path.name

    @pytest.mark.parametrize("argv, distinct", [
        # kernel.csv's x, g and envelope, then the two bin-maxima columns
        (["kernel", "--kernel.x_max", "250", "--kernel.num_samples", "400",
          "--kernel.num_nodes", "800"], 5),
        # series.csv's 7 columns; the 4 curves reuse t and 4 of them
        (["simulate", "--grid.half_length", "10", "--grid.points", "64",
          "--evolution.t_max", "0.05"], 7),
    ])
    def test_each_column_is_formatted_once(self, tmp_path, monkeypatch, capsys,
                                           argv, distinct):
        calls = []
        original = fio._format_column

        def counted(column):
            calls.append(len(column))
            return original(column)

        monkeypatch.setattr(fio, "_format_column", counted)
        assert main(argv + ["--out-dir", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        assert len(calls) == distinct


SWEEP_ARGV = ["sweep", "--out-dir", "run", "--workers", "1",
              "--grid.half_length", "10", "--grid.points", "64",
              "--evolution.profile", "constant", "--evolution.amplitude", "2",
              "--evolution.dt_max", "1e-3", "--evolution.t_max", "1",
              "--sweep.r_values", "1,2,4"]


def test_tracer_installs_against_the_writers(tmp_path):
    # perfbench's tracer wraps every public io function and refuses to run
    # when a name it traces is gone; the per-cell helpers stay private, so
    # a traced run costs one io span per file, not one per cell.  Run in a
    # subprocess: install imports scipy.fft, which fgl_lab itself never does.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fgl_lab.__file__)))
    code = (
        "import collections, contextlib, io, json, fgl_lab.cli, fgl_lab.io\n"
        "from tracing import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = fgl_lab.cli.main({SWEEP_ARGV!r})\n"
        "tracer.set_active(False)\n"
        "names = collections.Counter(s[0] for s in tracer.spans)\n"
        "restored = (fgl_lab.cli.write_columns is fgl_lab.io.write_columns\n"
        "            and not hasattr(fgl_lab.io.write_columns, '__wrapped__'))\n"
        "print(json.dumps([code, restored, names]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    code, restored, names = json.loads(proc.stdout)
    assert code == 0
    assert restored
    io_spans = {k: v for k, v in names.items() if k.startswith("io.")}
    # sweep.csv, whose included column takes the per-cell rule, and
    # plots/t_detected_vs_R.dat; plots/index.json, summary.json and the
    # manifest's JSON
    assert io_spans == {"io.write_columns": 2, "io.write_json": 3,
                        "io.run_timestamp": 1, "io.RunManifest.write": 1}
