"""Config parsing and the command-line entry point, end to end."""

import inspect
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fgl_lab
from fgl_lab import OdeParams, SupercriticalError, blowup_time
from fgl_lab import cli
from fgl_lab.cli import main
from fgl_lab.config import SCHEMA, ConfigError, coerce_value, load_config


@pytest.fixture
def kappa_calls(monkeypatch):
    """(weight, grid, tol, warm) of every estimate_kappa call made through
    fgl_lab; warm is whether the call passed a start vector and no seed."""
    from fgl_lab import weights

    original = weights.estimate_kappa
    signature = inspect.signature(original)
    calls = []

    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        warm = (bound.arguments.get("start") is not None
                and "seed" not in bound.arguments)
        bound.apply_defaults()
        calls.append(tuple(bound.arguments[k] for k in ("w", "grid", "tol"))
                     + (warm,))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "fgl_lab" or name.startswith("fgl_lab."))
                and getattr(module, "estimate_kappa", None) is original):
            monkeypatch.setattr(module, "estimate_kappa", counted)
    return calls


class TestCoerce:
    def test_scalar_types(self):
        assert coerce_value("grid", "half_length", "12.5") == 12.5
        assert coerce_value("grid", "points", "128") == 128

    def test_float_lists(self):
        assert coerce_value("sweep", "r_values", "1, 2 4") == (1.0, 2.0, 4.0)

    def test_choices_are_normalized(self):
        assert coerce_value("evolution", "profile", "GAUSSIAN") == "gaussian"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            coerce_value("grid", "banana", "1")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            coerce_value("grid", "points", "many")
        with pytest.raises(ConfigError, match="bad value"):
            coerce_value("evolution", "profile", "sombrero")
        for section, key, text in (("evolution", "t_max", "inf"),
                                   ("evolution", "amplitude", "nan"),
                                   ("grid", "half_length", "-inf"),
                                   ("sweep", "r_values", "1,nan,4")):
            with pytest.raises(ConfigError,
                               match=rf"bad value for \[{section}\] {key}"):
                coerce_value(section, key, text)


class TestLoadConfig:
    def test_none_means_empty(self):
        assert load_config(None) == {}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[grid]\n"
            "half_length = 25.0   # half of the box\n"
            "points = 512\n"
            "[evolution]\n"
            "profile = constant\n"
            "amplitude = 2.0\n"
        )
        values = load_config(str(path))
        assert values == {
            "grid": {"half_length": 25.0, "points": 512},
            "evolution": {"profile": "constant", "amplitude": 2.0},
        }

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.cfg"))

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[freezer]\ntemp = 4\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[freezer\]"):
            load_config(str(path))

    def test_unknown_key_in_known_section(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[grid]\nspacing = 0.1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(path))

    def test_key_before_any_section(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("points = 64\n[grid]\n")
        with pytest.raises(ConfigError, match="does not parse"):
            load_config(str(path))

    def test_default_section_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[DEFAULT]\npoints = 64\n")
        with pytest.raises(ConfigError, match="outside any section"):
            load_config(str(path))


def _manifest_config(argv, out):
    """Run argv into out; return the configuration its manifest echoes."""
    assert main(argv + ["--out-dir", str(out)]) == 0
    return _read_json(out / "manifest.json")["config"]


def _refusal(argv, tmp_path, capsys):
    """Run argv, which must exit 1 and write nothing; return its stderr."""
    code = main(argv + ["--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert not (tmp_path / "o").exists()
    return capsys.readouterr().err


class TestOverrides:
    def test_dotted_pairs(self, tmp_path, capsys):
        # --section.key value and --section.key=value set the same key
        cfg = _manifest_config(["ode", "--ode.f0", "3.5", "--ode.q=3"],
                               tmp_path / "o")
        capsys.readouterr()
        assert (cfg["ode"]["f0"], cfg["ode"]["q"]) == (3.5, 3.0)

    def test_missing_value(self, tmp_path, capsys):
        err = _refusal(["ode", "--ode.f0"], tmp_path, capsys)
        assert err == "error: argument --ode.f0: expected one argument\n"

    def test_undotted_token(self, tmp_path, capsys):
        for token in ("--verbose", "stray"):
            err = _refusal(["ode", token], tmp_path, capsys)
            assert err == f"error: unrecognized arguments: {token}\n"

    def test_unknown_section(self, tmp_path, capsys):
        err = _refusal(["ode", "--disco.ball", "1"], tmp_path, capsys)
        assert err == "error: unrecognized arguments: --disco.ball 1\n"

    def test_bad_value(self, tmp_path, capsys):
        err = _refusal(["simulate", "--grid.points", "many"], tmp_path, capsys)
        assert err == ("error: bad value for [grid] points: invalid literal "
                       "for int() with base 10: 'many'\n")

    def test_negative_values(self, tmp_path, capsys):
        # a negative value in exponent notation reads as an option unless
        # it is joined to its flag by "="
        run = ["simulate", "--grid.half_length", "10", "--grid.points", "64",
               "--evolution.t_max", "0.1"]
        for i, tokens in enumerate((["--evolution.amplitude", "-2"],
                                    ["--evolution.amplitude=-1e-3"])):
            cfg = _manifest_config(run + tokens, tmp_path / str(i))
            assert cfg["evolution"]["amplitude"] == float(
                tokens[-1].rpartition("=")[2])
        capsys.readouterr()
        err = _refusal(run + ["--evolution.amplitude", "-1e-3"], tmp_path,
                       capsys)
        assert err == ("error: argument --evolution.amplitude: "
                       "expected one argument\n")


class TestResolve:
    def test_defaults_materialize_only_command_sections(self, tmp_path, capsys):
        cfg = _manifest_config(["ode"], tmp_path / "o")
        capsys.readouterr()
        assert tuple(cfg) == cli._COMMANDS["ode"][1]
        assert cfg["ode"]["c1"] == 1.0

    def test_file_beats_default_and_override_beats_file(self, tmp_path, capsys):
        path = tmp_path / "ode.cfg"
        path.write_text("[ode]\nf0 = 4.0\nq = 3.0\n")
        cfg = _manifest_config(["ode", "--config", str(path)], tmp_path / "a")
        assert (cfg["ode"]["f0"], cfg["ode"]["q"], cfg["ode"]["c1"]) == (
            4.0, 3.0, 1.0)
        cfg = _manifest_config(["ode", "--config", str(path), "--ode.f0", "2.0"],
                               tmp_path / "b")
        assert (cfg["ode"]["f0"], cfg["ode"]["q"], cfg["ode"]["c1"]) == (
            2.0, 3.0, 1.0)
        capsys.readouterr()

    def test_override_for_unused_section_is_an_error(self, tmp_path, capsys):
        err = _refusal(["ode", "--grid.points", "64"], tmp_path, capsys)
        assert err == "error: unrecognized arguments: --grid.points 64\n"

    def test_readme_command_lines_resolve(self, tmp_path, monkeypatch, capsys):
        # every `fgl` line in the README's sh blocks parses and resolves;
        # the handlers are stubbed, so nothing is computed
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")

        def blocks(lang):
            return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)

        (ini,) = [b for b in blocks("ini") if b.startswith("# run.ini")]
        (tmp_path / "run.ini").write_text(ini)
        monkeypatch.chdir(tmp_path)
        for name, (_, sections, help_text) in list(cli._COMMANDS.items()):
            monkeypatch.setitem(
                cli._COMMANDS, name,
                (lambda cfg, seed, workers: cli._Result("", {}, [], []),
                 sections, help_text))
        lines = [line for block in blocks("sh") for line in block.splitlines()
                 if line.startswith("fgl ")]
        assert lines
        for line in lines:
            assert main(shlex.split(line, comments=True)[1:]) == 0, line
        capsys.readouterr()


# ----------------------------------------------------------------------
# End-to-end command runs


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


SIM_ARGS = [
    "--grid.half_length", "10", "--grid.points", "64",
    "--evolution.profile", "constant", "--evolution.amplitude", "2",
    "--evolution.dt_max", "1e-3", "--evolution.t_max", "1",
]


class TestMainCommands:
    @staticmethod
    def assert_manifest_lists_tree(out):
        """The manifest names exactly the files on disk, itself included."""
        manifest = _read_json(out / "manifest.json")
        on_disk = {p.relative_to(out).as_posix()
                   for p in out.rglob("*") if p.is_file()}
        assert set(manifest["outputs"]) == on_disk
        return manifest

    def test_ode_defaults(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["ode", "--out-dir", str(out)]) == 0
        self.assert_manifest_lists_tree(out)
        assert capsys.readouterr().out.startswith("ode: blowup_time=")
        summary = _read_json(out / "summary.json")
        assert summary["blowup_time"] == pytest.approx(math.log(2.0))
        assert summary["equilibrium"] == 1.0
        t, f = np.loadtxt(out / "plots" / "f_vs_t.dat", unpack=True)
        assert t[0] == 0.0
        assert f[0] == 2.0
        assert np.all(np.diff(f) > 0)

    def test_ode_reads_config_file_and_overrides(self, tmp_path, capsys):
        cfgfile = tmp_path / "ode.cfg"
        cfgfile.write_text("[ode]\nf0 = 4.0\n")
        out1 = tmp_path / "a"
        assert main(["ode", "--config", str(cfgfile), "--out-dir", str(out1)]) == 0
        assert _read_json(out1 / "summary.json")["blowup_time"] == pytest.approx(
            math.log(4.0 / 3.0)
        )
        out2 = tmp_path / "b"
        assert main([
            "ode", "--config", str(cfgfile), "--ode.f0", "2.0",
            "--out-dir", str(out2),
        ]) == 0
        assert _read_json(out2 / "summary.json")["blowup_time"] == pytest.approx(
            math.log(2.0)
        )
        capsys.readouterr()

    def test_simulate_constant_blowup(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--out-dir", str(out)] + SIM_ARGS) == 0
        assert "simulate: blow-up at t=" in capsys.readouterr().out
        self.assert_manifest_lists_tree(out)
        summary = _read_json(out / "summary.json")
        assert summary["blew_up"] is True
        assert summary["t_detected"] == pytest.approx(0.5, abs=1e-3)
        assert summary["criterion"] == "sup_threshold"
        with open(out / "series.csv") as fh:
            header = fh.readline().strip()
        assert header == "t,dt,mass,h1,lp1,sup,Q_bracket_s1_R1"
        data = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 7
        assert np.all(np.diff(data[:, 0]) > 0)
        sup_t, sup = np.loadtxt(out / "plots" / "sup_vs_t.dat", unpack=True)
        assert sup[-1] >= 1e8

    def test_simulate_underflowing_rate_takes_dt_max(self, tmp_path, capsys):
        # |u0|^2 is normal, but sup**(p-1) underflows to 0: no step limit
        # and no singular substep, so all 100 steps take dt_max
        out = tmp_path / "run"
        assert main(["simulate", "--out-dir", str(out),
                     "--evolution.amplitude", "1e-130",
                     "--evolution.p", "3.5"]) == 0
        summary = _read_json(out / "summary.json")
        assert summary["blew_up"] is False
        assert summary["steps"] == 100
        capsys.readouterr()

    def test_simulate_refuses_a_state_that_disperses_below_normal(
            self, tmp_path, capsys):
        # |u0|^2 is normal, but the data disperse until max|u|^2 turns
        # subnormal at t = 0.95: a numerical failure, not a series
        out = tmp_path / "run"
        assert main(["simulate", "--out-dir", str(out),
                     "--evolution.amplitude", "2e-154",
                     "--evolution.p", "3.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "t = 0.95:" in err
        assert re.search(r"max\|u\| = 1\.\d{3}e-154", err)
        assert not (out / "series.csv").exists()

    def test_simulate_refuses_data_too_small_to_square(self, tmp_path, capsys):
        # |u0|^2 underflows to 0 (1e-200) or to a subnormal (1e-160), whose
        # sup and mass would lose digits, although u0 is nonzero
        for amplitude in ("1e-200", "1e-160"):
            out = tmp_path / amplitude
            assert main(["simulate", "--out-dir", str(out),
                         "--evolution.amplitude", amplitude,
                         "--evolution.p", "3.5",
                         "--evolution.t_max", "0.1"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert f"max|u0| = {float(amplitude):.3e}" in err
            assert not (out / "series.csv").exists()

    def test_manifest_lists_every_output(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--out-dir", str(out), "--seed", "7"] + SIM_ARGS) == 0
        manifest = _read_json(out / "manifest.json")
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert "manifest.json" in manifest["outputs"]
        for rel in manifest["outputs"]:
            assert (out / rel).is_file(), rel
        # the resolved config is embedded in full
        assert manifest["config"]["evolution"]["amplitude"] == 2.0
        assert manifest["config"]["grid"]["points"] == 64
        assert manifest["config"]["weights"]["exponent"] == 1.0

    def test_sweep_command(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "sweep", "--out-dir", str(out), "--workers", "1",
            "--grid.half_length", "10", "--grid.points", "64",
            "--evolution.profile", "constant", "--evolution.amplitude", "2",
            "--evolution.dt_max", "1e-3", "--evolution.t_max", "1",
            "--sweep.r_values", "1,2,4",
        ]) == 0
        assert "sweep: slope=" in capsys.readouterr().out
        manifest = self.assert_manifest_lists_tree(out)
        assert manifest["config"]["sweep"]["r_values"] == [1.0, 2.0, 4.0]
        summary = _read_json(out / "summary.json")
        assert summary["slope"] == pytest.approx(-1.0, abs=1e-4)
        assert summary["runs_included"] == 3
        assert summary["stability"]["stable"] is True
        rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1,
                          usecols=(0, 1))
        assert rows.shape == (3, 2)

    def test_commutator_command(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "commutator", "--out-dir", str(out),
            "--grid.half_length", "6.25", "--grid.points", "128",
        ]) == 0
        assert "commutator: slope=" in capsys.readouterr().out
        self.assert_manifest_lists_tree(out)
        summary = _read_json(out / "summary.json")
        assert summary["slope"] == pytest.approx(-1.0, abs=0.01)
        assert summary["kappa_times_r_spread"] < 5e-3

    def test_kernel_command(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "kernel", "--out-dir", str(out), "--kernel.num_nodes", "3200",
        ]) == 0
        assert "kernel: slope=" in capsys.readouterr().out
        self.assert_manifest_lists_tree(out)
        summary = _read_json(out / "summary.json")
        assert summary["slope"] <= -1.8
        assert summary["shifted_slope"] <= -1.8
        assert summary["constant"] > 0
        x, g, env = np.loadtxt(out / "kernel.csv", delimiter=",", skiprows=1,
                               unpack=True)
        assert np.allclose(env, np.abs(g) * (1 + x**2), rtol=1e-12)

    def test_threshold_command(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "threshold", "--out-dir", str(out),
            "--grid.half_length", "12.5", "--grid.points", "256",
            "--evolution.amplitude", "0.9",
        ]) == 0
        assert "threshold: R0=" in capsys.readouterr().out
        self.assert_manifest_lists_tree(out)
        summary = _read_json(out / "summary.json")
        assert summary["r0"] == 2.0
        assert "bound_condition_met" not in summary
        assert summary["doublings_tried"] == 2

    def test_threshold_estimates_kappa_once_per_dilation(self, tmp_path,
                                                          kappa_calls, capsys):
        out = tmp_path / "run"
        assert main([
            "threshold", "--out-dir", str(out),
            "--grid.half_length", "50", "--grid.points", "1024",
            "--evolution.amplitude", "0.3", "--evolution.p", "1.5",
        ]) == 0
        capsys.readouterr()
        summary = _read_json(out / "summary.json")
        assert summary["r0"] == 2.0
        # kappa at R = 1 on (50, 1024), its domain doubling on (100, 2048)
        # and its dx refinement on (50, 2048); the R = 2 row is kappa_1 / 2.
        # The checks solve at budget / 100: 5% / 100 and 1e-3 / 100, both
        # started from the base Ritz vector.
        assert len(kappa_calls) == 3
        assert sorted((g.half_length, g.points, tol, warm)
                      for _, g, tol, warm in kappa_calls) == [
            (50.0, 1024, 1e-8, False), (50.0, 2048, 1e-5, True),
            (100.0, 2048, 5e-4, True)]
        assert summary["stability"]["label"] == "kappa(R=1)"
        assert summary["refinement"]["stable"] is True
        kappas = np.loadtxt(out / "threshold.csv", delimiter=",", skiprows=1,
                            usecols=1)
        assert summary["kappa_base"] == kappas[0]

    def test_commutator_solves_kappa_three_times(self, tmp_path, kappa_calls,
                                                 capsys):
        out = tmp_path / "run"
        assert main([
            "commutator", "--out-dir", str(out),
            "--grid.half_length", "12.5", "--grid.points", "256",
        ]) == 0
        capsys.readouterr()
        # kappa at R = 1, its dx refinement and its domain doubling for the
        # four rungs: rung R is kappa_1 / R, and no solve runs above 2N.
        # Both re-solves start from the base Ritz vector.
        assert sorted((g.half_length, g.points, tol, warm)
                      for _, g, tol, warm in kappa_calls) == [
            (12.5, 256, 1e-8, False), (12.5, 512, 1e-5, True),
            (25.0, 512, 5e-4, True)]
        summary = _read_json(out / "summary.json")
        assert summary["kappa_times_r_spread"] == 0.0
        assert summary["stability"]["stable"] is True
        assert summary["refinement"]["stable"] is True

    def test_bounds_command(self, tmp_path, kappa_calls, capsys):
        out = tmp_path / "run"
        assert main([
            "bounds", "--out-dir", str(out),
            "--grid.half_length", "25", "--grid.points", "512",
            "--evolution.amplitude", "3", "--evolution.dt_max", "0.01",
            "--evolution.t_max", "2",
        ]) == 0
        # kappa at the default tolerance, cold, then its domain doubling at
        # 5% / 100, started from the base Ritz vector
        assert [(g.half_length, g.points, tol, warm)
                for _, g, tol, warm in kappa_calls] == [
            (25.0, 512, 1e-8, False), (50.0, 1024, 5e-4, True)]
        assert "bounds: t_detected=" in capsys.readouterr().out
        self.assert_manifest_lists_tree(out)
        summary = _read_json(out / "summary.json")
        assert summary["blew_up"] is True
        assert summary["t_detected"] <= summary["lifespan_bound"]
        assert summary["lower_margins_ok"] is True
        assert summary["growth_margins_ok"] is True

    def test_bounds_runs_at_its_defaults(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["bounds", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        summary = _read_json(out / "summary.json")
        assert summary["blew_up"] is True
        assert summary["lower_margins_ok"] is True
        assert summary["growth_margins_ok"] is True

    def test_bounds_records_only_its_own_weight(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([
            "bounds", "--out-dir", str(out), "--weights.exponent", "0.75",
            "--evolution.amplitude", "4", "--grid.half_length", "100",
            "--grid.points", "2048", "--evolution.dt_max", "0.01",
        ]) == 0
        capsys.readouterr()
        with open(out / "series.csv") as fh:
            header = fh.readline().strip().split(",")
        assert [c for c in header if c.startswith("Q_")] == ["Q_bracket_s0.75_R1"]
        assert [p.name for p in (out / "plots").glob("Q_*_vs_t.dat")] == [
            "Q_bracket_s0.75_R1_vs_t.dat"]

    def test_default_out_dir_is_cwd_relative(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["ode"]) == 0
        assert (tmp_path / "fgl-out" / "summary.json").is_file()
        capsys.readouterr()


def _run_twice(argv, out):
    """Run argv twice into out; return the two output trees as {path: bytes}."""

    def snapshot():
        files = {}
        for root, _, names in os.walk(out):
            for name in names:
                full = os.path.join(root, name)
                with open(full, "rb") as fh:
                    files[os.path.relpath(full, out)] = fh.read()
        return files

    assert main(argv) == 0
    first = snapshot()
    assert main(argv) == 0
    return first, snapshot()


class TestDeterminism:
    def test_repeat_run_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out = tmp_path / "run"
        argv = ["simulate", "--out-dir", str(out), "--seed", "3"] + SIM_ARGS
        first, second = _run_twice(argv, out)
        capsys.readouterr()
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], f"{rel} differs between runs"

    def test_kernel_repeat_run_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        # kernel.csv is fed by BLAS matrix products
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out = tmp_path / "run"
        argv = ["kernel", "--out-dir", str(out)]
        first, second = _run_twice(argv, out)
        capsys.readouterr()
        assert "kernel.csv" in first
        assert first == second

    def test_manifest_timestamp_honors_epoch(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out = tmp_path / "run"
        assert main(["ode", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        manifest = _read_json(out / "manifest.json")
        assert manifest["timestamp"] == "1970-01-01T00:00:00+00:00"


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["ode", "--config", str(tmp_path / "nope.cfg"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_override_key(self, tmp_path, capsys):
        # [ode] volume never existed; the other keys were removed.  Every
        # command that reads the section refuses the key.
        removed = [("evolution", key)
                   for key in ("theta", "dt_min", "sup_threshold", "center",
                               "linear_only")]
        removed += [("grid", "dim"), ("grid", "point")]  # no abbreviations
        removed += [("ode", key) for key in ("volume", "num_samples", "t_fraction")]
        removed += [("kernel", key)
                    for key in ("x_min", "x_max", "num_samples", "window_lo",
                                "window_hi", "shifted_lo", "shifted_hi",
                                "num_bins")]
        # the [threshold], [bounds] and [commutator] sections are gone with
        # their keys: no command reads them
        removed += [("commutator", "r_values"), ("commutator", "tol"),
                    ("threshold", "max_doublings"), ("threshold", "kappa_tol"),
                    ("bounds", "kappa_tol"), ("bounds", "variant"),
                    ("bounds", "required_margin")]
        read = {name: cli._row_keys(entries)
                for name, (_, entries, _) in cli._COMMANDS.items()}
        for section, key in removed:
            commands = [name for name, keys in read.items()
                        if section in dict(keys)] or list(cli._COMMANDS)
            for command in commands:
                err = _refusal([command, f"--{section}.{key}", "1"], tmp_path,
                               capsys)
                assert err == (f"error: unrecognized arguments: "
                               f"--{section}.{key} 1\n")
        # a key of the schema that the command's row does not list, such
        # as threshold's evolution.t_max, is refused the same way
        assert ("evolution", "t_max") not in read["threshold"]
        for command, keys in read.items():
            for section, key in ((s, k) for s in SCHEMA for k in SCHEMA[s]):
                if (section, key) not in keys:
                    err = _refusal([command, f"--{section}.{key}", "1"],
                                   tmp_path, capsys)
                    assert err == (f"error: unrecognized arguments: "
                                   f"--{section}.{key} 1\n")

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "simulate" in capsys.readouterr().out

    def test_numerical_refusal_exits_two(self, tmp_path, capsys):
        code = main([
            "bounds", "--out-dir", str(tmp_path / "o"),
            "--grid.half_length", "20", "--grid.points", "256",
            "--evolution.amplitude", "0.2", "--evolution.t_max", "0.5",
        ])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
    def test_any_arithmetic_error_exits_two(self, tmp_path, monkeypatch,
                                            capsys, error):
        def fail(cfg, seed, workers):
            raise error("0.0 ** -1")

        monkeypatch.setitem(cli._COMMANDS, "ode",
                            (fail, cli._COMMANDS["ode"][1], "fails"))
        assert main(["ode", "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "numerical failure: 0.0 ** -1\n"

    def test_refusals_are_not_numerical_errors(self):
        from fgl_lab.errors import NumericalError

        assert not issubclass(ConfigError, NumericalError)
        assert not issubclass(SupercriticalError, NumericalError)

    def test_ode_where_c1_over_c2_underflows(self, tmp_path, capsys):
        # c1/c2 = 1e-600 underflows: T* = f0^(1-q)/(c2 (q-1)) = 5e-301 in
        # logs, and the closed form names its overflowing coefficient.
        params = OdeParams(c1=1e-300, c2=1e300, q=2.0, f0=2.0)
        assert blowup_time(params) == pytest.approx(5e-301, rel=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["ode", "--out-dir", str(tmp_path / "o"),
                         "--ode.c1", "1e-300", "--ode.c2", "1e300"])
        assert code == 2
        assert ("closed form's f0^(q-1) c2/c1 overflows at c1 = 1e-300, "
                "c2 = 1e+300, f0 = 2, q - 1 = 1") in capsys.readouterr().err

    @pytest.mark.parametrize("exponent, message", [
        # tol-1e-13 solves on (100, 2048) give 3.3191867 and 8.1717911
        ("1.75", "moved 16.64% under domain doubling (budget 5.00%): "
                 "2.76686 -> 3.31919"),
        ("2", "moved 29.03% under domain doubling (budget 5.00%): "
              "5.79984 -> 8.17179"),
    ])
    def test_commutator_catches_kappa_that_grows_with_the_domain(
            self, tmp_path, kappa_calls, capsys, exponent, message):
        # from 2s = 3 on kappa grows with L; the domain doubling re-solve,
        # started from the base Ritz vector, must still see it
        code = main(["commutator", "--out-dir", str(tmp_path / "o"),
                     "--weights.exponent", exponent,
                     "--grid.half_length", "50", "--grid.points", "1024"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"numerical failure: kappa(R=1) {message}\n")
        assert [warm for *_, warm in kappa_calls] == [False, True]

    def test_supercritical_power_exits_one(self, tmp_path, capsys):
        code = main([
            "threshold", "--out-dir", str(tmp_path / "o"),
            "--grid.half_length", "12.5", "--grid.points", "256",
            "--evolution.p", "3.0",
        ])
        assert code == 1
        assert "Fujita" in capsys.readouterr().err

    def test_threshold_refuses_non_integrable_weight(self, tmp_path, capsys):
        # ||1/h||_2 is infinite for exponent 0.5: no L-dependent bound
        code = main([
            "threshold", "--out-dir", str(tmp_path / "o"),
            "--weights.exponent", "0.5", "--grid.half_length", "50",
            "--grid.points", "1024", "--evolution.amplitude", "0.3",
            "--evolution.p", "1.5",
        ])
        assert code == 1
        assert "weight exponent 0.5" in capsys.readouterr().err
        # a refused run writes no output tree, not even an empty plots/
        assert not (tmp_path / "o" / "plots").exists()

    def test_weight_without_a_line_kappa_is_refused_before_any_kappa(
            self, tmp_path, kappa_calls, capsys):
        # from 2s = 3 on, kappa grows with the half-length L (like log L at
        # s = 1.5, like L^(s - 3/2) above), so it certifies nothing
        for command in ("bounds", "threshold"):
            for exponent in ("1.5", "2"):
                code = main([command, "--out-dir", str(tmp_path / "o"),
                             "--weights.exponent", exponent,
                             "--evolution.p", "1.5"])
                assert code == 1
                assert capsys.readouterr().err == (
                    f"error: kappa has no line limit for weight exponent "
                    f"{exponent}: it grows like L^(s - 3/2) with the "
                    "half-length L, so it certifies nothing; a certificate "
                    "needs exponent < 3/2\n")
        assert kappa_calls == []
        assert not (tmp_path / "o").exists()

    def test_bounds_refuses_flat_weight(self, tmp_path, capsys):
        code = main([
            "bounds", "--out-dir", str(tmp_path / "o"),
            "--evolution.amplitude", "3", "--weights.exponent", "0",
        ])
        assert code == 1
        assert "weight exponent 0" in capsys.readouterr().err

    def test_commutator_refuses_flat_weight(self, tmp_path, kappa_calls,
                                            capsys):
        # h == 1 commutes with |D|: kappa is 0 at every R, no slope to fit
        code = main(["commutator", "--out-dir", str(tmp_path / "o"),
                     "--weights.exponent", "0"])
        assert code == 1
        assert "weight exponent 0" in capsys.readouterr().err
        assert kappa_calls == []

    def test_degenerate_ladders_are_refused_before_any_run(
            self, tmp_path, monkeypatch, capsys):
        # only equal factors leave no line to fit (the least-squares fit
        # fails in LAPACK); a repeated factor adds no point
        from fgl_lab import experiments

        def no_run(cfg):
            raise AssertionError("a sweep member ran")

        monkeypatch.setattr(experiments, "_run_report", no_run)
        common = ["--grid.points", "256", "--grid.half_length", "12.5",
                  "--workers", "1", "--out-dir", str(tmp_path / "o")]
        for argv, words in (
                (["sweep", "--sweep.r_values", "1,1,1"], "distinct"),
                (["sweep", "--sweep.r_values", "1,2,2,4"], "distinct")):
            code = main(argv + common)
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and words in err

    def test_zero_data_is_refused_before_any_kappa(self, tmp_path, kappa_calls,
                                                   capsys):
        # zero data never clears the threshold; no bound is built for it.
        # Data too small to square have ||u0/h||_2 = 0 as well.  Both
        # commands refuse with the same message.
        errors = set()
        for command, extra in (("bounds", []),
                               ("threshold", ["--evolution.p", "1.5"])):
            for amplitude in ("0", "1e-200"):
                code = main([command, "--out-dir", str(tmp_path / command),
                             "--evolution.amplitude", amplitude] + extra)
                assert code == 1
                errors.add(capsys.readouterr().err)
        assert len(errors) == 1
        assert "initial data is zero" in errors.pop()
        assert kappa_calls == []

    def test_non_finite_value_is_refused(self, tmp_path, capsys):
        # t_max inf used to run 0 steps and report "no blow-up by t=inf"
        for argv in (["simulate", "--evolution.t_max", "inf"],
                     ["simulate", "--evolution.amplitude", "nan"]):
            code = main(argv + ["--out-dir", str(tmp_path / "o")])
            assert code == 1
            key = argv[1][2:].replace(".", "] ")
            assert f"error: bad value for [{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_workers_are_refused(self, tmp_path, capsys):
        # "0 = all cores"; a negative count used to mean all cores as well
        code = main(["ode", "--workers", "-3", "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "--workers must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# Edge values of config keys, at N <= 256.
_FUZZ_EDGES = {
    "grid.half_length": ("1e-3", "1", "12.5", "1e4"),
    "grid.points": ("1", "3", "16", "64", "256"),
    "weights.exponent": ("0", "0.5", "0.75", "3", "200"),
    "weights.scale": ("0.01", "1", "1e3"),
    "evolution.p": ("1.0000001", "1.5", "2.999999", "3", "7"),
    "evolution.amplitude": ("0", "1e-300", "1e-3", "0.3", "3", "1e3"),
    "evolution.t_max": ("1e-9", "0.3", "1"),
    "evolution.dt_max": ("0.01", "1", "1e3"),
    "ode.q": ("1.0000001", "2", "50"),
    "ode.f0": ("1e-300", "1", "1e300"),
    "ode.c2": ("1e-300", "1", "1e300"),
    "sweep.r_values": ("0.5,1,2", "1e-3,1,1e3"),
    "kernel.num_nodes": ("1", "64"),
}

# Lines that used to end in a traceback, an unnamed overflow or a
# refusal, or ran without bound, with the exit code they get now: bounds
# runs that reach t_max undetected (the last in two steps), powers past
# the double range (an equilibrium past it is +inf), a closed-form curve
# that leaves the double range (it wrote inf), 3e8 steps, and a weight
# that overflows on the grid (1,000 Lanczos applications on NaN where
# the commutator needs h; simulate's 1/h is 0 there; bounds and threshold
# refuse it first for its kappa, which has no line limit), and a
# threshold search given the run length it never reads (1e18 steps).
_FUZZ_FIXED = (
    ("bounds --evolution.amplitude 3 --evolution.t_max 0.3", 0),
    ("bounds --evolution.p 1.0000001 --grid.points 64", 0),
    ("bounds --evolution.amplitude 3 --evolution.t_max 0.1", 0),
    ("threshold --evolution.p 1.0000001 --weights.scale 0.01 --grid.points 256", 2),
    ("bounds --evolution.p 1.0000001 --weights.scale 0.01 --grid.points 256", 2),
    ("ode --ode.q 50 --ode.f0 1e-300 --ode.c2 1e300", 2),
    ("ode --ode.c1 1e300 --ode.q 1.0000001", 0),
    ("ode --ode.c2 1e300 --ode.f0 1e300 --ode.q 1.0000001", 2),
    ("simulate --grid.points 16 --grid.half_length 1e-3 "
     "--evolution.t_max 0.3 --evolution.dt_max 1e-9", 1),
    ("commutator --weights.exponent 200 --grid.points 256", 1),
    ("bounds --weights.exponent 200 --grid.points 256", 1),
    ("threshold --weights.exponent 200 --grid.points 256", 1),
    ("simulate --weights.exponent 200 --grid.points 256", 0),
    ("threshold --evolution.t_max 1e9 --evolution.dt_max 1e-9 "
     "--grid.half_length 12.5 --grid.points 256 --evolution.amplitude 0.9", 1),
)


def test_fuzzed_command_lines_exit_cleanly(tmp_path, capsys):
    # main maps every failure to exit 1 or 2; no exception escapes it
    rng = random.Random(11)
    lines = [(shlex.split(line), code) for line, code in _FUZZ_FIXED]
    for _ in range(30):
        command = rng.choice(sorted(cli._COMMANDS))
        read = cli._row_keys(cli._COMMANDS[command][1])
        keys = [k for k in _FUZZ_EDGES if tuple(k.split(".")) in read]
        argv = [command]
        if ("grid", "points") in read:
            argv += ["--grid.points", "64"]
        for key in rng.sample(keys, min(len(keys), 3)):
            argv += [f"--{key}", rng.choice(_FUZZ_EDGES[key])]
        lines.append((argv, None))
    for i, (argv, want) in enumerate(lines):
        out = tmp_path / str(i)
        code = main(argv + ["--workers", "1", "--out-dir", str(out)])
        assert code in (0, 1, 2) and want in (None, code), argv
    err = capsys.readouterr().err
    assert "overflows at kappa = 98.0833, p - 1 = 1e-07" in err
    assert ("closed form's f0^(1-q) overflows at c1 = 1, c2 = 1e+300, "
            "f0 = 1e-300, q - 1 = 49") in err
    assert ("closed form's f(t) overflows at t = 4.97453e-296, c1 = 1, "
            "c2 = 1e+300, f0 = 1e+300, q - 1 = 1e-07") in err
    assert "t_max = 0.3 over dt_max = 1e-09" in err
    assert ("error: weight exponent 200, scale 1 overflows on the grid "
            "from |x| = 34.7656 on") in err
    assert "kappa has no line limit for weight exponent 200" in err
    assert ("unrecognized arguments: --evolution.t_max 1e9 "
            "--evolution.dt_max 1e-9") in err
    summary = _read_json(tmp_path / "6" / "summary.json")
    assert (summary["equilibrium"], summary["blowup_time"]) == ("inf", "inf")
    for i in (0, 1, 2):
        out = tmp_path / str(i)
        TestMainCommands.assert_manifest_lists_tree(out)
        assert (out / "series.csv").is_file()
        assert (out / "plots" / "lower_bound_vs_t.dat").is_file()
        summary = _read_json(out / "summary.json")
        assert (summary["blew_up"], summary["t_detected"]) == (False, None)
        assert summary["lower_margins_ok"] and summary["growth_margins_ok"]
    assert _read_json(tmp_path / "2" / "summary.json")["steps"] == 2


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # The certificate path is numpy-only, so `fgl` starts fast: neither the
    # import nor a bounds, commutator, threshold or kernel run loads scipy.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fgl_lab.__file__)))
    runs = [
        ["bounds", "--grid.half_length", "25", "--grid.points", "512",
         "--evolution.amplitude", "3", "--evolution.dt_max", "0.01",
         "--evolution.t_max", "2"],
        ["commutator", "--grid.half_length", "6.25", "--grid.points", "128"],
        ["threshold", "--grid.half_length", "12.5", "--grid.points", "256",
         "--evolution.amplitude", "0.9"],
        ["kernel", "--kernel.num_nodes", "800"],
    ]
    code = ("import contextlib, io, sys, fgl_lab.cli\n"
            "seen = ['scipy' in sys.modules]\n"
            f"for i, argv in enumerate({runs!r}):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = fgl_lab.cli.main(argv + ['--out-dir', f'run{i}'])\n"
            "    seen.append((code, 'scipy' in sys.modules))\n"
            "print(seen)\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == str([False] + [(0, False)] * len(runs))


def test_serial_sweep_leaves_multiprocessing_unloaded(tmp_path):
    # Only a sweep with --workers > 1 starts a process pool.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fgl_lab.__file__)))
    argv = ["sweep", "--workers", "1", "--grid.half_length", "10",
            "--grid.points", "64", "--evolution.profile", "constant",
            "--evolution.amplitude", "2", "--evolution.dt_max", "1e-3",
            "--evolution.t_max", "1", "--sweep.r_values", "1,2,4",
            "--out-dir", "run"]
    code = ("import contextlib, io, sys, fgl_lab.cli\n"
            "seen = ['multiprocessing' in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = fgl_lab.cli.main({argv!r})\n"
            "print(seen + [code, 'multiprocessing' in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == str([False, 0, False])
