import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mwlab import cli, ineqlab
from mwlab import pde

README = Path(__file__).resolve().parents[1] / "README.md"
README_EXAMPLES = [line for line in README.read_text(encoding="utf-8").splitlines()
                   if line.startswith("mwlab ")]


def run_cli(args, cwd=None):
    return cli.run(list(args))


class TestExitCodes:
    def test_no_arguments_usage(self, capsys):
        assert cli.run([]) == 2

    def test_unknown_weight_is_config_error(self, tmp_path):
        rc = run_cli(["certify", "--class", "nd", "--weight", "no-such-weight",
                      "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_flag_is_config_error(self, tmp_path):
        assert run_cli(["certify", "--class", "bogus"]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # the zero weight never crosses the criterion: BracketFailure -> 3
        wpath = tmp_path / "zero.json"
        wpath.write_text(json.dumps({"kind": "constant", "n": 3, "d": 2,
                                     "mat": [[0.0, 0.0], [0.0, 0.0]]}))
        rc = run_cli(["aux", "--weight", str(wpath), "--grid", "1.0,4",
                      "--kind", "upper", "--out", str(tmp_path / "o")])
        assert rc == 3

    # inputs a flag check rejects: config-file values, a weight file, grid indices
    BAD_INPUTS = {
        "file-weight-unknown-name": {"config": {"subcommand": "aux", "weight": "no-such"}},
        "file-kind-not-a-choice": {"config": {"subcommand": "aux", "grid": {"L": 1.0, "m": 2},
                                              "params": {"kind": "middle"}}},
        "file-family-unknown-key": {"config": {
            "subcommand": "certify", "params": {"class": "nd"},
            "family": {"generator": "dyadic", "boxx": 4.0}}},
        "file-scale-not-a-choice": {"config": {"subcommand": "all",
                                               "params": {"scale": "bogus", "budget": 0.0}}},
        "file-family-value-a-string": {"config": {
            "subcommand": "certify", "params": {"class": "nd"},
            "family": {"generator": "dyadic", "box": "4", "count": 2}}},
        "file-grid-value-not-a-number": {"config": {"subcommand": "aux",
                                                    "grid": {"L": "x", "m": 2}}},
        "file-seed-not-an-integer": {"config": {"subcommand": "aux", "seed": "abc",
                                                "grid": {"L": 1.0, "m": 2}}},
        "weight-file-missing-field": {"weight": {"kind": "constant", "n": 3, "d": 2},
                                      "argv": ["aux", "--grid", "1.0,2"]},
        "weight-file-not-an-object": {"weight": [1, 2], "argv": ["aux", "--grid", "1.0,2"]},
        "aux-grid-one-value": {"argv": ["aux", "--grid", "1.0"]},
        "aux-grid-three-values": {"argv": ["aux", "--grid", "1.0,2,3"]},
        "green-pole-past-the-grid": {"argv": ["green", "--grid", "13,2.0", "--pole", "20,0,0"]},
        "green-pole-negative": {"argv": ["green", "--pole", "6,6,-1"]},
        "agmon-source-past-the-grid": {"argv": ["agmon", "--grid", "1.0,4",
                                                "--source", "9,9,9"]},
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_is_config_error(self, case, tmp_path, capsys):
        spec = self.BAD_INPUTS[case]
        argv = list(spec.get("argv", []))
        if "weight" in spec:
            wpath = tmp_path / "w.json"
            wpath.write_text(json.dumps(spec["weight"]))
            argv += ["--weight", str(wpath)]
        if "config" in spec:
            cpath = tmp_path / "cfg.json"
            cpath.write_text(json.dumps({**spec["config"], "out": str(tmp_path / "o")}))
            argv = ["--config", str(cpath)] + argv
        else:
            argv += ["--out", str(tmp_path / "o")]
        assert cli.run(argv) == 2
        assert "config error:" in capsys.readouterr().err

    def test_file_string_goes_through_the_flag_type(self, tmp_path):
        # a builtin name in the file resolves as it does after --weight
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps({"subcommand": "aux", "weight": "diag-poly",
                                     "grid": "1.0,2", "out": str(tmp_path / "o")}))
        assert cli.run(["--config", str(cpath)]) == 0
        cfg = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
        assert cfg["weight"] == cli.BUILTIN_WEIGHTS["diag-poly"]
        assert cfg["grid"] == {"L": 1.0, "m": 2}


class TestBundles:
    def test_certify_writes_bundle(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli(["certify", "--class", "nd", "--weight", "rank-one-radial",
                      "--out", str(out)])
        assert rc == 0
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert any("report.csv" in line for line in manifest)
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["subcommand"] == "certify"

    def test_green_binary_round_trip(self, tmp_path):
        out = tmp_path / "g"
        rc = run_cli(["green", "--weight", "diag-poly", "--grid", "13,2.0",
                      "--out", str(out)])
        assert rc == 0
        gf = pde.load_green_binary(out / "green.field")
        assert gf.d == 2 and gf.grid.N == 13
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["rows"]) == 3 * 13 and ineqlab.validate_report(doc)

    def test_aux_field_bundle(self, tmp_path):
        out = tmp_path / "a"
        rc = run_cli(["aux", "--weight", "identity", "--grid", "1.0,4",
                      "--out", str(out)])
        assert rc == 0
        assert (out / "aux_lower.field").exists()
        assert (out / "aux_lower.csv").exists()

    def test_counterexample_slope_row(self, tmp_path):
        out = tmp_path / "c"
        rc = run_cli(["counterexample", "--R", "5,10,20", "--out", str(out)])
        assert rc == 0
        rows = (out / "report.csv").read_text().splitlines()
        slope_rows = [r for r in rows if ",slope," in r]
        assert len(slope_rows) == 2
        slope = float(slope_rows[0].split(",")[-1])
        assert 0.7 <= slope <= 1.3

    def test_config_file_round(self, tmp_path):
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "subcommand": "poincare",
            "weight": {"kind": "constant", "n": 3, "d": 2,
                       "mat": [[1.0, 0.0], [0.0, 1.0]]},
            "out": str(tmp_path / "p"),
            "params": {"cube": [0.0, 0.0, 0.0, 1.0]},
        }))
        rc = run_cli(["--config", str(cfgpath), "poincare",
                      "--out", str(tmp_path / "p")])
        assert rc == 0
        doc = json.loads((tmp_path / "p" / "report.json").read_text())
        ratios = doc["results"]["ratios"]
        assert ratios[0] == pytest.approx(1.0 / 6.0, rel=1e-5)


class TestSolverPolicy:
    def test_green_stages_never_factor(self, tmp_path, monkeypatch):
        # the CLI follows green_field's policy: CG for a non-free operator
        def refuse(self, op):
            raise AssertionError("a CLI stage factored its operator")

        monkeypatch.setattr(pde.DirectSolver, "__init__", refuse)
        for sub in ("green", "decay", "landscape"):
            rc = run_cli([sub, "--weight", "diag-poly", "--grid", "13,2.0",
                          "--out", str(tmp_path / sub)])
            assert rc == 0, sub
        doc = json.loads((tmp_path / "green" / "report.json").read_text())
        assert doc["results"]["residual"] <= pde.SOLVE_TOL


class TestNonFiniteRows:
    def test_infinite_rows_write_a_complete_bundle(self, tmp_path):
        # rank one has det W = 0, so every rbm ratio is infinite
        out = tmp_path / "o"
        fam = '{"generator":"random","box":8.0,"count":4,"r_min":1.0,"r_max":4.0}'
        rc = run_cli(["certify", "--class", "rbm", "--weight", "rank-one-radial",
                      "--family", fam, "--out", str(out)])
        assert rc == 0
        manifest = (out / "manifest.txt").read_text()
        assert "report.json" in manifest and "report.csv" in manifest
        doc = json.loads((out / "report.json").read_text())
        values = {row["quantity"]: row["value"] for row in doc["rows"]}
        assert values["rbm_estimate"] == "inf" and values["rbm_per_cube"] == "inf"
        csv_rows = (out / "report.csv").read_text().splitlines()
        assert "certify,rank_one_radial,rbm_estimate,-,inf" in csv_rows
        assert all(r.endswith(",inf") for r in csv_rows if ",rbm_per_cube," in r)


class TestReadmeExamples:
    """Every `mwlab ...` example line of README.md parses with the real CLI."""

    def test_examples_found(self):
        assert len(README_EXAMPLES) >= 10

    @pytest.mark.parametrize("line", README_EXAMPLES, ids=lambda l: l.split()[1])
    def test_example_parses(self, line):
        argv = shlex.split(line, comments=True)[1:]
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
        assert cli.config_from_args(args).subcommand == argv[0]


class TestConfigOnly:
    """A config file naming the subcommand, with no subcommand on the command line."""

    def _write(self, tmp_path, cls):
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({"subcommand": "certify", "out": str(tmp_path / "o"),
                                       "params": {"class": cls}}))
        return str(cfgpath)

    def test_certify_from_config_file(self, tmp_path):
        assert run_cli(["--config", self._write(tmp_path, "nd")]) == 0
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        assert doc["config"]["subcommand"] == "certify"
        assert doc["config"]["family"]["count"] == 16
        assert any(row["quantity"] == "nd_estimate" for row in doc["rows"])
        assert (tmp_path / "o" / "manifest.txt").exists()

    def test_unknown_certifier_class_is_config_error(self, tmp_path):
        assert run_cli(["--config", self._write(tmp_path, "bogus")]) == 2


class TestConfigPrecedence:
    """A field comes from its explicit flag, else the config file, else the flag default."""

    def _write(self, tmp_path):
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({
            "subcommand": "aux",
            "weight": {"kind": "constant", "n": 3, "d": 2,
                       "mat": [[2.0, 0.0], [0.0, 2.0]]},
            "grid": {"L": 1.0, "m": 4},
            "out": str(tmp_path / "from_file"),
            "params": {"kind": "upper"}}))
        return str(cfgpath)

    def test_file_fields_beat_flag_defaults(self, tmp_path):
        assert run_cli(["--config", self._write(tmp_path), "aux"]) == 0
        doc = json.loads((tmp_path / "from_file" / "report.json").read_text())
        cfg = doc["config"]
        assert cfg["weight"]["mat"] == [[2.0, 0.0], [0.0, 2.0]]
        assert cfg["grid"] == {"L": 1.0, "m": 4}
        assert cfg["params"] == {"kind": "upper"}
        assert cfg["seed"] == 1
        assert doc["results"]["kind"] == "upper"
        # constant 2 I on a side-2r cube: Psi(x, r) = r^(-1) (2r)^3 2 I = 16 r^2 I,
        # so the criterion crosses 1 at r = 1/4 and m = 4 everywhere
        assert doc["results"]["max"] == pytest.approx(4.0, rel=1e-6)

    def test_explicit_flags_beat_file(self, tmp_path):
        out = tmp_path / "flag"
        assert run_cli(["--config", self._write(tmp_path), "aux", "--kind", "lower",
                        "--grid", "1.0,3", "--out", str(out)]) == 0
        cfg = json.loads((out / "report.json").read_text())["config"]
        assert cfg["params"] == {"kind": "lower"}
        assert cfg["grid"] == {"L": 1.0, "m": 3}
        assert cfg["weight"]["mat"] == [[2.0, 0.0], [0.0, 2.0]]
        assert not (tmp_path / "from_file").exists()

    def test_command_line_run_echoes_every_default(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["aux", "--grid", "1.0,3", "--out", str(out)]) == 0
        cfg = json.loads((out / "report.json").read_text())["config"]
        assert cfg["weight"] == cli.BUILTIN_WEIGHTS["identity"]
        assert cfg["seed"] == 1 and cfg["params"] == {"kind": "lower"}


class TestAllBudget:
    def test_zero_budget_skips_every_step_in_order(self, tmp_path):
        out = tmp_path / "all"
        assert run_cli(["all", "--budget", "0", "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()[1:]
        steps = ["certify", "aux", "agmon", "green", "resolvent", "fp", "poincare",
                 "counterexample", "landscape"]
        assert rows == [f"all,-,{s}_skipped_budget,-,1" for s in steps]


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        # distinct directories: CSV rows must agree byte for byte (the JSON
        # config echo legitimately differs in its out path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = run_cli(["certify", "--class", "bp", "--p", "2",
                          "--weight", "rank-one-radial", "--seed", "11",
                          "--out", str(out)])
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()
        # rerun into the same directory: the whole bundle is reproduced
        grab = lambda: {p.name: p.read_bytes() for p in outs[0].iterdir()}
        first = grab()
        rc = run_cli(["certify", "--class", "bp", "--p", "2",
                      "--weight", "rank-one-radial", "--seed", "11",
                      "--out", str(outs[0])])
        assert rc == 0
        assert grab() == first

    def test_console_entry_point(self, tmp_path):
        # exercised through the module runner to match the installed script
        proc = subprocess.run([sys.executable, "-m", "mwlab.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
