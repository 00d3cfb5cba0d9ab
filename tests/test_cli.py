import csv
import io
import json
import re
import subprocess
import sys

import pytest

import phasorflow.cli as climod
from phasorflow import __version__
from phasorflow.cli import main

SUBCOMMANDS = ["validate", "modify", "solve", "linearize", "opf", "montecarlo", "scenario"]


@pytest.fixture()
def feeder13(data_dir):
    return str(data_dir / "ieee13.json")


@pytest.fixture()
def dual13_path(data_dir):
    return str(data_dir / "ieee13_dual.json")


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def first_json_line(err: str) -> dict:
    return json.loads(err.splitlines()[0])


class TestHelpAndVersion:
    @pytest.mark.parametrize("cmd", [None] + SUBCOMMANDS)
    def test_help(self, capsys, cmd):
        argv = ["--help"] if cmd is None else [cmd, "--help"]
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert "Usage:" in out

    @pytest.mark.parametrize("cmd", [None] + SUBCOMMANDS)
    def test_version(self, capsys, cmd):
        argv = ["--version"] if cmd is None else [cmd, "--version"]
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert "phasorflow" in out
        assert __version__ in out

    def test_module_execution(self, feeder13):
        proc = subprocess.run(
            [sys.executable, "-m", "phasorflow.cli", "validate", feeder13],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")


class TestExitCodes:
    def test_validate_ok(self, capsys, feeder13):
        rc, out, _ = run(capsys, "validate", feeder13)
        assert rc == 0
        assert out.startswith("ok:")
        assert "nodes" in out and "loads" in out

    def test_validate_scenario_document(self, capsys, dual13_path):
        rc, out, _ = run(capsys, "validate", dual13_path)
        assert rc == 0
        assert "27 nodes" in out

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert rc == 64
        assert first_json_line(err)["error"] == "usage"

    def test_unknown_subcommand(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 64
        assert first_json_line(err)["error"] == "usage"

    def test_loose_tolerance_rejected(self, capsys, feeder13):
        rc, _, err = run(capsys, "solve", feeder13, "--tol", "1e-5")
        assert rc == 64
        assert "looser" in first_json_line(err)["detail"]

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run(capsys, "validate", str(bad))
        assert rc == 1
        assert "error" in first_json_line(err)

    def test_nonconvergence_exit_2(self, capsys, tmp_path, feeder13):
        script = tmp_path / "mods.json"
        script.write_text(json.dumps([{"op": "scale_loads", "factor": 100}]))
        big = tmp_path / "big.json"
        rc, _, _ = run(capsys, "modify", feeder13, "--script", str(script), "-o", str(big))
        assert rc == 0
        rc, _, err = run(capsys, "solve", str(big))
        assert rc == 2
        assert first_json_line(err)["error"] == "non-convergence"

    def test_infeasible_exit_3(self, capsys, monkeypatch, dual13_path):
        def boom(*args, **kwargs):
            raise climod.InfeasibleError("voltage box excludes the nominal point",
                                         ["e_min[0]"])

        monkeypatch.setattr(climod, "solve_opf", boom)
        rc, _, err = run(capsys, "opf", dual13_path, "--targets", "1680:2680")
        assert rc == 3
        assert first_json_line(err)["error"] == "infeasible"

    def test_degenerate_weights_exit_1(self, capsys, dual13_path):
        rc, _, err = run(capsys, "opf", dual13_path, "--targets", "1680:2680",
                         "--rho-e", "0", "--rho-theta", "0", "--rho-w", "0")
        assert rc == 1
        assert "degenerate weights" in first_json_line(err)["detail"]

    def test_bad_targets_format(self, capsys, dual13_path):
        rc, _, err = run(capsys, "opf", dual13_path, "--targets", "1680")
        assert rc == 64

    def test_bad_grid_format(self, capsys, feeder13, tmp_path):
        rc, _, err = run(capsys, "montecarlo", feeder13, "--grid", "0:0.1",
                         "-o", str(tmp_path / "x.csv"))
        assert rc == 64

    def test_zero_penalty_rejected(self, capsys, dual13_path):
        rc, _, _ = run(capsys, "opf", dual13_path, "--targets", "1680:2680",
                       "--penalty", "0")
        assert rc == 64


def _first_sized_line(doc):
    return next(ln for ln in doc["lines"] if "length_ft" in ln)


class TestMalformedDocuments:
    """Each malformed feeder exits 1 with a one-line JSON error, never a
    traceback, and a NaN is never reported as non-convergence."""

    PROBES = {
        "node_phases_not_a_list": ("ieee13.json", lambda d: d["nodes"][1].update(phases=5)),
        "nodes_null": ("ieee13.json", lambda d: d.update(nodes=None)),
        "nan_line_impedance": ("ieee13.json",
                               lambda d: d["lines"][1]["z_pu"][0][0].__setitem__(0, float("nan"))),
        "nan_load_demand": ("ieee13.json", lambda d: d["loads"][0].update(re=float("nan"))),
        "negative_length": ("ieee13_raw.json",
                            lambda d: _first_sized_line(d).update(length_ft=-100.0)),
        "zero_length": ("ieee13_raw.json", lambda d: _first_sized_line(d).update(length_ft=0)),
    }

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_exit_1_without_traceback(self, capsys, tmp_path, data_dir, probe):
        source, mutate = self.PROBES[probe]
        doc = json.loads((data_dir / source).read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "solve", str(bad))
        assert rc == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert first_json_line(err)["error"] == "NetworkError"


class TestSolveCommand:
    def test_json_stdout_shape(self, capsys, feeder13):
        rc, out, _ = run(capsys, "solve", feeder13)
        assert rc == 0
        doc = json.loads(out)
        assert doc["angle_unit"] == "deg"
        assert doc["iterations"] >= 2
        assert 0.9 < doc["voltages"]["671.a"]["mag"] < 1.0
        assert doc["voltages"]["source.b"]["angle"] == pytest.approx(-120.0)
        flows = doc["line_flows"]["632-671"]
        assert set(flows) == {"a", "b", "c"}
        assert all(len(v) == 2 for v in flows.values())
        assert doc["vvc_q"] == {}

    def test_radians_flag(self, capsys, feeder13):
        rc, out, _ = run(capsys, "solve", feeder13, "--radians")
        doc = json.loads(out)
        assert doc["angle_unit"] == "rad"
        assert doc["voltages"]["source.b"]["angle"] == pytest.approx(-2.0943951, abs=1e-6)

    def test_dispatch_file_lowers_voltage(self, capsys, tmp_path, feeder13):
        _, base, _ = run(capsys, "solve", feeder13)
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps({"671.a": [0.05, 0.0]}))
        rc, out, _ = run(capsys, "solve", feeder13, "--dispatch", str(wfile))
        assert rc == 0
        mag = json.loads(out)["voltages"]["671.a"]["mag"]
        assert mag < json.loads(base)["voltages"]["671.a"]["mag"]

    def test_file_output_matches_stdout(self, capsys, tmp_path, feeder13):
        _, out, _ = run(capsys, "solve", feeder13)
        dest = tmp_path / "sol.json"
        rc, _, _ = run(capsys, "solve", feeder13, "-o", str(dest))
        assert rc == 0
        assert dest.read_text() == out

    def test_stdout_is_reproducible(self, capsys, feeder13):
        _, first, _ = run(capsys, "solve", feeder13)
        _, second, _ = run(capsys, "solve", feeder13)
        assert first == second

    def test_csv_table(self, capsys, tmp_path, feeder13):
        _, summary, _ = run(capsys, "validate", feeder13)
        channels = int(re.search(r"(\d+) channels", summary).group(1))
        dest = tmp_path / "sol.csv"
        rc, _, _ = run(capsys, "solve", feeder13, "-o", str(dest))
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(dest.read_text())))
        node_rows = [r for r in rows if r["node"]]
        line_rows = [r for r in rows if r["line"]]
        assert len(node_rows) == channels
        assert len(node_rows) + len(line_rows) == len(rows)
        # full-precision reprs parse straight back to floats
        assert all(0.9 < float(r["mag_pu"]) <= 1.0 for r in node_rows)
        assert all(r["p_pu"] and r["q_pu"] for r in line_rows)

    def test_csv_is_reproducible(self, capsys, tmp_path, feeder13):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "solve", feeder13, "-o", str(a))
        run(capsys, "solve", feeder13, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestLinearizeCommand:
    def test_csv_mag_is_root_of_e(self, capsys, tmp_path, feeder13):
        dest = tmp_path / "lin.csv"
        rc, _, _ = run(capsys, "linearize", feeder13, "-o", str(dest))
        assert rc == 0
        rows = [r for r in csv.DictReader(io.StringIO(dest.read_text())) if r["node"]]
        for r in rows:
            assert float(r["mag_pu"]) ** 2 == pytest.approx(float(r["e_pu2"]), abs=1e-12)

    def test_json_tracks_exact_solution(self, capsys, feeder13):
        _, lin_out, _ = run(capsys, "linearize", feeder13)
        _, ex_out, _ = run(capsys, "solve", feeder13)
        lin = json.loads(lin_out)["voltages"]
        ex = json.loads(ex_out)["voltages"]
        for key in ("671.a", "675.c", "634.b"):
            assert lin[key]["mag"] == pytest.approx(ex[key]["mag"], abs=0.01)
            assert lin[key]["angle"] == pytest.approx(ex[key]["angle"], abs=0.5)


class TestModifyCommand:
    def test_add_spot_load_roundtrip(self, capsys, tmp_path, feeder13):
        _, before, _ = run(capsys, "validate", feeder13)
        n_loads = int(re.search(r"(\d+) loads", before).group(1))
        script = tmp_path / "mods.json"
        script.write_text(json.dumps({"mods": [
            {"op": "add_spot_load", "node": "634", "phase": "a", "demand": [0.05, 0.02]},
        ]}))
        dest = tmp_path / "out.json"
        rc, _, _ = run(capsys, "modify", feeder13, "--script", str(script), "-o", str(dest))
        assert rc == 0
        _, after, _ = run(capsys, "validate", str(dest))
        assert f"{n_loads + 1} loads" in after

    def test_bare_list_script(self, capsys, tmp_path, feeder13):
        script = tmp_path / "mods.json"
        script.write_text(json.dumps([{"op": "scale_loads", "factor": 1.1}]))
        dest = tmp_path / "out.json"
        rc, _, _ = run(capsys, "modify", feeder13, "--script", str(script), "-o", str(dest))
        assert rc == 0

    def test_unknown_op_exit_1(self, capsys, tmp_path, feeder13):
        script = tmp_path / "mods.json"
        script.write_text(json.dumps([{"op": "transmogrify"}]))
        rc, _, err = run(capsys, "modify", feeder13, "--script", str(script),
                         "-o", str(tmp_path / "out.json"))
        assert rc == 1
        assert "transmogrify" in first_json_line(err)["detail"]


class TestOpfCommand:
    def test_json_report_shape(self, capsys, dual13_path):
        rc, out, _ = run(capsys, "opf", dual13_path, "--targets", "1680:2680")
        assert rc == 0
        doc = json.loads(out)
        assert doc["targets"] == ["1680", "2680"]
        assert doc["weights"] == {"magnitude": 1.0, "angle": 1.0, "effort": 1.0}
        assert set(doc["terms"]) == {"magnitude", "angle", "effort"}
        assert doc["objective"] == pytest.approx(sum(doc["terms"].values()), rel=1e-9)
        assert doc["iterations"] >= 1
        assert doc["primal_residual"] >= 0.0
        for key, val in doc["dispatch"].items():
            node, _, phase = key.rpartition(".")
            assert node and phase in "abc"
            assert len(val) == 2

    def test_weight_flags_change_solution(self, capsys, dual13_path):
        _, balanced, _ = run(capsys, "opf", dual13_path, "--targets", "1680:2680")
        _, effort_only, _ = run(capsys, "opf", dual13_path, "--targets", "1680:2680",
                                "--rho-e", "1e-9", "--rho-theta", "1e-9")
        w_bal = json.loads(balanced)["dispatch"]
        w_eff = json.loads(effort_only)["dispatch"]
        # near-pure effort weighting drives the dispatch toward zero
        assert max(abs(v[0]) for v in w_eff.values()) < max(abs(v[0]) for v in w_bal.values())


class TestMonteCarloCommand:
    def test_records_header_and_determinism(self, capsys, tmp_path, feeder13):
        args = ["montecarlo", feeder13, "--grid", "0:0.05:0.05",
                "--per-cell", "2", "--seed", "3"]
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        rc, out, _ = run(capsys, *args, "-o", str(a))
        assert rc == 0
        assert "wrote 8 records" in out
        run(capsys, *args, "-o", str(b))
        run(capsys, *args, "--workers", "2", "-o", str(c))
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()
        rows = list(csv.DictReader(io.StringIO(a.read_text())))
        assert list(rows[0]) == ["dr", "di", "scenario_index", "eps_mag", "eps_angle",
                                 "eps_power", "substation_power", "converged"]
        assert all(r["converged"] == "1" for r in rows)

    def test_seed_changes_records(self, capsys, tmp_path, feeder13):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "montecarlo", feeder13, "--grid", "0.05:0.05:0.05",
            "--per-cell", "2", "--seed", "3", "-o", str(a))
        run(capsys, "montecarlo", feeder13, "--grid", "0.05:0.05:0.05",
            "--per-cell", "2", "--seed", "4", "-o", str(b))
        assert a.read_bytes() != b.read_bytes()


class TestScenarioCommand:
    def test_report_structure(self, capsys, tmp_path, dual13_path):
        dest = tmp_path / "report.json"
        rc, _, _ = run(capsys, "scenario", dual13_path, "-o", str(dest))
        assert rc == 0
        doc = json.loads(dest.read_text())
        action = doc["actions"][0]
        assert [c["case"] for c in action["cases"]] == ["NC", "MC", "PC"]
        nc = action["cases"][0]
        # angle gaps are reported in degrees: the uncontrolled gap sits
        # around a degree, far above any radian-scale reading
        assert 0.5 < nc["angle_difference_deg"]["a"] < 5.0

    def test_sequential_flag(self, capsys, tmp_path, dual13_path):
        dest = tmp_path / "report.json"
        rc, _, _ = run(capsys, "scenario", dual13_path, "--sequential", "-o", str(dest))
        assert rc == 0
        doc = json.loads(dest.read_text())
        assert len(doc["actions"]) >= 1
        assert all(a["cases"] for a in doc["actions"])


class TestAtomicOutput:
    def test_missing_directory_exit_1(self, capsys, tmp_path, feeder13):
        dest = tmp_path / "no" / "such" / "dir" / "out.json"
        rc, _, err = run(capsys, "solve", feeder13, "-o", str(dest))
        assert rc == 1
        assert "error" in first_json_line(err)

    def test_no_temp_files_left_behind(self, capsys, tmp_path, feeder13):
        run(capsys, "solve", feeder13, "-o", str(tmp_path / "sol.json"))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
