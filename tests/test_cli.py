import csv
import io
import json
import re
import subprocess
import sys

import pytest

import phasorflow.cli as climod
from phasorflow import __version__, dump_feeder
from phasorflow.cli import main
from phasorflow.model import LoadSpec, VvcSpec
from test_exact import two_bus

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

    @staticmethod
    def validate_loads(data_dir, package):
        """The modules of ``package`` that ``validate`` loads in a fresh
        interpreter."""
        code = ("import sys\n"
                "from phasorflow.cli import main\n"
                "rc = main(['validate', sys.argv[1]])\n"
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == sys.argv[2]))\n"
                "sys.exit(rc)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(data_dir / "ieee37_dual.json"), package],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ok:")
        return proc.stdout.splitlines()[-1]

    def test_validate_imports_no_scipy(self, data_dir):
        # scipy is a test dependency only; importing it would double start-up
        assert self.validate_loads(data_dir, "scipy") == "[]"

    def test_validate_imports_no_multiprocessing(self, data_dir):
        # only montecarlo --workers needs a process pool
        assert self.validate_loads(data_dir, "multiprocessing") == "[]"


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

    def test_certified_infeasible_box_exit_3(self, capsys, tmp_path, data_dir):
        # |V| >= 1.15 everywhere is out of reach of the 0.05 p.u. DER; the
        # dispatch solver must certify that rather than run to its cap
        doc = json.loads((data_dir / "ieee13_dual.json").read_text())
        for key in ("base_feeder", "shared_mods"):
            doc[key] = json.loads((data_dir / doc[key]).read_text())
        doc["voltage_bounds"] = {"e_min": 1.3225, "e_max": 1.5625}
        path = tmp_path / "box.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "scenario", str(path))
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

    @pytest.mark.parametrize("argv, detail", [
        (["solve", "ieee13", "--tol", "nan"],
         "Invalid value for '--tol': tolerance nan must be a number above 0"),
        (["solve", "ieee13", "--tol", "-1"],
         "Invalid value for '--tol': tolerance -1 must be a number above 0"),
        (["opf", "dual13", "--targets", "1680:2680", "--tol", "nan", "--max-iter", "50"],
         "Invalid value for '--tol': tolerance nan must be a number above 0"),
        (["opf", "dual13", "--targets", "1680:2680", "--penalty", "nan"],
         "Invalid value for '--penalty': nan is not a finite number"),
        (["opf", "dual13", "--targets", "1680:2680", "--penalty", "inf"],
         "Invalid value for '--penalty': inf is not a finite number"),
        (["montecarlo", "ieee13", "--grid", "0:inf:0.05", "-o", "x.csv"],
         "Invalid value: --grid needs finite LO, HI and STEP"),
        (["montecarlo", "ieee13", "--grid", "0:1e300:1e-300", "-o", "x.csv"],
         "Invalid value: --grid 0:1e300:1e-300 spans inf steps"),
    ], ids=["tol_nan", "tol_negative", "opf_tol_nan", "penalty_nan", "penalty_inf",
            "grid_inf", "grid_overflow"])
    def test_non_finite_numeric_option_exit_64(self, capsys, tmp_path, data_dir, argv, detail):
        # a NaN or an overflow is a usage error, never non-convergence or a traceback
        paths = {"ieee13": data_dir / "ieee13.json", "dual13": data_dir / "ieee13_dual.json",
                 "x.csv": tmp_path / "x.csv"}
        rc, _, err = run(capsys, *(str(paths.get(a, a)) for a in argv))
        assert rc == 64
        assert json.loads(err.splitlines()[0]) == {"error": "usage", "detail": detail}
        assert not any(line.startswith("{") for line in err.splitlines()[1:])
        assert "Traceback" not in err

    def test_non_finite_weight_exit_1(self, capsys, dual13_path):
        rc, _, err = run(capsys, "opf", dual13_path, "--targets", "1680:2680", "--rho-e", "inf")
        assert rc == 1
        assert err == '{"error": "ValueError", "detail": "weights must be nonnegative numbers"}\n'


def _first_sized_line(doc):
    return next(ln for ln in doc["lines"] if "length_ft" in ln)


NAN = float("nan")


class TestMalformedDocuments:
    """Each malformed feeder exits 1 with a one-line JSON error, never a
    traceback, and a NaN is never reported as non-convergence. Every probe
    pins the exact error line, so a faster reader cannot change what the
    user is told."""

    # name: (source document, mutation, reported detail)
    PROBES = {
        "node_phases_not_a_list": (
            "ieee13.json", lambda d: d["nodes"][1].update(phases=5),
            "node 650: phases must be a string or a list of phase names, got 5"),
        "nodes_null": ("ieee13.json", lambda d: d.update(nodes=None), "'nodes' must be a list"),
        "nan_line_impedance": (
            "ieee13.json", lambda d: d["lines"][1]["z_pu"][0][0].__setitem__(0, NAN),
            "line 650-632: expected a finite number, got nan"),
        "nan_load_demand": (
            "ieee13.json", lambda d: d["loads"][0].update(re=NAN),
            "load at 634.a: expected a finite number, got nan"),
        "singular_line_impedance": (
            "ieee13.json", lambda d: d["lines"][1].update(z_pu=[[[0.02, 0.06]] * 3] * 3),
            "line 650-632: impedance matrix is singular"),
        "negative_length": (
            "ieee13_raw.json", lambda d: _first_sized_line(d).update(length_ft=-100.0),
            "line 650-632: length_ft must be positive, got -100.0"),
        "zero_length": (
            "ieee13_raw.json", lambda d: _first_sized_line(d).update(length_ft=0),
            "line 650-632: length_ft must be positive, got 0.0"),
        "zero_slack_phasor": (
            "ieee13.json", lambda d: d["slack"].update(voltage=[0, 0, 0]),
            "slack_voltage phasors must be finite and nonzero"),
        "bool_in_line_impedance": (
            "ieee13.json", lambda d: d["lines"][1]["z_pu"][0][0].__setitem__(0, True),
            "line 650-632: expected a finite number, got True"),
        "string_load_demand": (
            "ieee13.json", lambda d: d["loads"][0].update(re="0.1"),
            "load at 634.a: expected a finite number, got '0.1'"),
        "two_phase_line_3x3_impedance": (
            "ieee13.json", lambda d: d["lines"][4].update(z_pu=d["lines"][1]["z_pu"]),
            "line 632-645: impedance must be 2x2, got (3, 3)"),
        "null_beta_s": (
            "ieee13.json", lambda d: d["loads"][0].update(beta_S=None),
            "load at 634.a: expected a finite number, got None"),
        "nan_config_impedance": (
            "ieee13_raw.json",
            lambda d: d["line_configs"]["601"]["z_ohm_per_mile"][1][1].__setitem__(1, NAN),
            "config 601: expected a finite number, got nan"),
        "unknown_phase_name": (
            "ieee13.json", lambda d: d["nodes"][2].update(phases=["a", "b", "d"]),
            "unknown phase 'd'"),
        "huge_integer_load_demand": (
            "ieee13.json", lambda d: d["loads"][0].update(re=10**400),
            f"load at 634.a: expected a finite number, got {10**400}"),
        "scalar_line_impedance_row": (
            "ieee13.json", lambda d: d["lines"][1]["z_pu"].__setitem__(0, 5),
            "line 650-632: expected a matrix"),
    }

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_exit_1_without_traceback(self, capsys, tmp_path, data_dir, probe):
        source, mutate, detail = self.PROBES[probe]
        doc = json.loads((data_dir / source).read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        self.assert_clean_exit_1(*run(capsys, "solve", str(bad)), detail=detail)

    def test_ragged_line_impedance_exit_1(self, capsys, tmp_path, data_dir):
        doc = json.loads((data_dir / "ieee13.json").read_text())
        doc["lines"][1]["z_pu"][0].pop()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        self.assert_clean_exit_1(
            *run(capsys, "solve", str(bad)),
            detail="line 650-632: expected a matrix, got rows of lengths [2, 3, 3]")

    @pytest.mark.parametrize("command", ["solve", "linearize"])
    @pytest.mark.parametrize("key,detail", [
        ("650.a", "dispatch channel 650.a is tied to the slack"),
        ("999.a", "dispatch channel 999.a is not in the network"),
    ], ids=["slack_tied", "unknown"])
    def test_dispatch_channel_exit_1_alike_in_both_solvers(self, capsys, tmp_path, feeder13,
                                                          command, key, detail):
        # 650 is tied to the slack on ieee13: no balance row takes its draw
        path = tmp_path / "dispatch.json"
        path.write_text(json.dumps({key: [0.1, 0.05]}))
        self.assert_clean_exit_1(*run(capsys, command, feeder13, "--dispatch", str(path)),
                                 detail=detail)

    @pytest.mark.parametrize("value", [5, [0.1]], ids=["number", "one_element_list"])
    def test_malformed_dispatch_exit_1_without_traceback(self, capsys, tmp_path, feeder13,
                                                         value):
        bad = tmp_path / "dispatch.json"
        bad.write_text(json.dumps({"671.a": value}))
        self.assert_clean_exit_1(
            *run(capsys, "solve", feeder13, "--dispatch", str(bad)),
            detail=f"dispatch '671.a': expected [p, q] finite numbers, got {value!r}")

    def test_scenario_feeders_not_objects_exit_1_without_traceback(self, capsys, tmp_path,
                                                                   data_dir):
        doc = json.loads((data_dir / "ieee13_dual.json").read_text())
        doc.update(base_feeder=str(data_dir / doc["base_feeder"]),
                   shared_mods=str(data_dir / doc["shared_mods"]), feeders=[1, 2])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        self.assert_clean_exit_1(
            *run(capsys, "scenario", str(bad)),
            detail="scenario feeder 1 is not an object with a string 'prefix'")

    def test_zero_slack_phasor_linearize_exit_1(self, capsys, tmp_path, data_dir):
        doc = json.loads((data_dir / "ieee13.json").read_text())
        doc["slack"]["voltage"] = [0, 0, 0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        self.assert_clean_exit_1(*run(capsys, "linearize", str(bad)),
                                 detail="slack_voltage phasors must be finite and nonzero")

    SCENARIO_PROBES = {
        "no_actions": (lambda d: d.update(actions=[]),
                       "scenario 'actions' must be a nonempty list of objects"),
        "no_switches": (lambda d: d.update(switches=[]),
                        "scenario 'switches' must be a nonempty list of objects"),
        "cases_a_list": (lambda d: d.update(cases=[None, {"magnitude": 1.0}]),
                         "scenario 'cases' must be an object of name: weights or null"),
        "string_e_min": (lambda d: d["voltage_bounds"].update(e_min="0.9"),
                         "voltage_bounds.e_min: expected a finite number, got '0.9'"),
        "nan_weight": (lambda d: d["cases"]["MC"].update(magnitude=NAN),
                       "case 'MC' weight 'magnitude': expected a finite number, got nan"),
        "nan_der_capacity": (lambda d: d["der"][0].update(capacity=NAN),
                             "der at 1632: expected a finite number, got nan"),
        "mod_not_an_object": (lambda d: d["feeders"][0].update(mods=[5]),
                              "modification step 5 is not an object"),
    }

    @pytest.mark.parametrize("sequential", [False, True], ids=["first", "sequential"])
    @pytest.mark.parametrize("probe", sorted(SCENARIO_PROBES))
    def test_malformed_scenario_exit_1_without_traceback(self, capsys, tmp_path, data_dir,
                                                         probe, sequential):
        doc = json.loads((data_dir / "ieee13_dual.json").read_text())
        doc.update(base_feeder=str(data_dir / doc["base_feeder"]),
                   shared_mods=str(data_dir / doc["shared_mods"]))
        mutate, detail = self.SCENARIO_PROBES[probe]
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        args = ["scenario", str(bad)] + (["--sequential"] if sequential else [])
        self.assert_clean_exit_1(*run(capsys, *args), detail=detail)

    @staticmethod
    def assert_clean_exit_1(rc, out, err, detail, error="NetworkError"):
        assert rc == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert first_json_line(err) == {"error": error, "detail": detail}


    @pytest.mark.parametrize("script,detail", [
        (5, "a modification script must be a list of steps, got 5"),
        ({"mods": None}, "a modification script must be a list of steps, got None"),
        ([{"op": "scale_loads", "factor": 2}, "x"], "modification step 'x' is not an object"),
    ], ids=["number", "null_mods", "string_step"])
    def test_malformed_script_exit_1(self, capsys, tmp_path, data_dir, script, detail):
        path = tmp_path / "mods.json"
        path.write_text(json.dumps(script))
        self.assert_clean_exit_1(
            *run(capsys, "modify", str(data_dir / "ieee13_raw.json"), "--script", str(path),
                 "-o", str(tmp_path / "out.json")), detail=detail)


class TestDocumentReading:
    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_input_file_parsed_once(self, capsys, monkeypatch, feeder13, command):
        calls = []
        load = json.load
        monkeypatch.setattr(json, "load", lambda fh, **kw: calls.append(fh.name) or load(fh, **kw))
        rc, _, _ = run(capsys, command, feeder13)
        assert rc == 0
        assert calls == [feeder13]

    def test_large_load_linearize_exits_cleanly(self, capsys, tmp_path, data_dir):
        # a 1e6 p.u. load: the audit's bound scales with the draw, so the
        # linear solve passes it (the exact solve does not converge, exit 2);
        # the model's squared magnitude then goes negative, which is reported
        doc = json.loads((data_dir / "ieee13.json").read_text())
        doc["loads"][0]["re"] = 1e6
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "linearize", str(big))
        assert rc == 1
        assert "Traceback" not in err
        assert first_json_line(err) == {
            "error": "ValueError",
            "detail": "the linear model gives 634.a a negative squared magnitude -5.66604: "
                      "no voltage magnitude exists there"}
        assert run(capsys, "solve", str(big))[0] == 2


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

    def test_steep_volt_var_droop_solves(self, capsys, tmp_path):
        # a 0.001 p.u. droop band: an outer fixed point on the volt-var draw
        # never settles it, Newton with the droop in its residual does
        net = two_bus([LoadSpec("m", p, 0.5 + 0.2j, beta_s=1.0, beta_z=0.0) for p in "abc"],
                      [VvcSpec("m", p, -0.1, 0.1, 0.995, 0.996) for p in "abc"])
        path = tmp_path / "steep.json"
        dump_feeder(net, path)
        rc, out, _ = run(capsys, "solve", str(path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["iterations"] <= 10
        assert set(doc["vvc_q"]) == {"m.a", "m.b", "m.c"}

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
