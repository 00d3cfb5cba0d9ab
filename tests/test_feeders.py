import copy
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from phasorflow.feeders import (
    apply_modifications,
    dump_feeder,
    load_feeder,
    merge_with_switch,
    network_from_dict,
    network_to_dict,
    relabel_nodes,
    scale_loads,
)
from phasorflow.experiments import build_scenario_network, load_scenario
from phasorflow.model import LoadSpec, NetworkError


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self, ieee13):
        doc = network_to_dict(ieee13)
        back = network_from_dict(doc)
        assert back.nodes == ieee13.nodes
        assert back.lines == ieee13.lines
        assert back.loads == ieee13.loads
        assert back.slack_voltage == ieee13.slack_voltage
        assert back.s_base_va == ieee13.s_base_va
        assert back.v_base_v == ieee13.v_base_v

    def test_zero_demand_and_capacitor_only_loads_keep_their_place(self, ieee13):
        # demand-free loads used to be dropped or moved behind the others
        loads = ((LoadSpec("675", "a", 0j), LoadSpec("632", "b", 0j, beta_s=0.5, beta_z=0.5,
                                                      cap=0.02))
                 + ieee13.loads)
        net = replace(ieee13, loads=loads)
        assert network_from_dict(network_to_dict(net)) == net

    def test_file_round_trip(self, ieee13, tmp_path):
        out = tmp_path / "copy.json"
        dump_feeder(ieee13, out)
        again = load_feeder(out)
        assert again.lines == ieee13.lines
        assert again.loads == ieee13.loads

    def test_comment_keys_are_ignored(self, raw13_doc):
        # provenance notes ride along in the files; the parser must skip them
        assert "comment" in raw13_doc
        net = network_from_dict(raw13_doc)
        assert len(net.nodes) > 10

    def test_comment_keys_are_ignored_at_every_level(self, raw13_doc):
        plain = without_comments(raw13_doc)
        plain["der"] = [{"node": "675", "phase": "a", "capacity": 0.05}]
        plain["vvc"] = [{"node": "671", "phase": "b", "q_min": -0.01, "q_max": 0.01,
                         "v_min": 0.95, "v_max": 1.05}]
        noted = copy.deepcopy(plain)
        note = {"comment": "a note", "comment_source": {"nested": [1, {"x": None}]}}
        for section in ("bases", "slack"):
            noted[section].update(note)
        for section in ("nodes", "lines", "loads", "caps", "der", "vvc"):
            for entry in noted[section]:
                entry.update(note)
        for cfg in noted["line_configs"].values():
            cfg.update(note)
        noted["line_configs"]["comment_601"] = {"phases": 5}  # not a config
        noted.update(note)
        net = network_from_dict(noted)
        assert net == network_from_dict(plain)
        assert sorted(net.line_configs) == sorted(plain["line_configs"])

        mod = {"op": "add_spot_load", "node": "675", "phase": "b", "demand": [0.01, 0.0]}
        assert (apply_modifications(net, [dict(mod, **note)])
                == apply_modifications(net, [mod]))
        switch = {"from": "675", "to": "652", "config": "607", "length_ft": 100.0}
        other = relabel_nodes(net, "2", keep=("source",))
        assert (merge_with_switch(net, other, dict(switch, **note))
                == merge_with_switch(net, other, switch))

    @pytest.mark.parametrize("name", ["ieee13.json", "ieee37.json", "ieee13_raw.json",
                                      "ieee37_raw.json", "ieee13_dual.json",
                                      "ieee37_dual.json"])
    def test_dict_round_trip_is_identity_on_shipped_documents(self, data_dir, name):
        if "dual" in name:
            net = build_scenario_network(load_scenario(data_dir / name))
        else:
            net = load_feeder(data_dir / name)
        assert network_from_dict(network_to_dict(net)) == net


def without_comments(obj):
    """A copy of a parsed document with every ``comment*`` key dropped."""
    if isinstance(obj, dict):
        return {k: without_comments(v) for k, v in obj.items() if not k.startswith("comment")}
    if isinstance(obj, list):
        return [without_comments(v) for v in obj]
    return obj


class TestShippedData:
    @pytest.mark.parametrize("name,nodes,loads", [
        ("ieee13.json", 14, 14),
        ("ieee37.json", 38, 32),
    ])
    def test_processed_feeders_load(self, data_dir, name, nodes, loads):
        net = load_feeder(data_dir / name)
        assert len(net.nodes) == nodes
        assert len(net.loads) == loads

    def test_raw_plus_mods_equals_processed(self, data_dir):
        raw = load_feeder(data_dir / "ieee13_raw.json")
        with open(data_dir / "mods_ieee13.json") as handle:
            mods = json.load(handle)["mods"]
        got = apply_modifications(raw, mods)
        want = load_feeder(data_dir / "ieee13.json")
        assert got.nodes == want.nodes
        assert got.lines == want.lines
        assert got.loads == want.loads

    def test_base_quantities(self, ieee13, ieee37):
        assert ieee13.s_base_va == pytest.approx(3.0e6)
        assert ieee13.v_base_v == pytest.approx(4160.0)
        assert ieee37.v_base_v == pytest.approx(4800.0)
        assert ieee13.z_base_ohm == pytest.approx(4160.0**2 / 3.0e6)


class TestModifications:
    def test_remove_regulator_requires_ideal_line(self, ieee13):
        with pytest.raises(NetworkError, match="ideal"):
            apply_modifications(ieee13, [{"op": "remove_regulator", "line": "632-633"}])

    def test_add_spot_load(self, ieee13):
        before = len(ieee13.loads)
        net = apply_modifications(ieee13, [
            {"op": "add_spot_load", "node": "675", "phase": "a",
             "demand": [0.1, 0.05], "beta_s": 0.85, "beta_z": 0.15},
        ])
        assert len(net.loads) == before + 1
        added = net.loads[-1]
        assert added.demand == pytest.approx(0.1 + 0.05j)
        assert added.beta_z == pytest.approx(0.15)

    def test_unknown_op_rejected(self, ieee13):
        with pytest.raises(NetworkError, match="unknown modification"):
            apply_modifications(ieee13, [{"op": "frobnicate"}])

    def test_scale_loads(self, ieee13):
        net = scale_loads(ieee13, 1.5)
        for old, new in zip(ieee13.loads, net.loads):
            assert new.demand == pytest.approx(1.5 * old.demand)

    def test_add_switch_between_nodes(self, ieee13):
        net = apply_modifications(ieee13, [
            {"op": "add_switch", "from": "675", "to": "680", "config": "601",
             "length_ft": 100, "closed": False, "name": "tie"},
        ])
        assert "tie" in net.line_map
        assert net.open_switches == ("tie",)


class TestRelabelAndMerge:
    def test_relabel_prefixes_everything_but_kept(self, ieee13):
        net = relabel_nodes(ieee13, "1", keep=(ieee13.slack_id,))
        ids = {n.id for n in net.nodes}
        assert ieee13.slack_id in ids
        assert all(i.startswith("1") or i == ieee13.slack_id for i in ids)
        # loads follow their nodes
        assert all(ld.node.startswith("1") for ld in net.loads)

    def test_merge_with_switch_shares_slack(self, ieee13):
        f1 = relabel_nodes(ieee13, "1", keep=(ieee13.slack_id,))
        f2 = relabel_nodes(ieee13, "2", keep=(ieee13.slack_id,))
        merged = merge_with_switch(f1, f2, {
            "from": "1680", "to": "2680", "config": "601",
            "length_ft": 50, "closed": False, "name": "tie-1680-2680",
        })
        assert len(merged.nodes) == 2 * len(ieee13.nodes) - 1
        assert "tie-1680-2680" in merged.line_map
        assert merged.open_switches == ("tie-1680-2680",)

    def test_merge_rejects_colliding_ids(self, ieee13):
        with pytest.raises(NetworkError):
            merge_with_switch(ieee13, ieee13, {
                "from": "675", "to": "680", "config": "601",
                "length_ft": 50, "closed": False,
            })


def test_dual_scenario_network_shape(dual13, ieee13):
    # two relabeled twins joined at the slack, one open tie between them
    assert len(dual13.nodes) == 2 * len(ieee13.nodes) - 1
    assert dual13.open_switches == ("tie-1680-2680",)
    assert len(dual13.der_units) == 14
    assert len(dual13.vvc_units) == 12


def test_config_instantiation_scales_with_length(ieee13):
    cfg = ieee13.line_configs["601"]
    z100 = cfg.z_pu(100.0, ieee13.z_base_ohm)
    z200 = cfg.z_pu(200.0, ieee13.z_base_ohm)
    assert np.allclose(z200, 2.0 * z100)


def test_build_script_regenerates_shipped_data(tmp_path, data_dir, capsys):
    # scripts/build_data.py is the source of every shipped document; running
    # it into a scratch directory must reproduce them byte for byte
    script = Path(__file__).resolve().parents[1] / "scripts" / "build_data.py"
    spec = importlib.util.spec_from_file_location("build_data", script)
    build_data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_data)
    build_data.DATA = tmp_path
    build_data.main()
    shipped = sorted(p.name for p in data_dir.glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name
