import importlib.util
import json
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
from phasorflow.model import NetworkError


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
