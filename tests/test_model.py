import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasorflow import model
from phasorflow.model import (
    DerSpec,
    LineConfig,
    LineSpec,
    LoadSpec,
    Network,
    NetworkError,
    NodeSpec,
    VvcSpec,
    _det,
    canonical_phases,
    wrap_angle,
)

Z1 = [[0.01 + 0.02j]]
Z3 = np.diag([0.01 + 0.02j, 0.011 + 0.021j, 0.012 + 0.022j]).tolist()


def two_node(loads=(), lines=None, **kwargs):
    nodes = (NodeSpec("source", "abc"), NodeSpec("n1", "abc"))
    if lines is None:
        lines = (LineSpec("source", "n1", "abc", Z3, name="ln"),)
    return Network(nodes=nodes, lines=lines, loads=tuple(loads), **kwargs)


class TestPhases:
    def test_canonical_order(self):
        assert canonical_phases("ca") == ("a", "c")
        assert canonical_phases(["b"]) == ("b",)
        assert canonical_phases("abc") == ("a", "b", "c")

    def test_rejects_bad_sets(self):
        with pytest.raises(NetworkError):
            canonical_phases("")
        with pytest.raises(NetworkError):
            canonical_phases("ax")
        with pytest.raises(NetworkError):
            canonical_phases("aa")


    def test_rejections_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(NetworkError, match="unknown phase 'x'"):
                canonical_phases(["a", "x"])
        assert canonical_phases(("c", "a")) == canonical_phases("ca") == ("a", "c")


class TestLineImpedance:
    """Direct construction validates whatever form ``z_pu`` comes in, and
    every form gives the same tuples of Python complex numbers."""

    def test_every_form_gives_the_same_line(self):
        z = np.array([[0.1 + 0.3j, 0.05 + 0.1j], [0.05 + 0.1j, 0.12 + 0.31j]])
        lines = [LineSpec("x", "y", "ab", form)
                 for form in (z, z.tolist(), tuple(map(tuple, z.tolist())))]
        assert all(ln == lines[0] and hash(ln) == hash(lines[0]) for ln in lines)
        assert all(type(v) is complex for row in lines[0].z_pu for v in row)
        assert isinstance(lines[0].z_pu, tuple) and isinstance(lines[0].z_pu[0], tuple)

    def test_wrong_shape_and_singular_rejected(self):
        with pytest.raises(NetworkError, match="impedance must be 2x2, got \\(3, 3\\)"):
            LineSpec("x", "y", "ab", Z3)
        with pytest.raises(NetworkError, match="impedance must be 1x1, got \\(2,\\)"):
            LineSpec("x", "y", "a", [0.1 + 0.2j, 0.1j])
        with pytest.raises(NetworkError, match="singular"):
            LineSpec("x", "y", "abc", [[0.02 + 0.06j] * 3] * 3)
        with pytest.raises(NetworkError, match="singular"):
            LineSpec("x", "y", "ab", [[1e-16 + 0j, 0j], [0j, 1e-15 + 0j]])
        assert not LineSpec("x", "y", "ab", [[1e-14 + 0j, 0j], [0j, 1e-15 + 0j]]).is_ideal

    def test_ragged_rows_rejected(self):
        with pytest.raises(NetworkError) as err:
            LineSpec("a", "b", "ab", [[0.1, 0.2], [0.3]])
        assert str(err.value) == "line a-b: expected a matrix, got rows of lengths [2, 1]"
        with pytest.raises(NetworkError) as err:
            LineConfig("ab", [[0.1, 0.2], [0.3]])
        assert str(err.value) == "config: expected a matrix, got rows of lengths [2, 1]"

    @pytest.mark.parametrize("bad, detail", [
        (math.nan, "impedance entry (nan+0j) is not finite"),
        (math.inf, "impedance entry (inf+0j) is not finite"),
        ("x", "impedance entries must be numbers, got [[0.1, 0.2], [0.3, 'x']]"),
    ])
    def test_non_finite_and_non_numeric_entries_rejected(self, bad, detail):
        with pytest.raises(NetworkError) as err:
            LineSpec("a", "b", "ab", [[0.1, 0.2], [0.3, bad]])
        assert str(err.value) == f"line a-b: {detail}"
        with pytest.raises(NetworkError) as err:
            LineConfig("ab", [[0.1, 0.2], [0.3, bad]])
        assert str(err.value) == f"config: {detail}"

    def test_non_finite_complex_rows_rejected(self):
        # rows of Python complex numbers skip numpy, and are checked too
        with pytest.raises(NetworkError) as err:
            LineSpec("a", "b", "a", [[complex(0.1, math.inf)]])
        assert str(err.value) == "line a-b: impedance entry (0.1+infj) is not finite"

    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_closed_form_determinant_matches_lu(self, k, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        got = _det(tuple(map(tuple, z.tolist())))
        assert abs(got - np.linalg.det(z)) <= 1e-12 * max(1.0, float(np.max(np.abs(z))) ** k)


class TestSpecs:
    def test_load_betas_must_sum_to_one(self):
        LoadSpec("n1", "a", 0.1 + 0.05j, beta_s=0.85, beta_z=0.15)
        with pytest.raises(NetworkError):
            LoadSpec("n1", "a", 0.1, beta_s=0.9, beta_z=0.2)
        with pytest.raises(NetworkError):
            LoadSpec("n1", "a", 0.1, beta_s=1.5, beta_z=-0.5)

    @pytest.mark.parametrize("kwargs, got", [
        ({"demand": complex(math.nan, 0.0)}, "(nan+0j) and 0.0"),
        ({"demand": 0.1, "cap": math.inf}, "0.1 and inf"),
        ({"demand": "x"}, "'x' and 0.0"),
    ])
    def test_load_demand_and_cap_must_be_finite_numbers(self, kwargs, got):
        with pytest.raises(NetworkError) as err:
            LoadSpec("n", "a", **kwargs)
        assert str(err.value) == f"load at n.a: demand and cap must be finite numbers, got {got}"

    def test_der_capacity_nonnegative(self):
        DerSpec("n1", "a", 0.05)
        with pytest.raises(NetworkError):
            DerSpec("n1", "a", -0.01)

    def test_vvc_response_clamps(self):
        # consumption-positive: undervoltage injects vars (q_min), overvoltage absorbs
        vvc = VvcSpec("n1", "a", q_min=-0.05, q_max=0.05, v_min=0.95, v_max=1.05)
        assert vvc.response(0.90) == pytest.approx(-0.05)
        assert vvc.response(1.10) == pytest.approx(0.05)
        assert vvc.response(1.00) == pytest.approx(0.0)
        assert vvc.response(0.975) == pytest.approx(-0.025)

    def test_vvc_linear_coeffs_match_response_at_flat(self):
        vvc = VvcSpec("n1", "b", q_min=-0.04, q_max=0.04, v_min=0.96, v_max=1.04)
        k0, k1 = vvc.linear_coeffs()
        # linearization in E = |V|^2 agrees with the droop at |V| = 1
        assert k0 + k1 * 1.0 == pytest.approx(vvc.response(1.0), abs=1e-12)

    def test_line_is_ideal_flag(self):
        ideal = LineSpec("source", "n1", "ab", [[0, 0], [0, 0]], name="sw", is_switch=True)
        assert ideal.is_ideal
        real = LineSpec("source", "n1", "a", Z1, name="ln")
        assert not real.is_ideal

    def test_line_name_defaults_to_endpoints(self):
        ln = LineSpec("x", "y", "a", Z1)
        assert ln.name == "x-y"


class TestNetworkValidation:
    def test_accepts_minimal(self):
        net = two_node()
        assert net.channels == (("source", "a"), ("source", "b"), ("source", "c"),
                                ("n1", "a"), ("n1", "b"), ("n1", "c"))

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(NetworkError, match="duplicate node"):
            Network(nodes=(NodeSpec("source", "abc"), NodeSpec("source", "abc")),
                    lines=())

    def test_slack_must_exist_with_three_phases(self):
        with pytest.raises(NetworkError, match="slack"):
            Network(nodes=(NodeSpec("n1", "abc"),), lines=())
        z2 = [[0.01 + 0.02j, 0], [0, 0.01 + 0.02j]]
        with pytest.raises(NetworkError, match="slack"):
            Network(nodes=(NodeSpec("source", "ab"), NodeSpec("n1", "ab")),
                    lines=(LineSpec("source", "n1", "ab", z2),))

    def test_line_phase_must_exist_at_endpoints(self):
        nodes = (NodeSpec("source", "abc"), NodeSpec("n1", "ab"))
        with pytest.raises(NetworkError, match="absent"):
            Network(nodes=nodes, lines=(LineSpec("source", "n1", "abc", Z3),))

    def test_singular_impedance_rejected(self):
        bad = [[0.01, 0.01], [0.01, 0.01]]
        nodes = (NodeSpec("source", "abc"), NodeSpec("n1", "ab"))
        with pytest.raises(NetworkError, match="singular"):
            Network(nodes=nodes, lines=(LineSpec("source", "n1", "ab", bad),))

    def test_disconnected_channel_rejected(self):
        nodes = (NodeSpec("source", "abc"), NodeSpec("n1", "abc"), NodeSpec("n2", "a"))
        lines = (LineSpec("source", "n1", "abc", Z3),)
        with pytest.raises(NetworkError, match="connect"):
            Network(nodes=nodes, lines=lines)

    def test_load_on_unknown_channel_rejected(self):
        with pytest.raises(NetworkError):
            two_node(loads=[LoadSpec("n9", "a", 0.1)])


def class_of(net, ch):
    cf = net.compiled
    return cf.channel_class[cf.channel_pos[ch]]


class TestIndex:
    def test_slack_channels_pinned(self):
        net = two_node()
        cf = net.compiled
        for phase, want in zip("abc", net.slack_voltage):
            cls = class_of(net, ("source", phase))
            assert cf.free_pos[cls] == -1
            assert cf.v_flat[cls] == want
        assert all(cf.free_pos[class_of(net, ("n1", p))] >= 0 for p in "abc")

    def test_ideal_line_merges_classes(self):
        # zero-impedance tie makes n1 and n2 one electrical node per phase
        nodes = (NodeSpec("source", "abc"), NodeSpec("n1", "abc"), NodeSpec("n2", "abc"))
        lines = (LineSpec("source", "n1", "abc", Z3),
                 LineSpec("n1", "n2", "abc", np.zeros((3, 3)).tolist(), name="tie"))
        net = Network(nodes=nodes, lines=lines)
        for p in "abc":
            assert class_of(net, ("n1", p)) == class_of(net, ("n2", p))
            assert class_of(net, ("n1", p)) != class_of(net, ("source", p))

    def test_open_switch_does_not_merge(self):
        nodes = (NodeSpec("source", "abc"), NodeSpec("n1", "abc"), NodeSpec("n2", "abc"))
        lines = (LineSpec("source", "n1", "abc", Z3, name="l1"),
                 LineSpec("source", "n2", "abc", Z3, name="l2"),
                 LineSpec("n1", "n2", "abc", Z3, name="sw", is_switch=True, closed=False))
        net = Network(nodes=nodes, lines=lines)
        assert net.open_switches == ("sw",)
        assert class_of(net, ("n1", "a")) != class_of(net, ("n2", "a"))


def assemble_y_ff(net):
    """The free-class block of the nodal admittance, summed line by line
    over ``net.lines`` from each line's own inverse: the matrix whose
    inverse ``CompiledFeeder.z`` builds without forming it."""
    cf = net.compiled
    y = np.zeros((len(cf.free),) * 2, dtype=complex)
    for ln in net.lines:
        if not ln.closed or ln.is_ideal:
            continue
        y_ln = np.linalg.inv(ln.z)
        ends = [[cf.free_pos[class_of(net, (node, p))] for p in ln.phases]
                for node in (ln.from_node, ln.to_node)]
        for (rows, si), (cols, sj) in itertools.product(zip(ends, (1, -1)), repeat=2):
            for (i, r), (j, c) in itertools.product(enumerate(rows), enumerate(cols)):
                if r >= 0 and c >= 0:
                    y[r, c] += si * sj * y_ln[i, j]
    return y


def assert_z_inverts_y_ff(net):
    z = net.compiled.z
    assert np.max(np.abs(z @ assemble_y_ff(net) - np.eye(len(z))), initial=0.0) <= 1e-12


# A coupled impedance that is not symmetric, so a transposed or sign-flipped
# block shows.
ZC = [[0.02 + 0.06j, 0.01 + 0.03j, 0.008 + 0.025j],
      [0.011 + 0.028j, 0.021 + 0.062j, 0.009 + 0.027j],
      [0.007 + 0.024j, 0.01 + 0.029j, 0.019 + 0.058j]]
ZC2 = [row[:2] for row in ZC[:2]]
IDEAL1 = [[0j]]


def link_ranks(monkeypatch):
    """Record the rank of each Z-bus link."""
    ranks, link = [], model._link

    def record(z, frm, to, zk):
        ranks.append(len(zk))
        return link(z, frm, to, zk)

    monkeypatch.setattr(model, "_link", record)
    return ranks


def abc_net(extra_nodes, lines):
    nodes = (NodeSpec("source", "abc"),) + tuple(NodeSpec(n, p) for n, p in extra_nodes)
    return Network(nodes=nodes, lines=tuple(lines))


class TestZBus:
    """``CompiledFeeder.z`` built line by line against ``Y_ff`` assembled
    here, on the shapes the walk has a step for."""

    def test_shipped_feeders(self, ieee13, ieee37, dual13, dual37):
        for net in (ieee13, ieee37, dual13, dual37, dual37.close_switch("tie-1731-2731")):
            assert_z_inverts_y_ff(net)

    def test_radial_feeder_is_a_path_sum(self):
        # source -> n1 -> n2: Z is the sum of the impedances two classes share
        net = abc_net([("n1", "abc"), ("n2", "abc")],
                      [LineSpec("source", "n1", "abc", ZC, name="l1"),
                       LineSpec("n1", "n2", "abc", Z3, name="l2")])
        cf = net.compiled
        pos = [[cf.free_pos[class_of(net, (n, p))] for p in "abc"] for n in ("n1", "n2")]
        z1, z12 = np.array(ZC), np.array(ZC) + np.array(Z3)
        assert np.array_equal(cf.z[np.ix_(pos[0], pos[0])], z1)
        assert np.array_equal(cf.z[np.ix_(pos[0], pos[1])], z1)
        assert np.array_equal(cf.z[np.ix_(pos[1], pos[0])], z1)
        assert np.array_equal(cf.z[np.ix_(pos[1], pos[1])], z12)

    def test_parallel_lines(self, monkeypatch):
        ranks = link_ranks(monkeypatch)
        net = abc_net([("n1", "abc"), ("n2", "abc")],
                      [LineSpec("source", "n1", "abc", ZC, name="l1"),
                       LineSpec("n1", "n2", "abc", Z3, name="l2"),
                       LineSpec("n1", "n2", "abc", ZC, name="l3")])
        assert_z_inverts_y_ff(net)
        assert ranks == [3]  # the second line's three ends, in one link

    def test_line_whose_ends_share_a_class(self):
        # n1.a and n2.a are one class; l3 joins them and nothing else, l2
        # joins them on phase a and places n2.b and n2.c
        for lines in ([LineSpec("n1", "n2", "abc", ZC, name="l2")],
                      [LineSpec("source", "n2", "abc", ZC, name="l2"),
                       LineSpec("n1", "n2", "a", Z1, name="l3")]):
            net = abc_net([("n1", "abc"), ("n2", "abc")],
                          [LineSpec("source", "n1", "abc", Z3, name="l1"),
                           LineSpec("n1", "n2", "a", IDEAL1, name="tie")] + lines)
            assert class_of(net, ("n1", "a")) == class_of(net, ("n2", "a"))
            assert_z_inverts_y_ff(net)

    def test_partial_line(self, monkeypatch):
        # C.a is B.a through the coupling, so A -> C reaches a placed class
        # on phase a and new ones on b and c
        ranks = link_ranks(monkeypatch)
        net = abc_net([("A", "abc"), ("B", "abc"), ("C", "abc")],
                      [LineSpec("source", "A", "abc", ZC, name="sa"),
                       LineSpec("source", "B", "abc", Z3, name="sb"),
                       LineSpec("A", "C", "abc", ZC, name="ac"),
                       LineSpec("B", "C", "a", IDEAL1, name="bc")])
        assert_z_inverts_y_ff(net)
        assert ranks == [1]  # phase a's fresh slot merged with B.a

    def test_line_with_new_ends_on_both_sides(self):
        # X.a is P.a and Y.b is P.b, so X -> Y places Y.a and X.b
        net = abc_net([("P", "abc"), ("X", "ab"), ("Y", "ab")],
                      [LineSpec("source", "P", "abc", Z3, name="sp"),
                       LineSpec("P", "X", "a", IDEAL1, name="px"),
                       LineSpec("P", "Y", "b", IDEAL1, name="py"),
                       LineSpec("X", "Y", "ab", ZC2, name="xy")])
        assert_z_inverts_y_ff(net)

    def test_lines_that_each_wait_for_the_other(self):
        # X -> Y waits for an end on phase b, Y -> V for one on phase a; each
        # holds the other's, so the walk grounds X.b for a while
        net = abc_net([("P", "abc"), ("X", "ab"), ("Y", "ab"), ("V", "ab")],
                      [LineSpec("source", "P", "abc", ZC, name="sp"),
                       LineSpec("P", "X", "a", IDEAL1, name="px"),
                       LineSpec("P", "V", "b", IDEAL1, name="pv"),
                       LineSpec("X", "Y", "ab", ZC2, name="xy"),
                       LineSpec("Y", "V", "ab", ZC2, name="yv")])
        assert_z_inverts_y_ff(net)

    def test_no_free_class(self):
        net = abc_net([("n1", "abc")],
                      [LineSpec("source", "n1", "abc", np.zeros((3, 3)).tolist(), name="tie"),
                       LineSpec("source", "n1", "abc", ZC, name="l1")])
        assert net.compiled.z.shape == (0, 0)


class TestSwitching:
    def test_close_switch_returns_new_network(self):
        nodes = (NodeSpec("source", "abc"), NodeSpec("n1", "abc"), NodeSpec("n2", "abc"))
        lines = (LineSpec("source", "n1", "abc", Z3, name="l1"),
                 LineSpec("source", "n2", "abc", Z3, name="l2"),
                 LineSpec("n1", "n2", "abc", Z3, name="sw", is_switch=True, closed=False))
        net = Network(nodes=nodes, lines=lines)
        closed = net.close_switch("sw")
        assert closed is not net
        assert closed.open_switches == ()
        assert net.open_switches == ("sw",)

    def test_close_unknown_switch_fails(self):
        net = two_node()
        with pytest.raises(NetworkError):
            net.close_switch("nope")


def test_slack_phasor_rotation():
    net = two_node()
    assert net.slack_phasor("a") == pytest.approx(1.0)
    assert math.degrees(np.angle(net.slack_phasor("b"))) == pytest.approx(-120.0)
    assert math.degrees(np.angle(net.slack_phasor("c"))) == pytest.approx(120.0)


def test_wrap_angle_range():
    vals = np.array([0.0, math.pi, -math.pi, 3 * math.pi, -7.5])
    wrapped = wrap_angle(vals)
    assert np.all(wrapped > -math.pi - 1e-12)
    assert np.all(wrapped <= math.pi + 1e-12)
    assert wrap_angle(0.1) == pytest.approx(0.1)


class TestWrapAngleProperties:
    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_range_and_congruence(self, x):
        w = float(wrap_angle(x))
        assert -math.pi < w <= math.pi
        turns = (x - w) / (2.0 * math.pi)
        # removal of whole turns only
        assert abs(turns - round(turns)) < 1e-9 * max(1.0, abs(x))

    @given(st.floats(min_value=-math.pi + 1e-9, max_value=math.pi))
    def test_identity_inside_branch(self, x):
        assert float(wrap_angle(x)) == pytest.approx(x, abs=1e-12)


vvc_units = st.builds(
    VvcSpec,
    node=st.just("n1"),
    phase=st.sampled_from("abc"),
    q_min=st.floats(min_value=-0.3, max_value=-0.001),
    q_max=st.floats(min_value=0.001, max_value=0.3),
    v_min=st.floats(min_value=0.85, max_value=0.97),
    v_max=st.floats(min_value=1.03, max_value=1.15),
)


class TestVvcProperties:
    @given(vvc_units, st.floats(min_value=0.5, max_value=1.5))
    def test_response_clamped_and_monotone(self, unit, v):
        q = unit.response(v)
        assert unit.q_min <= q <= unit.q_max
        assert unit.response(v + 0.01) >= q

    @given(vvc_units, st.floats(min_value=0.0, max_value=1.0))
    def test_squared_voltage_segment_matches_droop(self, unit, t):
        # on the unclamped band the E-domain coefficients reproduce the
        # droop exactly under the substitution E = 2|V| - 1
        v = unit.v_min + t * (unit.v_max - unit.v_min)
        k0, k1 = unit.linear_coeffs()
        assert k0 + k1 * (2.0 * v - 1.0) == pytest.approx(unit.response(v), abs=1e-12)

    @given(vvc_units, st.floats(min_value=-1.0, max_value=2.0))
    def test_compiled_droop_matches_response(self, unit, t):
        # t < 0 lies below the band, 0 < t < 1 inside it, t > 1 above it;
        # the band edges themselves are checked at every example
        width = unit.v_max - unit.v_min
        m = np.array([unit.v_min + t * width, unit.v_min, unit.v_max])
        q, dq = two_node(vvc_units=(unit,)).compiled.vvc_droop(m)
        assert q.tolist() == [unit.response(x) for x in m.tolist()]
        inside = [unit.v_min < x < unit.v_max for x in m.tolist()]
        assert dq.tolist() == [unit.slope if i else 0.0 for i in inside]
