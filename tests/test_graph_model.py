import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcn_resilience.graph_model import (BALANCE_MODELS, MAX_ARC_BALANCE,
                                        MAX_SAT, PcnGraph, SnapshotError,
                                        ValidationError,
                                        connected_components, graph_from_dict,
                                        largest_connected_component,
                                        load_snapshot, remove_nodes)

from oracles import union_find_components

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "fixture_snapshot.json"


def make_graph(nodes, pairs, capacity=100):
    """Tiny graph builder for tests: pairs are (a, b) tuples."""
    return graph_from_dict({
        "nodes": [{"pub_key": n} for n in nodes],
        "edges": [
            {"channel_id": f"c{i}", "node1_pub": a, "node2_pub": b,
             "capacity": capacity}
            for i, (a, b) in enumerate(pairs)
        ],
    })


class TestLoadSnapshot:
    def test_three_node_fixture(self):
        g = load_snapshot(FIXTURE)
        assert g.node_count == 3
        assert g.edge_count == 3
        caps = sorted(e.capacity for e in g.edges.values())
        assert caps == [75000, 100000, 125000]
        for e in g.edges.values():
            assert e.balance_ab == e.balance_ba == e.capacity

    def test_half_split(self):
        g = load_snapshot(FIXTURE, balance_model="half-split")
        for e in g.edges.values():
            assert e.balance_ab == e.capacity // 2

    def test_empty_graph(self):
        g = graph_from_dict({"nodes": [], "edges": []})
        assert g.node_count == 0 and g.edge_count == 0

    def test_dangling_endpoint_names_channel(self):
        with pytest.raises(ValidationError, match="chX"):
            graph_from_dict({
                "nodes": [{"pub_key": "a"}],
                "edges": [{"channel_id": "chX", "node1_pub": "a",
                           "node2_pub": "ghost", "capacity": 5}],
            })

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            graph_from_dict({
                "nodes": [{"pub_key": "a"}],
                "edges": [{"channel_id": "c", "node1_pub": "a",
                           "node2_pub": "a", "capacity": 5}],
            })

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValidationError, match="capacity"):
            graph_from_dict({
                "nodes": [{"pub_key": "a"}, {"pub_key": "b"}],
                "edges": [{"channel_id": "c", "node1_pub": "a",
                           "node2_pub": "b", "capacity": 0}],
            })

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_default_fee_policy(self):
        g = load_snapshot(FIXTURE)
        e = g.edges["ch3"]  # no policies in the fixture
        assert e.policy_ab.base_fee_msat == 1000
        assert e.policy_ab.rate_ppm == 1

    def test_round_trip(self, tmp_path):
        g = load_snapshot(FIXTURE)
        out = tmp_path / "snap.json"
        out.write_text(json.dumps(g.to_snapshot_dict()))
        g2 = load_snapshot(out, balance_model="explicit")
        assert g2.nodes == g.nodes
        assert set(g2.edges) == set(g.edges)
        for cid, e in g.edges.items():
            e2 = g2.edges[cid]
            assert (e2.a, e2.b, e2.capacity) == (e.a, e.b, e.capacity)
            assert (e2.balance_ab, e2.balance_ba) == (e.balance_ab, e.balance_ba)
            assert e2.policy_ab == e.policy_ab and e2.policy_ba == e.policy_ba


def _edge(**fields):
    rec = {"channel_id": "c0", "node1_pub": "a", "node2_pub": "b",
           "capacity": 10}
    rec.update(fields)
    return {"nodes": [{"pub_key": "a"}, {"pub_key": "b"}], "edges": [rec]}


class TestRecordTypes:
    """Wrongly typed records raise a snapshot error, never a TypeError or
    AttributeError from deep inside ingest."""

    @pytest.mark.parametrize("data", [
        [], "nodes", {"nodes": 5}, {"nodes": ["x"]}, {"nodes": [None]},
        {"nodes": [{"pub_key": "a"}], "edges": {"c0": {}}},
        {"nodes": [{"pub_key": "a"}], "edges": 7},
        {"nodes": [{"pub_key": "a"}], "edges": ["c0"]},
        _edge(node1_policy="cheap"), _edge(node2_policy=[1, 2]),
    ], ids=["list", "string", "nodes-int", "node-string", "node-null",
            "edges-dict", "edges-int", "edge-string", "policy-string",
            "policy-list"])
    def test_wrong_container_is_snapshot_error(self, data):
        with pytest.raises(SnapshotError):
            graph_from_dict(data)

    @pytest.mark.parametrize("data", [
        {"nodes": [{"pub_key": ["a"]}]}, {"nodes": [{"pub_key": 5}]},
        _edge(node1_pub=["a"]), _edge(node2_pub={"k": "b"}),
        _edge(capacity=float("inf")), _edge(capacity=[10]),
        _edge(node1_policy={"fee_base_msat": [1]}),
        _edge(node2_policy={"fee_rate_milli_msat": "x"}),
    ], ids=["pub-key-list", "pub-key-int", "endpoint-list", "endpoint-dict",
            "capacity-inf", "capacity-list", "base-fee-list", "fee-rate-text"])
    def test_wrong_field_is_validation_error(self, data):
        with pytest.raises(ValidationError):
            graph_from_dict(data)

    def test_explicit_balance_overflow(self):
        with pytest.raises(ValidationError):
            graph_from_dict(_edge(node1_balance=float("inf"), node2_balance=1),
                            balance_model="explicit")


class TestAmountBounds:
    """Amounts above the bitcoin supply would overflow the int64 view."""

    def test_capacity_above_supply_rejected(self):
        graph_from_dict(_edge(capacity=MAX_SAT))
        with pytest.raises(ValidationError, match="c0"):
            graph_from_dict(_edge(capacity=MAX_SAT + 1))
        with pytest.raises(ValidationError, match="c0"):
            graph_from_dict(_edge(capacity=10**20))

    def test_explicit_balance_above_supply_rejected(self):
        with pytest.raises(ValidationError, match="c0"):
            graph_from_dict(_edge(capacity=5, node1_balance=10**20,
                                  node2_balance=0), balance_model="explicit")

    def test_explicit_balances_above_capacity_rejected(self):
        with pytest.raises(ValidationError,
                           match="c0 has balances 9 \\+ 9 above its capacity 5"):
            graph_from_dict(_edge(capacity=5, node1_balance=9, node2_balance=9),
                            balance_model="explicit")
        with pytest.raises(ValidationError, match="c0"):
            graph_from_dict(_edge(capacity=5, node1_balance=5, node2_balance=1),
                            balance_model="explicit")
        # a split below the capacity (in-flight funds, reserves) is legal,
        # and so is the capacity-both-ways state `to_snapshot_dict` writes
        for ab, ba in ((2, 2), (5, 0), (5, 5)):
            e = graph_from_dict(_edge(capacity=5, node1_balance=ab,
                                      node2_balance=ba),
                                balance_model="explicit").edges["c0"]
            assert (e.balance_ab, e.balance_ba) == (ab, ba)


    def test_fee_fields_above_u32_rejected(self):
        bound = 2**32 - 1
        graph_from_dict(_edge(node1_policy={"fee_base_msat": bound,
                                            "fee_rate_milli_msat": bound}))
        for policy in ({"fee_base_msat": bound + 1},
                       {"fee_rate_milli_msat": 10**30}):
            with pytest.raises(ValidationError,
                               match=f"^channel c0 has a fee field above {bound}$"):
                graph_from_dict(_edge(node2_policy=policy))


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats()
    | st.sampled_from(["", "a", "b", "c0", "1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["x", "fee_base_msat"]), inner, max_size=2),
    max_leaves=6)
_node = st.fixed_dictionaries(
    {}, optional={"pub_key": _json | st.sampled_from(["a", "b"])})
_edge_rec = st.fixed_dictionaries({}, optional={
    key: _json for key in ("channel_id", "node1_pub", "node2_pub", "capacity",
                           "node1_balance", "node2_balance",
                           "node1_policy", "node2_policy")})


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({}, optional={
           "nodes": st.lists(_node | _json, max_size=3) | _json,
           "edges": st.lists(_edge_rec | _json, max_size=3) | _json}),
       st.sampled_from(BALANCE_MODELS))
def test_any_snapshot_loads_or_raises_snapshot_error(data, balance_model):
    try:
        graph_from_dict(data, balance_model=balance_model)
    except (SnapshotError, ValidationError):
        pass


class TestComponents:
    def test_two_triangles_and_square(self):
        g = make_graph(
            list("abcdefghij"),
            [("a", "b"), ("b", "c"), ("c", "a"),
             ("d", "e"), ("e", "f"), ("f", "d"),
             ("g", "h"), ("h", "i"), ("i", "j"), ("j", "g")])
        lcc = largest_connected_component(g)
        assert lcc.nodes == {"g", "h", "i", "j"}

    def test_connected_graph_is_identity(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        lcc = largest_connected_component(g)
        assert lcc.nodes == g.nodes
        assert set(lcc.edges) == set(g.edges)

    def test_tie_break_smallest_member(self):
        g = make_graph(["a", "b", "x", "y"], [("a", "b"), ("x", "y")])
        assert largest_connected_component(g).nodes == {"a", "b"}

    def test_empty(self):
        assert largest_connected_component(PcnGraph()).node_count == 0

    def test_sizes_sum_to_node_count(self):
        g = make_graph(list("abcdefg"),
                       [("a", "b"), ("c", "d"), ("d", "e")])
        comps = connected_components(g)
        assert sum(len(c) for c in comps) == g.node_count

    def test_against_union_find(self):
        g = make_graph(list("abcdefgh"),
                       [("a", "b"), ("b", "c"), ("d", "e"), ("f", "g")])
        ours = sorted(sorted(c) for c in connected_components(g))
        oracle = sorted(sorted(c) for c in union_find_components(
            g.nodes, [(e.a, e.b) for e in g.edges.values()]))
        assert ours == oracle


def test_simple_view_is_cached_per_graph():
    g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")])
    view = g.simple_graph()
    assert g.simple_graph() is view
    assert view.capacity.tolist() == [200, 200, 100, 100]
    for other in (g.copy(), largest_connected_component(g),
                  remove_nodes(g, ["c"])):
        assert other.simple_graph() is not view


def explicit_channels(channels):
    """Graph from (channel_id, a, b, balance_ab, balance_ba) tuples."""
    nodes = sorted({v for _, a, b, _, _ in channels for v in (a, b)})
    return graph_from_dict({
        "nodes": [{"pub_key": v} for v in nodes],
        "edges": [{"channel_id": cid, "node1_pub": a, "node2_pub": b,
                   "capacity": ab + ba, "node1_balance": ab, "node2_balance": ba}
                  for cid, a, b, ab, ba in channels],
    }, balance_model="explicit")


class TestBalanceDigraph:
    def test_parallel_channels_summed_per_direction(self):
        g = explicit_channels([("c0", "b", "a", 7, 3), ("c1", "a", "b", 5, 2),
                               ("c2", "b", "c", 4, 0)])
        arcs, index = g.balance_digraph()
        assert index == {"a": 0, "b": 1, "c": 2}
        assert arcs.toarray().tolist() == [[0, 8, 0],
                                           [9, 0, 4],
                                           [0, 0, 0]]

    def test_large_arc_split_through_relays(self):
        big = 3_000_000_000
        g = explicit_channels([("c0", "a", "b", big, 1)])
        arcs, index = g.balance_digraph()
        dense = arcs.toarray()
        relays = range(len(index), dense.shape[0])
        assert len(relays) == -(-big // MAX_ARC_BALANCE)
        assert dense.max() <= MAX_ARC_BALANCE
        assert dense[index["a"], index["b"]] == 0
        assert dense[index["b"], index["a"]] == 1
        assert [int(dense[index["a"], r]) for r in relays] == \
               [int(dense[r, index["b"]]) for r in relays]
        assert sum(int(dense[index["a"], r]) for r in relays) == big


def test_outbound_balances_match_per_node_query():
    g = explicit_channels([("c0", "b", "a", 7, 3), ("c1", "a", "b", 5, 2),
                           ("c2", "b", "c", 4, 0)])
    assert g.outbound_balances() == {"a": 8, "b": 13, "c": 0}
    assert g.outbound_balances() == {v: g.outbound_balance(v) for v in g.nodes}


class TestRemoveNodes:
    def test_star_center(self):
        leaves = [f"l{i}" for i in range(5)]
        g = make_graph(["hub"] + leaves, [("hub", l) for l in leaves])
        g2 = remove_nodes(g, ["hub"])
        assert g2.node_count == 5 and g2.edge_count == 0

    def test_remove_nothing(self):
        g = make_graph(["a", "b"], [("a", "b")])
        g2 = remove_nodes(g, [])
        assert g2.nodes == g.nodes and set(g2.edges) == set(g.edges)

    def test_input_not_modified(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        remove_nodes(g, ["b"])
        assert g.node_count == 3 and g.edge_count == 2

    def test_unknown_target(self):
        g = make_graph(["a", "b"], [("a", "b")])
        with pytest.raises(KeyError, match="zz"):
            remove_nodes(g, ["zz"])

    def test_articulation_point_splits(self):
        # path of two triangles joined through 'c'
        g = make_graph(list("abcde"),
                       [("a", "b"), ("b", "c"), ("a", "c"),
                        ("c", "d"), ("d", "e"), ("c", "e")])
        g2 = remove_nodes(g, ["c"])
        assert len(connected_components(g2)) == 2


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_remove_nodes_composes_over_disjoint_sets(data):
    nodes = [f"n{i}" for i in range(8)]
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        .filter(lambda p: p[0] != p[1]),
        max_size=12))
    g = make_graph(nodes, pairs)
    removable = data.draw(st.sets(st.sampled_from(nodes), max_size=6))
    removable = sorted(removable)
    split = data.draw(st.integers(0, len(removable)))
    a, b = removable[:split], removable[split:]
    combined = remove_nodes(g, a + b)
    stepwise = remove_nodes(remove_nodes(g, a), b)
    assert combined.nodes == stepwise.nodes
    assert set(combined.edges) == set(stepwise.edges)
