import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcn_resilience.graph_model import (MAX_ARC_BALANCE, PcnGraph,
                                        SnapshotError, ValidationError,
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
