import numpy as np
import pytest

from oracles import oracle_graph_diff
from references import build_graph, graph_stats, has_edge
from restore.graph import (
    DiGraph,
    gen_synthetic,
    graph_diff,
    graph_from_labeled_edges,
    khop_ego_subgraph,
)


def mirror_consistent(g):
    out_pairs = {(i, int(j)) for i in range(g.node_count) for j in g.out_neighbors(i)}
    in_pairs = {(int(j), i) for i in range(g.node_count) for j in g.in_neighbors(i)}
    return out_pairs == in_pairs


def test_constructor_normalises_pairs():
    # unsorted, with repeats and self-loops
    pairs = [(2, 0), (0, 3), (2, 2), (0, 1), (2, 0), (3, 3), (0, 3), (1, 2)]
    g = DiGraph(["a", "b", "c", "d"], pairs)
    assert g.edge_count == 4
    assert [g.out_neighbors(i).tolist() for i in range(4)] == [[1, 3], [2], [0], []]
    assert [g.in_neighbors(i).tolist() for i in range(4)] == [[2], [0], [1], [0]]
    assert mirror_consistent(g)
    src, dst = g.edge_array()
    assert list(zip(src.tolist(), dst.tolist())) == list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 0)]
    assert g.adjacency_matrix(bool).sum() == 4
    empty = DiGraph([], np.zeros((0, 2), dtype=np.int64))
    assert (empty.node_count, empty.edge_count) == (0, 0)
    assert empty.out_indptr.tolist() == empty.in_indptr.tolist() == [0]
    assert [a.shape for a in empty.edge_array()] == [(0,), (0,)]
    with pytest.raises(ValueError, match="range"):
        DiGraph(["a"], [(0, 1)])


def test_build_basic():
    g = build_graph([("a", "b"), ("b", "c")])
    assert g.node_count == 3
    assert g.edge_count == 2
    assert [g.label_of(i) for i in g.out_neighbors(g.index_of("a"))] == ["b"]
    assert mirror_consistent(g)


def test_build_dedup():
    g = build_graph([("a", "b"), ("a", "b")])
    assert g.edge_count == 1


def test_build_first_seen_order():
    g = build_graph([("x", "a"), ("a", "y")])
    assert g.labels == ("x", "a", "y")


def test_build_drops_self_loops():
    g = build_graph([("a", "a"), ("a", "b")])
    assert g.edge_count == 1
    assert not has_edge(g, g.index_of("a"), g.index_of("a"))


def test_build_empty_errors():
    with pytest.raises(ValueError, match="empty graph"):
        build_graph([])


def test_build_rejects_empty_label():
    with pytest.raises(ValueError):
        build_graph([("", "b")])


def test_four_cycle_degrees():
    g = build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    for i in range(4):
        assert g.out_neighbors(i).shape[0] == 1
        assert g.in_neighbors(i).shape[0] == 1


def test_khop_path_center_b():
    g = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
    sub = khop_ego_subgraph(g, "b", 1)
    assert set(sub.labels) == {"a", "b", "c"}
    assert set(sub.edge_label_pairs()) == {("a", "b"), ("b", "c")}
    assert mirror_consistent(sub)


def test_khop_full_reach():
    g = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
    sub = khop_ego_subgraph(g, "a", 3)
    assert set(sub.labels) == {"a", "b", "c", "d"}
    assert sub.edge_count == 3


def test_khop_isolated_center():
    g = graph_from_labeled_edges([("a", "b")], extra_nodes=["z"])
    sub = khop_ego_subgraph(g, "z", 2)
    assert sub.labels == ("z",)
    assert sub.edge_count == 0


def test_khop_unknown_center():
    g = build_graph([("a", "b")])
    with pytest.raises(ValueError, match="unknown node label"):
        khop_ego_subgraph(g, "nope", 1)


def test_khop_monotone_supersets():
    g = gen_synthetic("erdos", 30, seed=3)
    prev = None
    for k in range(1, 4):
        nodes = set(khop_ego_subgraph(g, "n0", k).labels)
        if prev is not None:
            assert prev <= nodes
        prev = nodes


def test_khop_diameter_recovers_graph():
    g = build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    sub = khop_ego_subgraph(g, "c", 4)
    assert set(sub.labels) == set(g.labels)
    assert set(sub.edge_label_pairs()) == set(g.edge_label_pairs())


def test_stats_four_cycle():
    g = gen_synthetic("cycle", 4, seed=0)
    s = graph_stats(g)
    assert s.node_count == 4
    assert s.edge_count == 4


def test_stats_single_edge_avg_out_degree():
    g = build_graph([("a", "b")])
    assert graph_stats(g).out_degree_avg == 0.5


def test_stats_star_max_out_degree():
    g = gen_synthetic("star", 6, seed=0)
    assert graph_stats(g).out_degree_max == 5


def test_diff_added_and_missing():
    orig = build_graph([("a", "b"), ("b", "c")])
    recon = build_graph([("a", "b"), ("a", "c")])
    d = graph_diff(orig, recon)
    assert d.added_edges == 1 and d.added_edge_list == [("a", "c")]
    assert d.missing_edges == 1 and d.missing_edge_list == [("b", "c")]
    assert d.added_nodes == 0 and d.missing_nodes == 0


def test_diff_identity_all_zero():
    g = build_graph([("a", "b"), ("b", "c")])
    d = graph_diff(g, g)
    assert (d.added_nodes, d.missing_nodes, d.added_edges, d.missing_edges) == (0, 0, 0, 0)


def test_diff_empty_reconstruction():
    orig = build_graph([("a", "b")])
    d = graph_diff(orig, DiGraph(orig.labels, []))
    assert (d.added_nodes, d.missing_nodes) == (0, 2)
    assert (d.added_edges, d.missing_edges) == (0, 1)
    assert d.missing_edge_list == [("a", "b")]


@pytest.mark.parametrize("labels", [("a", "b"), ("a", "b", "d"), ("b", "a", "c")],
                         ids=["fewer", "other", "reordered"])
def test_diff_rejects_graphs_over_other_nodes(labels):
    orig = DiGraph(("a", "b", "c"), [(0, 1)])
    with pytest.raises(ValueError, match="same node labels"):
        graph_diff(orig, DiGraph(labels, [(0, 1)]))


def test_diff_antisymmetric():
    g1 = build_graph([("a", "b"), ("b", "c")])
    g2 = build_graph([("a", "b"), ("c", "a")])
    d12 = graph_diff(g1, g2)
    d21 = graph_diff(g2, g1)
    assert d12.added_edge_list == d21.missing_edge_list
    assert d12.missing_edge_list == d21.added_edge_list
    assert d12.added_nodes == d21.missing_nodes


def test_diff_matches_oracle_on_random_graphs():
    # isolated nodes on either side, and labels whose sorted order differs
    # from their index order ("v12" < "v3", drawn in random order)
    rng = np.random.default_rng(12)
    isolated = 0
    for _ in range(30):
        k = int(rng.integers(0, 20))
        names = [f"v{int(i)}" for i in rng.choice(30, size=k, replace=False)]
        graphs = []
        for _side in range(2):
            adj = rng.random((k, k)) < 0.2
            cut = rng.random(k) < 0.3
            adj[cut, :] = adj[:, cut] = False
            graphs.append(DiGraph(names, np.argwhere(adj)))
        orig, recon = graphs
        d = graph_diff(orig, recon)
        touched = [lab for pair in recon.edge_label_pairs() for lab in pair]
        added_nodes, missing_nodes, added, missing = oracle_graph_diff(
            orig.labels, orig.edge_label_pairs(), touched, recon.edge_label_pairs()
        )
        isolated += missing_nodes
        assert (d.added_nodes, d.missing_nodes) == (added_nodes, missing_nodes)
        assert (d.added_edges, d.missing_edges) == (len(added), len(missing))
        assert d.added_edge_list == added
        assert d.missing_edge_list == missing
    assert isolated


@pytest.mark.parametrize("kind,n,edges", [("cycle", 5, 5), ("star", 6, 5), ("path", 4, 3)])
def test_synthetic_shapes(kind, n, edges):
    g = gen_synthetic(kind, n, seed=1)
    assert g.node_count == n
    assert g.edge_count == edges


def test_synthetic_deterministic():
    a = gen_synthetic("erdos", 20, seed=7)
    b = gen_synthetic("erdos", 20, seed=7)
    assert a.edge_label_pairs() == b.edge_label_pairs()
    c = gen_synthetic("scale_free", 50, seed=9)
    d = gen_synthetic("scale_free", 50, seed=9)
    assert c.edge_label_pairs() == d.edge_label_pairs()


def test_synthetic_rejects_zero():
    with pytest.raises(ValueError):
        gen_synthetic("cycle", 0, seed=1)


def test_scale_free_every_node_has_out_edge():
    g = gen_synthetic("scale_free", 40, seed=2)
    out_deg = np.diff(g.out_indptr)
    assert (out_deg >= 1).all()
