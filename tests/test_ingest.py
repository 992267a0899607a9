from pathlib import Path

import pytest

from restore.graph import gen_synthetic, graph_from_labeled_edges
from restore.ingest import graph_from_records, parse_edge_list, write_edge_list
from restore.config import RunConfig, load_manifest
from restore.pipeline import resolve_centers


class TestParseEdgeList:
    def test_tsv3_line(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("a\trel\tb\n")
        parsed = parse_edge_list(f, "tsv3")
        assert parsed.edges == [("a", "b")]

    def test_kgtk_header(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("id\tnode1\trelation\tnode2\textra\nr1\ta\tlikes\tb\tx\n")
        parsed = parse_edge_list(f, "tsv_kgtk")
        assert parsed.edges == [("a", "b")]

    def test_kgtk_missing_columns(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("foo\tbar\nx\ty\n")
        with pytest.raises(ValueError, match="node1"):
            parse_edge_list(f, "tsv_kgtk")

    def test_malformed_threshold(self, tmp_path):
        good = [f"a{i}\tr\tb{i}" for i in range(98)]
        bad = ["broken", "also broken"]
        f = tmp_path / "e.tsv"
        f.write_text("\n".join(good + bad) + "\n")
        with pytest.raises(ValueError, match="tolerance"):
            parse_edge_list(f, "tsv3")

    def test_below_threshold_collects_diagnostics(self, tmp_path):
        good = [f"a{i}\tr\tb{i}" for i in range(200)]
        f = tmp_path / "e.tsv"
        # a line without its relation column is malformed, though the value is dropped
        f.write_text("\n".join(good[:100] + ["a\tb"] + good[100:]) + "\n")
        parsed = parse_edge_list(f, "tsv3")
        assert len(parsed.edges) == 200
        assert parsed.diagnostics == ["line 101: expected 3 tab-separated columns"]

    @pytest.mark.parametrize("sep", ["\u2028", "\x1c"], ids=["u2028", "x1c"])
    def test_only_newlines_end_lines(self, tmp_path, sep):
        """A label may hold any character but a line end; str.splitlines would
        split this line in two, and parse 'y rel z' as a malformed-line edge."""
        odd = f"x{sep}y\trel\tz"
        good = [f"a{i}\tr\tb{i}" for i in range(200)]
        lf, crlf, alone = tmp_path / "lf.tsv", tmp_path / "crlf.tsv", tmp_path / "alone.tsv"
        lf.write_bytes(("\n".join(good[:100] + [odd] + good[100:]) + "\n").encode("utf-8"))
        crlf.write_bytes(("\r\n".join(good[:100] + [odd] + good[100:]) + "\r\n").encode("utf-8"))
        alone.write_bytes((odd + "\n").encode("utf-8"))
        parsed = parse_edge_list(lf, "tsv3")
        assert parsed.diagnostics == []
        assert parsed.edges[100] == (f"x{sep}y", "z") and len(parsed.edges) == 201
        assert parse_edge_list(crlf, "tsv3") == parsed
        assert parse_edge_list(alone, "tsv3").edges == [(f"x{sep}y", "z")]

    def test_unknown_format(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("a\tr\tb\n")
        with pytest.raises(ValueError, match="format"):
            parse_edge_list(f, "csv")

    def test_round_trip_with_isolated_nodes(self, tmp_path):
        g = graph_from_labeled_edges([("a", "b"), ("b", "c")], extra_nodes=["lonely"])
        path = tmp_path / "out.tsv"
        write_edge_list(g, path)
        back = graph_from_records(parse_edge_list(path, "tsv3"))
        assert set(back.labels) == set(g.labels)
        assert set(back.edge_label_pairs()) == set(g.edge_label_pairs())

    def test_round_trip_generated(self, tmp_path):
        g = gen_synthetic("erdos", 25, seed=3)
        path = tmp_path / "out.tsv"
        write_edge_list(g, path)
        back = graph_from_records(parse_edge_list(path, "tsv3"))
        assert set(back.labels) == set(g.labels)
        assert set(back.edge_label_pairs()) == set(g.edge_label_pairs())

    def test_order_stable(self, tmp_path):
        f = tmp_path / "e.tsv"
        f.write_text("b\tr\ta\na\tr\tc\n")
        p1 = parse_edge_list(f, "tsv3")
        p2 = parse_edge_list(f, "tsv3")
        assert p1.edges == p2.edges == [("b", "a"), ("a", "c")]


class TestManifest:
    def write(self, tmp_path, text):
        f = tmp_path / "run.cfg"
        f.write_text(text)
        return f

    def test_basic_manifest(self, tmp_path):
        (tmp_path / "g.tsv").write_text("a\tr\tb\n")
        m = load_manifest(self.write(tmp_path, """
# toy run
graph_path = g.tsv
hop = 1
hop = 2
algorithm = hope
algorithm = lap
seed = 9
threshold = 0.4
"""), tmp_path / "out")
        assert m.graph_path.endswith("g.tsv")
        assert m.hops == (1, 2)
        assert m.algorithms == ("hope", "lap")
        assert m.seed == 9
        assert m.threshold == 0.4

    def test_dataset_lines(self, tmp_path):
        (tmp_path / "g.tsv").write_text("a\tr\tb\n")
        (tmp_path / "rg.tsv").write_text("car\tauto\t9\n")
        m = load_manifest(self.write(tmp_path, """
graph_path = g.tsv
dataset = rg65 similarity rg.tsv
"""), tmp_path / "out")
        kind, path = m.dataset_paths["rg65"]
        assert kind == "similarity" and path.endswith("rg.tsv")

    def test_defaults(self, tmp_path):
        (tmp_path / "g.tsv").write_text("a\tr\tb\n")
        m = load_manifest(self.write(tmp_path, "graph_path = g.tsv\n"), tmp_path / "out")
        assert m.hops == (1, 2, 3)
        assert m.algorithms == ("node2vec", "hope", "sdne", "lap", "lle")
        assert m.center_labels == ()

    def test_invalid_hop_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="hop"):
            load_manifest(self.write(tmp_path, "graph_path = x\nhop = 4\n"), tmp_path / "out")

    def test_invalid_algorithm_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="algorithm"):
            load_manifest(self.write(tmp_path, "graph_path = x\nalgorithm = glove\n"),
                          tmp_path / "out")

    def test_missing_graph_path(self, tmp_path):
        with pytest.raises(ValueError, match="graph_path"):
            load_manifest(self.write(tmp_path, "seed = 1\n"), tmp_path / "out")


class TestResolveCenters:
    def test_explicit_present(self):
        g = graph_from_labeled_edges([("/c/en/smartphone", "/c/en/telephone")])
        m = RunConfig("x", Path("out"), center_labels=("/c/en/smartphone",))
        assert resolve_centers(m, {}, g) == (["/c/en/smartphone"], [])

    def test_explicit_split_in_manifest_order(self):
        """A config built directly holds each center, hop and algorithm once,
        at its first place."""
        g = graph_from_labeled_edges([("a", "b"), ("b", "c")])
        m = RunConfig("x", Path("out"), center_labels=("c", "ghost", "a", "c", "ghost"),
                      hops=(2, 1, 2), algorithms=("lap", "hope", "lap", "hope"))
        assert (m.center_labels, m.hops, m.algorithms) == (("c", "ghost", "a"), (2, 1),
                                                           ("lap", "hope"))
        assert resolve_centers(m, {}, g) == (["c", "a"], ["ghost"])

    def test_explicit_absent_names_label(self):
        g = graph_from_labeled_edges([("a", "b")])
        m = RunConfig("x", Path("out"), center_labels=("ghost",))
        with pytest.raises(ValueError, match="no centers resolved.*ghost"):
            resolve_centers(m, {}, g)

    def test_from_datasets_intersection(self):
        g = graph_from_labeled_edges(
            [("/c/en/cat", "/c/en/dog"), ("/c/en/dog", "/c/en/fish")]
        )
        m = RunConfig("x", Path("out"))
        vocab = {"sim": {"cat", "unicorn"}, "an": {"dog"}}
        assert resolve_centers(m, vocab, g) == (["/c/en/cat", "/c/en/dog"], [])

    def test_empty_resolution_errors(self):
        g = graph_from_labeled_edges([("a", "b")])
        m = RunConfig("x", Path("out"))
        with pytest.raises(ValueError, match="no centers"):
            resolve_centers(m, {"sim": {"nothing"}}, g)
