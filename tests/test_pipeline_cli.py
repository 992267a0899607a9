import ast
import dataclasses
import errno
import importlib
import json
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import restore.pipeline as pipeline
from references import build_graph
from restore.cli import main as cli_main
from restore.emb_io import read_embedding, write_embedding
from restore.factorization import EmbeddingMatrix, hope_embed
from restore.config import ALGORITHMS, MANIFEST_KEYS, RunConfig, load_manifest
from restore.ingest import graph_from_records, parse_edge_list
from restore.pipeline import cell_seed, center_slug, report_config, validate_run_result
from restore.randomwalk import Node2VecConfig

TOY_GRAPH = """\
/c/en/cat\trelated\t/c/en/dog
/c/en/dog\trelated\t/c/en/cat
/c/en/dog\trelated\t/c/en/fish
/c/en/fish\trelated\t/c/en/bird
/c/en/bird\trelated\t/c/en/tree
/c/en/tree\trelated\t/c/en/cat
/c/en/cat\trelated\t/c/en/fish
/c/en/bird\trelated\t/c/en/dog
"""

TOY_SIM = "cat\tdog\t8.5\ndog\tfish\t4.0\nfish\tbird\t3.5\n"
TOY_ANALOGY = ": toy-section\ncat dog fish bird\ndog cat bird fish\n"

MANIFEST_TMPL = """\
graph_path = {graph}
dataset = toysim similarity {sim}
dataset = toyan analogy {an}
hop = 1
hop = 2
{algorithms}
seed = 5
dim_schedule = 1:1,2:2,3:4
epochs = 3
node2vec.walk_length = 8
node2vec.walks_per_node = 2
node2vec.context_size = 2
"""


def write_world(tmp_path: Path, algorithms=("hope", "lap", "node2vec"), extra="") -> Path:
    (tmp_path / "graph.tsv").write_text(TOY_GRAPH)
    (tmp_path / "sim.tsv").write_text(TOY_SIM)
    (tmp_path / "an.txt").write_text(TOY_ANALOGY)
    algo_lines = "\n".join(f"algorithm = {a}" for a in algorithms)
    manifest = MANIFEST_TMPL.format(
        graph=tmp_path / "graph.tsv",
        sim=tmp_path / "sim.tsv",
        an=tmp_path / "an.txt",
        algorithms=algo_lines,
    ) + extra
    path = tmp_path / "run.cfg"
    path.write_text(manifest)
    return path


class TestEmbIo:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        emb = EmbeddingMatrix(labels=("a", "b", "c"), vectors=rng.random((3, 4)), algorithm_tag="lap")
        path = tmp_path / "e.emb"
        write_embedding(emb, path, "binary")
        back = read_embedding(path)
        assert back.labels == emb.labels
        assert back.algorithm_tag == "lap"
        assert np.array_equal(back.vectors, emb.vectors)

    def test_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        emb = EmbeddingMatrix(labels=("x", "y"), vectors=rng.random((2, 3)), algorithm_tag="lle")
        path = tmp_path / "e.emb"
        write_embedding(emb, path, "text")
        back = read_embedding(path)
        assert np.array_equal(back.vectors, emb.vectors)  # repr round-trips exactly

    def test_asym_round_trip(self, tmp_path):
        g = build_graph([("a", "b"), ("b", "c")])
        hope = hope_embed(g, 2)
        path = tmp_path / "h.emb"
        write_embedding(hope, path, "binary")
        back = read_embedding(path)
        assert back.target is not None
        assert np.array_equal(back.vectors, hope.vectors)
        assert np.array_equal(back.target, hope.target)
        for i, label in enumerate(g.labels):
            assert np.array_equal(back.vector_for(label), np.concatenate([hope.vectors[i], hope.target[i]]))

    def test_binary_byte_layout(self, tmp_path):
        vectors = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([[5.0, 6.0], [7.0, 8.0]])
        header = "RESTORE-EMB 1\nalgorithm {}\ndim 2\nnodes 2\nparts {}\nmode binary\na\nb\nDATA\n"
        source_rows = bytes.fromhex(
            "000000000000f03f" "0000000000000040" "0000000000000840" "0000000000001040"
        )
        target_rows = bytes.fromhex(
            "0000000000001440" "0000000000001840" "0000000000001c40" "0000000000002040"
        )
        single = EmbeddingMatrix(labels=("a", "b"), vectors=vectors, algorithm_tag="lap")
        write_embedding(single, tmp_path / "s.emb", "binary")
        assert (tmp_path / "s.emb").read_bytes() == header.format("lap", "single").encode() + source_rows
        pair = EmbeddingMatrix(labels=("a", "b"), vectors=vectors, algorithm_tag="hope", target=target)
        write_embedding(pair, tmp_path / "p.emb", "binary")
        assert (tmp_path / "p.emb").read_bytes() == (
            header.format("hope", "source,target").encode() + source_rows + target_rows
        )

    @pytest.mark.parametrize(
        "blob,fragment",
        [
            (b"not an embedding", "DATA"),
            (b"RESTORE-EMB 1\nalgorithm lap\ndim 1\nnodes 1\nparts triple\nmode binary\na", "parts"),
            (b"RESTORE-EMB 1\nalgorithm lap\ndim 1\nnodes 1\nparts single\nmode bogus\na", "mode"),
            (b"RESTORE-EMB 1\nalgorithm lap\ndim x\nnodes 1\nparts single\nmode binary\na", "dim"),
            (b"RESTORE-EMB 1\nalgorithm lap\ndim 1\nnodes 1", "header"),
        ],
        ids=["no-data-marker", "parts-triple", "mode-bogus", "dim-not-int", "short-header"],
    )
    def test_bad_file_rejected(self, tmp_path, blob, fragment):
        path = tmp_path / "bad.emb"
        if b"RESTORE-EMB" in blob:
            blob += b"\nDATA\n" + np.ones(1, dtype="<f8").tobytes()
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{fragment}"):
            read_embedding(path)

    def test_failed_write_leaves_no_file(self, tmp_path):
        emb = EmbeddingMatrix(labels=("a",), vectors=np.array([[object()]], dtype=object), algorithm_tag="lap")
        with pytest.raises(TypeError):
            write_embedding(emb, tmp_path / "e.emb", "binary")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("row, fragment", [(b"1.0 x", "'x'"), (b"1.0", "row 1 holds 1 values")],
                             ids=["not-a-number", "short-row"])
    def test_bad_text_row_names_the_file(self, tmp_path, row, fragment):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"RESTORE-EMB 1\nalgorithm lap\ndim 2\nnodes 1\nparts single\nmode text\na"
                         b"\nDATA\n" + row + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{fragment}"):
            read_embedding(path)


class TestDefaults:
    def test_effective_defaults_match_fixed_values(self, tmp_path):
        (tmp_path / "g.tsv").write_text("a\tr\tb\n")
        (tmp_path / "m.cfg").write_text(f"graph_path = {tmp_path / 'g.tsv'}\n")
        cfg = load_manifest(tmp_path / "m.cfg", tmp_path / "out")
        eff = report_config(cfg)
        assert eff["dim_schedule"] == {"1": 2, "2": 64, "3": 128}
        assert eff["epochs"] == 50
        assert eff["threshold"] == 0.5
        assert eff["prec_fractions"] == [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
        assert eff["node2vec"]["walk_length"] == 80
        assert eff["node2vec"]["context_size"] == 10
        assert eff["node2vec"]["p"] == 1.0 and eff["node2vec"]["q"] == 1.0
        assert eff["node2vec"]["epochs"] == 50
        assert eff["hope_beta"] == 0.01
        assert eff["sdne"] == {
            "alpha": 1e-5, "beta_penalty": 5.0, "l1_reg": 1e-6, "l2_reg": 1e-6,
            "rho": 0.3, "xeta": 0.01, "batch_size": 100, "epochs": 50,
        }
        assert eff["scorers"] == {
            "hope": "asym_dot", "lap": "neg_distance", "lle": "neg_distance",
            "node2vec": "dot", "sdne": "dot",
        }

    def test_cell_seed_stable_and_distinct(self):
        a = cell_seed(5, "/c/en/cat", 1, "hope")
        b = cell_seed(5, "/c/en/cat", 1, "hope")
        c = cell_seed(5, "/c/en/cat", 2, "hope")
        assert a == b
        assert a != c
        assert a >= 0
        by_algorithm = {cell_seed(5, "/c/en/cat", 1, algo) for algo in ALGORITHMS}
        assert len(by_algorithm) == len(ALGORITHMS) == 5


class TestLoadManifest:
    def test_every_line_is_checked(self, tmp_path, capsys):
        """A bad line fails even when a later line repeats its key with a good
        value; of several bad lines, the first in the file is named."""
        manifest = write_world(tmp_path, extra="threshold = 5\nthreshold = 0.3\n")
        line = len(manifest.read_text().splitlines()) - 1
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(manifest), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"run.cfg:{line}: bad value for threshold: '5'" in err
        assert not (out / "cells.json").exists()
        manifest = write_world(tmp_path, extra="epochs = 0\nseed = x\n")
        with pytest.raises(ValueError, match=f"run.cfg:{line}: bad value for epochs"):
            load_manifest(manifest, out)
        # a repeated good value takes the last line
        manifest = write_world(tmp_path, extra="threshold = 0.2\nthreshold = 0.3\n")
        assert load_manifest(manifest, out).threshold == 0.3

    def test_explicit_centers_need_a_center_line(self, tmp_path, capsys):
        """A `centers` line must agree with the `center` lines, both ways."""
        (tmp_path / "graph.tsv").write_text(TOY_GRAPH)
        manifest = tmp_path / "run.cfg"
        head = f"graph_path = {tmp_path / 'graph.tsv'}\n"
        out = tmp_path / "out"
        for centers, rest in [("explicit", "hop = 1\n"),
                              ("from-datasets", "hop = 1\ncenter = /c/en/cat\n")]:
            manifest.write_text(f"{head}centers = {centers}\n{rest}")
            assert cli_main(["run-all", "--config", str(manifest), "--output", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("restore: error: ") and f"run.cfg:2: centers = {centers}" in err
            assert not out.exists()

    def test_dim_schedule_before_hop_lines(self, tmp_path):
        """The schedule is checked against the run's hops after the last line,
        and the error names the schedule's own line and value."""
        (tmp_path / "graph.tsv").write_text(TOY_GRAPH)
        manifest = tmp_path / "run.cfg"
        head = f"graph_path = {tmp_path / 'graph.tsv'}\n"
        manifest.write_text(head + "dim_schedule = 1:1\nhop = 1\nhop = 2\n")
        with pytest.raises(ValueError, match=r"run.cfg:2: bad value for dim_schedule: '1:1' gives "
                                             r"no dimension for hops \[2\] of this run"):
            load_manifest(manifest, tmp_path / "out")
        manifest.write_text(head + "dim_schedule = 1:1\nhop = 2\nhop = 2\n")
        with pytest.raises(ValueError, match=r"no dimension for hops \[2\] of this run"):
            load_manifest(manifest, tmp_path / "out")
        manifest.write_text(head + "dim_schedule = 1:1,2:3\nhop = 1\nhop = 2\n")
        assert load_manifest(manifest, tmp_path / "out").dim_schedule == {1: 1, 2: 3}

    def test_built_config_is_frozen_and_picklable(self):
        """The top-level epochs sets both trainers' epochs in a config built
        directly too."""
        cfg = RunConfig("g.tsv", Path("out"), epochs=7, node2vec=Node2VecConfig(p=2.0))
        assert cfg.node2vec.epochs == cfg.sdne.epochs == 7 and cfg.node2vec.p == 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epochs = 3
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_readme_names_every_key(self):
        """The README's "Manifest schema" table names each key the loader
        accepts and no other; scorer.*, node2vec.* and sdne.* count per group."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Manifest schema", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([^`]+)`", section, flags=re.MULTILINE)

        def group(key: str) -> str:
            prefix, dot, _ = key.partition(".")
            return f"{prefix}.*" if dot else key

        assert {group(key) for key in rows} == {group(key) for key in MANIFEST_KEYS}


class TestCliRuns:
    def test_run_all_green(self, tmp_path, capsys):
        manifest = write_world(tmp_path)
        out = tmp_path / "out"
        code = cli_main(["run-all", "--config", str(manifest), "--output", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        validate_run_result(report)
        assert report["seed"] == 5
        assert (out / "report_recon.csv").exists()
        assert (out / "report_semantic.csv").exists()
        assert (out / "report_diff.csv").exists()
        assert (out / "timings.json").exists()
        # one embedding file per (center, hop, algorithm)
        n_centers = len(json.loads((out / "cells.json").read_text())["centers"])
        emb_files = list((out / "embeddings").glob("*.emb"))
        assert len(emb_files) == n_centers * 2 * 3
        # timing metadata present for every reconstruction cell
        timings = json.loads((out / "timings.json").read_text())
        recon_keys = set(report["reconstruction"]["cells"])
        assert recon_keys <= set(timings["reconstruct"])
        for stage in ("extract", "embed", "reconstruct", "semantic"):
            assert "_stage_total" in timings[stage]
            assert any(key.count("|h") == 1 for key in timings[stage]), stage
        # every aggregate and diff row is the mean over its (algorithm, hop)'s cells
        recon = report["reconstruction"]

        def mean(values):
            return pytest.approx(sum(values) / len(values), rel=1e-12)

        for agg, diff in zip(recon["aggregate"], recon["diff"], strict=True):
            group = (agg["algorithm"], agg["hop"])
            assert (diff["algorithm"], diff["hop"]) == group
            cells = [c for c in recon["cells"].values() if (c["algorithm"], c["hop"]) == group]
            assert agg["cells"] == len(cells) >= 2
            assert agg["map"] == mean([c["map"] for c in cells])
            for f, v in agg["prec_at"].items():
                assert v == mean([c["prec_at"][f] for c in cells])
            assert diff["avg_nodes"] == mean([c["nodes"] for c in cells])
            assert diff["avg_edges"] == mean([c["edges"] for c in cells])
            for name in ("added_nodes", "missing_nodes", "added_edges", "missing_edges"):
                assert diff[f"avg_{name}"] == mean([c["diff"][name] for c in cells])

    def test_recon_csv_table_shape(self, tmp_path):
        manifest = write_world(tmp_path, algorithms=("hope",))
        out = tmp_path / "out"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out)]) == 0
        lines = (out / "report_recon.csv").read_text().splitlines()
        assert lines[0] == "algorithm,hop,map,prec@0.1,prec@0.2,prec@0.4,prec@0.6,prec@0.8,prec@1.0"
        assert len(lines) == 3  # one row per (algorithm, hop)
        assert lines[1].startswith("hope,1,")

    def test_extract_byte_identical(self, tmp_path):
        manifest = write_world(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["extract", "--config", str(manifest), "--output", str(out1)]) == 0
        assert cli_main(["extract", "--config", str(manifest), "--output", str(out2)]) == 0
        for rel in ["cells.json", "stats.json"]:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
        subs1 = sorted((out1 / "subgraphs").iterdir())
        subs2 = sorted((out2 / "subgraphs").iterdir())
        assert [p.name for p in subs1] == [p.name for p in subs2]
        for p1, p2 in zip(subs1, subs2):
            assert p1.read_bytes() == p2.read_bytes()

    def test_extract_rewrites_every_subgraph(self, tmp_path):
        """A re-run on a smaller graph leaves no subgraph of the old one behind."""
        manifest = write_world(tmp_path)
        out = tmp_path / "out"
        args = ["extract", "--config", str(manifest), "--output", str(out)]
        assert cli_main(args) == 0
        (tmp_path / "graph.tsv").write_text("".join(TOY_GRAPH.splitlines(keepends=True)[:6]))
        assert cli_main(args) == 0
        stats = json.loads((out / "stats.json").read_text())["cells"]
        for cell in json.loads((out / "cells.json").read_text())["cells"]:
            sub = graph_from_records(parse_edge_list(
                out / "subgraphs" / f"{cell['slug']}_h{cell['hop']}.tsv"))
            counts = stats[f"{cell['center']}|h{cell['hop']}"]
            assert (sub.node_count, sub.edge_count) == (counts["nodes"], counts["edges"])

    def test_stage_alone_updates_timings(self, tmp_path):
        manifest = write_world(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(manifest), "--output", str(out)]) == 0
        timings = json.loads((out / "timings.json").read_text())
        assert list(timings) == ["extract"]
        assert "_stage_total" in timings["extract"]
        assert set(timings["extract"]) - {"_stage_total"} == set(
            json.loads((out / "stats.json").read_text())["cells"])
        assert cli_main(["embed", "--config", str(manifest), "--output", str(out)]) == 0
        timings = json.loads((out / "timings.json").read_text())
        assert list(timings) == ["extract", "embed"]
        assert not (out / "timings").exists()

    def test_semantic_reads_each_embedding_once(self, tmp_path, monkeypatch):
        manifest = write_world(tmp_path)
        out = tmp_path / "out"
        for stage in ("extract", "embed"):
            assert cli_main([stage, "--config", str(manifest), "--output", str(out)]) == 0
        reads = []

        def counting_read(path):
            reads.append(Path(path).name)
            return read_embedding(path)

        monkeypatch.setattr(pipeline, "read_embedding", counting_read)
        args = ["semantic", "--config", str(manifest), "--output", str(out)]
        assert cli_main(args) == 0
        embed_log = json.loads((out / "embeddings" / "embed_log.json").read_text())
        assert len(reads) == len(set(reads)) == len(embed_log)
        # an embedding that cannot be read fails each dataset's cell of its (hop, algorithm)
        bad = out / "embeddings" / f"{center_slug('/c/en/cat')}_h1_lap.emb"
        bad.write_bytes(b"not an embedding")
        assert cli_main(args) == 3
        errors = json.loads((out / "errors_semantic.json").read_text())
        assert [e["cell"] for e in errors] == ["toyan|h1|lap", "toysim|h1|lap"]
        assert all(e["error"].startswith(f"{bad}: ") for e in errors)

    def test_report_leaves_out_cells_failed_this_run(self, tmp_path):
        manifest = write_world(tmp_path, algorithms=("hope", "lap"))
        out = tmp_path / "out"
        args = ["run-all", "--config", str(manifest), "--output", str(out)]
        assert cli_main(args) == 0
        with manifest.open("a") as fh:
            fh.write("scorer.hope = dot\n")  # HOPE's two matrices cannot be scored by dot
        assert cli_main(args) == 3
        report = json.loads((out / "report.json").read_text())
        failed = {e["cell"] for e in report["errors"]}
        assert failed and all(key.endswith("|hope") for key in failed)
        cells = report["reconstruction"]["cells"]
        assert cells and not failed & set(cells)
        assert {c["scorer"] for c in cells.values()} == {report["config"]["scorers"]["lap"]}
        assert {row["algorithm"] for row in report["reconstruction"]["aggregate"]} == {"lap"}

    def test_skipped_input_lines_are_logged(self, tmp_path, caplog):
        graph = [f"/c/en/w{i}\tr\t/c/en/w{i + 1}" for i in range(200)]
        (tmp_path / "graph.tsv").write_text("\n".join(graph[:50] + ["/c/en/w7"] + graph[50:]) + "\n")
        (tmp_path / "sim.tsv").write_text("w0\tw1\t5.0\nw1\tw2\tmany\n")
        manifest = tmp_path / "run.cfg"
        manifest.write_text(f"graph_path = {tmp_path / 'graph.tsv'}\n"
                            f"dataset = sim similarity {tmp_path / 'sim.tsv'}\n"
                            "hop = 1\nalgorithm = lap\n")
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(manifest), "--output", str(out)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            f"{tmp_path / 'graph.tsv'}: skipped 1 malformed line(s): "
            "line 51: expected 3 tab-separated columns",
            f"{tmp_path / 'sim.tsv'}: skipped 1 malformed line(s): line 2: non-numeric score 'many'",
        ]

    def test_run_all_byte_identical_report(self, tmp_path):
        manifest = write_world(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out1)]) == 0
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_clamp_recorded(self, tmp_path):
        manifest = write_world(tmp_path, extra="dim_schedule = 1:64,2:64,3:64\n")
        out = tmp_path / "out"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out)]) == 0
        log = json.loads((out / "embeddings" / "embed_log.json").read_text())
        clamped = [v for v in log.values() if v["effective_dim"] < v["requested_dim"]]
        assert clamped
        assert all(v["requested_dim"] == 64 for v in log.values())

    def test_rerun_rewrites_embeddings_built_under_other_settings(self, tmp_path):
        out = tmp_path / "out"
        emb = out / "embeddings" / f"{center_slug('/c/en/cat')}_h2_lap.emb"
        for dim in (2, 4):
            manifest = write_world(tmp_path, algorithms=("lap",), extra=f"dim_schedule = 1:1,2:{dim}\n")
            assert cli_main(["run-all", "--config", str(manifest), "--output", str(out)]) == 0
            assert read_embedding(emb).dim == dim

    def test_kgtk_graph_accepted(self, tmp_path):
        kgtk = "id\tnode1\trelation\tnode2\n"
        for line in TOY_GRAPH.strip().splitlines():
            s, r, d = line.split("\t")
            kgtk += f"e\t{s}\t{r}\t{d}\n"
        (tmp_path / "graph.tsv").write_text(kgtk)
        (tmp_path / "sim.tsv").write_text(TOY_SIM)
        (tmp_path / "an.txt").write_text(TOY_ANALOGY)
        manifest = tmp_path / "run.cfg"
        manifest.write_text(MANIFEST_TMPL.format(
            graph=tmp_path / "graph.tsv", sim=tmp_path / "sim.tsv",
            an=tmp_path / "an.txt", algorithms="algorithm = hope",
        ) + "graph_format = tsv_kgtk\n")
        out = tmp_path / "out"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out)]) == 0

    def test_semantic_scaling_doubles_means(self, tmp_path):
        manifest = write_world(tmp_path, algorithms=("lap",))
        out = tmp_path / "out"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out)]) == 0
        before = {
            p.name: json.loads(p.read_text())["mean_distance"]
            for p in (out / "semantic").glob("*.json")
        }
        for emb_path in (out / "embeddings").glob("*.emb"):
            emb = read_embedding(emb_path)
            emb.vectors[:] = emb.vectors * 2.0
            write_embedding(emb, emb_path, "binary")
        assert cli_main(["semantic", "--config", str(manifest), "--output", str(out)]) == 0
        after = {
            p.name: json.loads(p.read_text())["mean_distance"]
            for p in (out / "semantic").glob("*.json")
        }
        assert set(before) == set(after)
        for name in before:
            assert after[name] == pytest.approx(2.0 * before[name], rel=1e-12)

    def test_single_node_center_chain(self, tmp_path):
        (tmp_path / "graph.tsv").write_text(TOY_GRAPH + "# node: /c/en/lonely\n")
        manifest = tmp_path / "run.cfg"
        manifest.write_text(f"""
graph_path = {tmp_path / 'graph.tsv'}
centers = explicit
center = /c/en/lonely
hop = 1
algorithm = hope
algorithm = lap
""")
        out = tmp_path / "out"
        for stage in ("extract", "embed", "reconstruct", "report"):
            assert cli_main([stage, "--config", str(manifest), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        cell = report["reconstruction"]["cells"]["/c/en/lonely|h1|hope"]
        assert cell["nodes"] == 1
        assert cell["map"] == 0.0

    def test_perfect_recovery_dot_has_no_red(self, tmp_path):
        (tmp_path / "graph.tsv").write_text(
            "a\tr\tb\nb\tr\tc\na\tr\tc\n"
        )
        manifest = tmp_path / "run.cfg"
        manifest.write_text(f"""
graph_path = {tmp_path / 'graph.tsv'}
centers = explicit
center = b
hop = 1
algorithm = hope
dim_schedule = 1:4,2:4,3:4
""")
        out = tmp_path / "out"
        for stage in ("extract", "embed"):
            assert cli_main([stage, "--config", str(manifest), "--output", str(out)]) == 0
        assert cli_main(["reconstruct", "--config", str(manifest), "--output", str(out), "--dot"]) == 0
        report_files = list((out / "recon").glob("*.json"))
        assert len(report_files) == 1
        payload = json.loads(report_files[0].read_text())
        assert payload["map"] == 1.0
        assert payload["diff"]["added_edges"] == 0
        assert payload["diff"]["missing_edges"] == 0
        dots = list((out / "dot").glob("*.dot"))
        assert len(dots) == 1
        assert "red" not in dots[0].read_text()

    def test_edge_lists_capped_at_200(self, tmp_path):
        # threshold 0 predicts all 31 * 30 pairs of a 30-leaf star: 900 added edges
        (tmp_path / "graph.tsv").write_text("".join(f"hub\tr\tleaf{i}\n" for i in range(30)))
        manifest = tmp_path / "run.cfg"
        manifest.write_text(f"graph_path = {tmp_path / 'graph.tsv'}\ncenters = explicit\n"
                            "center = hub\nhop = 1\nalgorithm = lap\n")
        out = tmp_path / "out"
        for stage in ("extract", "embed", "reconstruct"):
            assert cli_main([stage, "--config", str(manifest), "--output", str(out),
                             "--threshold", "0"]) == 0
        (recon_file,) = (out / "recon").glob("*.json")
        diff = json.loads(recon_file.read_text())["diff"]
        assert (diff["added_edges"], diff["missing_edges"]) == (900, 0)
        assert len(diff["added_edge_list"]) == 200
        assert diff["missing_edge_list"] == []
        assert diff["edge_lists_truncated"] is True

    def test_partial_failure_exit_code(self, tmp_path):
        manifest = write_world(tmp_path, algorithms=("hope",),
                               extra=f"dataset = gap similarity {tmp_path / 'gap.tsv'}\n")
        (tmp_path / "gap.tsv").write_text("unicorn\tgriffin\t5.0\n")
        out = tmp_path / "out"
        code = cli_main(["run-all", "--config", str(manifest), "--output", str(out)])
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        gap_errors = [e for e in report["errors"] if e["cell"].startswith("gap|")]
        assert gap_errors
        # sibling dataset cells survived
        assert any(k.startswith("toysim|") for k in report["semantic"]["cells"])

    def test_usage_errors(self, tmp_path, capsys):
        assert cli_main(["extract"]) == 1  # missing --config
        assert cli_main(["no-such-command", "--config", "x"]) == 1
        assert cli_main(["extract", "--config", str(tmp_path / "missing.cfg")]) == 1
        capsys.readouterr()
        # a bad value is a usage error naming its manifest line, before any stage runs
        for key, value in [("epochs", "many"), ("graph_format", "bogus"), ("emb_format", "bogus"),
                           ("analogy_mode", "bogus"), ("scorer.lap", "bogus"), ("hop", "x"),
                           ("seed", "x"), ("hop", "4"), ("algorithm", "foo"),
                           ("centers", "bogus"), ("dim_schedule", "1:0,2:2"),
                           ("node2vec.context_size", "0"), ("node2vec.walks_per_node", "0"),
                           ("node2vec.p", "0"), ("node2vec.learning_rate", "-1"),
                           ("sdne.batch_size", "0"), ("epochs", "0"), ("hope_beta", "-1"),
                           ("dim_schedule", "1:1"), ("threshold", "1.5"), ("threshold", "nan"),
                           ("dataset", "toysim similarity sim2.tsv")]:
            manifest = write_world(tmp_path, extra=f"{key} = {value}\n")
            line = len(manifest.read_text().splitlines())
            out = tmp_path / f"out_{key}_{value}"
            assert cli_main(["run-all", "--config", str(manifest), "--output", str(out)]) == 1, key
            err = capsys.readouterr().err
            assert err.startswith("restore: error: ") and f"run.cfg:{line}:" in err
            assert key in err and value in err
            assert not (out / "cells.json").exists()
        # the same for an out-of-range flag, which has no manifest line
        manifest = write_world(tmp_path)
        for flag, value in [("--threshold", "-0.5"), ("--workers", "0"), ("--workers", "-2")]:
            out = tmp_path / f"out_{flag}_{value}"
            args = ["run-all", "--config", str(manifest), "--output", str(out), flag, value]
            assert cli_main(args) == 1, flag
            err = capsys.readouterr().err
            assert err.startswith("restore: error: ") and flag in err and value in err
            assert not (out / "cells.json").exists()

    def test_unknown_manifest_key_names_its_line(self, tmp_path, capsys):
        manifest = write_world(tmp_path, extra="node2vec.walk_lenght = 8\n")
        line = len(manifest.read_text().splitlines())
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(manifest), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"run.cfg:{line}" in err and "node2vec.walk_lenght" in err
        assert not (out / "cells.json").exists()

    def test_unresolved_explicit_center_is_one_cell_error(self, tmp_path):
        (tmp_path / "graph.tsv").write_text(TOY_GRAPH)
        manifest = tmp_path / "run.cfg"
        body = f"graph_path = {tmp_path / 'graph.tsv'}\ncenters = explicit\nhop = 1\nalgorithm = lap\n"
        manifest.write_text(body + "center = /c/en/cat\ncenter = /c/en/ghost\ncenter = /c/en/cat\n")
        out = tmp_path / "out"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out)]) == 3
        assert json.loads((out / "errors_extract.json").read_text()) == [{
            "cell": "/c/en/ghost", "stage": "extract",
            "error": "center label not present in graph: '/c/en/ghost'",
        }]
        report = json.loads((out / "report.json").read_text())
        assert list(report["reconstruction"]["cells"]) == ["/c/en/cat|h1|lap"]
        manifest.write_text(body + "center = /c/en/ghost\n")
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(tmp_path / "o2")]) == 2

    def test_report_ignores_cells_outside_cells_json(self, tmp_path):
        manifest = write_world(tmp_path, algorithms=("lap",))
        out = tmp_path / "out"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out)]) == 0
        before = (out / "report.json").read_bytes()
        # leftovers of an earlier run under another center list
        recon = json.loads(next((out / "recon").glob("*.json")).read_text())
        recon.update(center="/c/en/stray", map=0.0)
        (out / "recon" / "stray_h1_lap.json").write_text(json.dumps(recon))
        semantic = json.loads(next((out / "semantic").glob("*.json")).read_text())
        semantic.update(dataset="stray", mean_distance=99.0)
        (out / "semantic" / "stray_h1_lap.json").write_text(json.dumps(semantic))
        assert cli_main(["report", "--config", str(manifest), "--output", str(out)]) == 0
        assert (out / "report.json").read_bytes() == before

    def test_total_failure_exit_code(self, tmp_path):
        (tmp_path / "empty.tsv").write_text("")
        manifest = tmp_path / "run.cfg"
        manifest.write_text(f"graph_path = {tmp_path / 'empty.tsv'}\ncenters = explicit\ncenter = a\n")
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(manifest), "--output", str(out)]) == 2

    def test_seed_threshold_format_flags(self, tmp_path):
        kgtk = "id\tnode1\trelation\tnode2\n"
        for line in TOY_GRAPH.strip().splitlines():
            s, r, d = line.split("\t")
            kgtk += f"e\t{s}\t{r}\t{d}\n"
        (tmp_path / "graph.tsv").write_text(kgtk)  # kgtk content, manifest says tsv3
        (tmp_path / "sim.tsv").write_text(TOY_SIM)
        (tmp_path / "an.txt").write_text(TOY_ANALOGY)
        manifest = tmp_path / "run.cfg"
        manifest.write_text(MANIFEST_TMPL.format(
            graph=tmp_path / "graph.tsv", sim=tmp_path / "sim.tsv",
            an=tmp_path / "an.txt", algorithms="algorithm = hope",
        ))
        out = tmp_path / "out"
        code = cli_main([
            "run-all", "--config", str(manifest), "--output", str(out),
            "--format", "tsv_kgtk", "--seed", "99", "--threshold", "0.25",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 99
        assert report["config"]["threshold"] == 0.25
        any_cell = next(iter(report["reconstruction"]["cells"].values()))
        assert any_cell["threshold"] == 0.25
        assert load_manifest(manifest, out, graph_format="tsv_kgtk").graph_format == "tsv_kgtk"
        assert load_manifest(manifest, out).graph_format == "tsv3"

    def test_workers_do_not_change_results(self, tmp_path):
        """Every output file but timings.json is byte-identical at 1 and 4 workers."""
        manifest = write_world(tmp_path)
        trees = []
        for workers in ("1", "4"):
            out = tmp_path / f"o{workers}"
            assert cli_main(["run-all", "--config", str(manifest), "--output", str(out), "--dot",
                             "--workers", workers]) == 0
            trees.append({path.relative_to(out).as_posix(): path.read_bytes()
                          for path in out.rglob("*")
                          if path.is_file() and path.name != "timings.json"})
        assert any(name.startswith("dot/") for name in trees[0])
        assert trees[0] == trees[1]

    def test_repeated_grid_lines_add_nothing(self, tmp_path):
        """A repeated hop or algorithm line runs each cell once, also on a worker pool."""
        manifest = write_world(tmp_path, algorithms=("lap", "hope"))
        once = tmp_path / "once"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(once)]) == 0
        manifest = write_world(tmp_path, algorithms=("lap", "hope", "lap"), extra="hop = 1\n")
        twice = tmp_path / "twice"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(twice),
                         "--workers", "2"]) == 0
        cells = json.loads((twice / "cells.json").read_text())["cells"]
        assert len(cells) == len({(cell["center"], cell["hop"]) for cell in cells})
        for name in ("cells.json", "report.json"):
            assert (twice / name).read_bytes() == (once / name).read_bytes(), name


def _readme_layout() -> list[re.Pattern]:
    """One pattern per file line of the README's "Output layout" block; each
    <placeholder> stands for one path component or part of one."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Output layout", 1)[1].split("```")[1]
    names = [line.split()[0] for line in block.splitlines() if line.startswith("  ")]
    return [re.compile(re.sub(r"<[^>]+>", "[^/]+", re.escape(name))) for name in names]


class TestOutputFiles:
    def test_outputs_follow_readme_layout(self, tmp_path):
        manifest = write_world(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run-all", "--config", str(manifest), "--output", str(out), "--dot"]) == 0
        patterns = _readme_layout()
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert [p for p in written if not any(pat.fullmatch(p) for pat in patterns)] == []
        assert [pat.pattern for pat in patterns if not any(pat.fullmatch(p) for p in written)] == []
        # the names a reader of the files derives from a report cell alone
        report = json.loads((out / "report.json").read_text())
        for cell in report["reconstruction"]["cells"].values():
            stem = f"{center_slug(cell['center'])}_h{cell['hop']}"
            assert (out / "subgraphs" / f"{stem}.tsv").is_file()
            assert (out / "embeddings" / f"{stem}_{cell['algorithm']}.emb").is_file()

    @pytest.mark.parametrize("target, code", [
        ("cells.json", 2),  # the stage fails as a whole
        (f"subgraphs/{center_slug('/c/en/cat')}_h1.tsv", 3),  # one cell fails
    ], ids=["json", "tsv"])
    def test_interrupted_write_leaves_nothing(self, tmp_path, monkeypatch, target, code):
        """A write that fails half way leaves neither a part of the file at its
        target nor a temporary file beside it."""
        manifest = write_world(tmp_path)
        out = tmp_path / "out"
        real_open = Path.open

        class Torn:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "disk full half way")

        def torn_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if "w" in mode and path.as_posix().startswith((out / target).as_posix()):
                return Torn(fh)
            return fh

        monkeypatch.setattr(Path, "open", torn_open)
        assert cli_main(["extract", "--config", str(manifest), "--output", str(out)]) == code
        assert not (out / target).exists()
        assert list(out.rglob("*.tmp")) == []

    def test_leftover_tmp_files_do_not_change_a_rerun(self, tmp_path):
        manifest = write_world(tmp_path)
        out = tmp_path / "out"
        args = ["run-all", "--config", str(manifest), "--output", str(out)]
        assert cli_main(args) == 0
        before = (out / "report.json").read_bytes()
        # what killed writers leave behind: cut-short temp files beside their targets
        recon = next((out / "recon").glob("*.json"))
        recon.with_name(recon.name + ".tmp").write_bytes(recon.read_bytes()[:20])
        (out / "recon" / "stray_h1_lap.json.tmp").write_text("{")
        emb = next((out / "embeddings").glob("*.emb"))
        emb.with_name(emb.name + ".tmp").write_bytes(emb.read_bytes()[:20])
        emb.unlink()  # killed before the rename: only the temp file is there
        assert cli_main(args) == 0
        assert (out / "report.json").read_bytes() == before
        assert emb.is_file()


def test_benchmark_traced_names_resolve():
    """Every (module, attribute) the benchmark tracer patches is a callable in
    `restore`, and every name a benchmark file imports from `restore` exists."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    tree = ast.parse((perfbench / "tracer.py").read_text(encoding="utf-8"))
    patches = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]
    )
    assert patches
    for module_name, attr, _ in patches:
        module = importlib.import_module(f"restore.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    imported = [
        (source.name, node.module, alias.name)
        for source in sorted(perfbench.glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("restore.")
        for alias in node.names
    ]
    assert {source for source, _, _ in imported} >= {"run.py", "workloads.py"}
    for source, module_name, name in imported:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"{source}: from {module_name} import {name}"
