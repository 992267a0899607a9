"""Pipeline stages: extract -> embed -> reconstruct -> semantic -> report.

Every stage reads files written by the previous one and writes files of its
own, so a 5000-center batch can resume or re-run any stage. A re-run stage
computes and writes all of its files again, so no output built under other
settings survives it. Cells are (center, hop, algorithm) units; each gets a
seed derived by stable hash of (run seed, center, hop, algorithm), so results
do not depend on worker scheduling. A failing cell is recorded in the stage's
error ledger, never aborts its siblings, and is left out of report.json. Each
per-cell stage merges its wall times into timings.json.
"""
from __future__ import annotations

import hashlib
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import RunConfig
from .dot import render_dot
from .emb_io import read_embedding, write_embedding
from .factorization import hope_embed, lap_embed, lle_embed
from .graph import DiGraph, khop_ego_subgraph
from .ingest import graph_from_records, parse_edge_list, write_atomic, write_edge_list
from .randomwalk import node2vec_embed
from .reconstruct import DEFAULT_FRACTIONS, reconstruction_report
from .sdne import sdne_train
from .semantic import (
    analogy_distance,
    dataset_vocab,
    load_analogy_dataset,
    load_similarity_dataset,
    similarity_mean_distance,
)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
STAGES = ("extract", "embed", "reconstruct", "semantic")
DIFF_COLUMNS = ("algorithm", "hop", "avg_nodes", "avg_added_nodes", "avg_missing_nodes",
                "avg_edges", "avg_added_edges", "avg_missing_edges")
SEMANTIC_COLUMNS = ("dataset", "algorithm", "hop", "mean_distance", "pairs_evaluated",
                    "pairs_skipped")


class PipelineError(RuntimeError):
    """Total pipeline failure: nothing usable was produced."""


# -- cells and the output layout ------------------------------------------


def cell_seed(run_seed: int, center: str, hop: int, algorithm: str) -> int:
    digest = hashlib.blake2b(
        f"{run_seed}|{center}|{hop}|{algorithm}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") >> 1  # keep it positive


def center_slug(label: str) -> str:
    safe = "".join(ch if ch.isalnum() else "_" for ch in label).strip("_")[:40]
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=4).hexdigest()
    return f"{safe}_{digest}" if safe else digest


@dataclass(frozen=True)
class Cell:
    """One unit of a stage's work. `center` is a center label, or a dataset's
    name in the semantic stage, and `slug` its file-name form. An extract cell
    has no algorithm; an unresolved center has no hop either.

    `key` (`center|hN|algorithm`) names the cell in report.json, the error
    ledgers and timings; `stem` (`slug_hN`) begins the names of its files.
    """

    center: str
    slug: str = ""
    hop: int | None = None
    algorithm: str | None = None
    seed: int = 0

    @property
    def key(self) -> str:
        hop = None if self.hop is None else f"h{self.hop}"
        return "|".join(part for part in (self.center, hop, self.algorithm) if part is not None)

    @property
    def stem(self) -> str:
        return f"{self.slug}_h{self.hop}"


class Layout:
    """Where each file lives under the output directory; no other code names
    one (README "Output layout")."""

    def __init__(self, root: Path):
        self.root = root
        self.cells = root / "cells.json"
        self.stats = root / "stats.json"
        self.embed_log = root / "embeddings" / "embed_log.json"
        self.report = root / "report.json"
        self.timings = root / "timings.json"

    def errors(self, stage: str) -> Path:
        return self.root / f"errors_{stage}.json"

    def report_csv(self, table: str) -> Path:
        return self.root / f"report_{table}.csv"

    def subgraph(self, cell: Cell) -> Path:
        return self.root / "subgraphs" / f"{cell.stem}.tsv"

    def embedding(self, cell: Cell) -> Path:
        return self.root / "embeddings" / f"{cell.stem}_{cell.algorithm}.emb"

    def recon(self, cell: Cell) -> Path:
        return self.root / "recon" / f"{cell.stem}_{cell.algorithm}.json"

    def dot(self, cell: Cell) -> Path:
        return self.root / "dot" / f"{cell.stem}_{cell.algorithm}.dot"

    def semantic(self, cell: Cell) -> Path:
        return self.root / "semantic" / f"{cell.stem}_{cell.algorithm}.json"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _write_json(path: Path, obj) -> None:
    write_atomic(path, canonical_json(obj) + "\n")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# -- shared loading -------------------------------------------------------


def _warn_skipped(path: str | Path, diagnostics: list[str]) -> None:
    """Name the malformed input lines a loader skipped, on the log only."""
    if diagnostics:
        log.warning("%s: skipped %d malformed line(s): %s",
                    path, len(diagnostics), "; ".join(diagnostics[:5]))


def load_datasets(cfg: RunConfig) -> dict[str, dict]:
    """name -> {kind, records, vocab}"""
    out = {}
    for name, (kind, path) in sorted(cfg.dataset_paths.items()):
        if kind == "similarity":
            fmt = "csv" if path.endswith(".csv") else "tsv"
            records, diags = load_similarity_dataset(path, fmt)
        else:
            records, diags = load_analogy_dataset(path)
        _warn_skipped(path, diags)
        out[name] = {"kind": kind, "records": records, "vocab": dataset_vocab(records)}
    return out


def _require(out: Layout, stage: str, *paths: Path) -> None:
    missing = [path.relative_to(out.root).as_posix() for path in paths if not path.exists()]
    if missing:
        raise PipelineError(f"{stage} stage requires prior outputs; missing: {missing}")


def _load_subgraph(out: Layout, cell: Cell) -> DiGraph:
    return graph_from_records(parse_edge_list(out.subgraph(cell), "tsv3"))


def run_stage(cfg: RunConfig, stage: str, cells: list[Cell], worker) -> tuple[dict, list[dict]]:
    """Run `worker` over cells on a bounded thread pool; return results by cell key, and errors.

    A failing cell becomes an entry of errors_<stage>.json, sorted by cell,
    and never stops its siblings. Each cell's wall time and the stage's
    `_stage_total` replace the stage's entry in timings.json.
    """
    started = time.perf_counter()

    def run_one(cell: Cell):
        t0 = time.perf_counter()
        try:
            value, error = worker(cell), None
        except Exception as exc:  # cell isolation: record, keep siblings running
            value, error = None, {"cell": cell.key, "stage": stage, "error": str(exc)}
        return cell.key, value, error, time.perf_counter() - t0

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        outcomes = list(pool.map(run_one, cells))
    results = {key: value for key, value, error, _ in outcomes if error is None}
    errors = sorted((error for *_, error, _ in outcomes if error is not None),
                    key=lambda e: e["cell"])
    out = Layout(cfg.output_dir)
    _write_json(out.errors(stage), errors)
    timings = _read_json(out.timings) if out.timings.exists() else {}
    timings[stage] = {key: seconds for key, *_, seconds in outcomes}
    timings[stage]["_stage_total"] = time.perf_counter() - started
    write_atomic(out.timings, json.dumps(timings, indent=2))
    return results, errors


def _center_cells(cfg: RunConfig) -> list[Cell]:
    """One cell per (center, hop) of cells.json and algorithm of the manifest."""
    return [
        Cell(c["center"], c["slug"], c["hop"], algo, cell_seed(cfg.seed, c["center"], c["hop"], algo))
        for c in _read_json(Layout(cfg.output_dir).cells)["cells"]
        for algo in cfg.algorithms
    ]


# -- stage: extract --------------------------------------------------------


def resolve_centers(
    cfg: RunConfig, dataset_vocab: Mapping[str, set[str]], graph: DiGraph
) -> tuple[list[str], list[str]]:
    """(resolved, unresolved) center labels: the explicit labels, if any, split
    by graph membership in manifest order, or else the mapped dataset
    vocabulary intersected with the graph, sorted. Raises if none resolves."""
    if cfg.center_labels:
        resolved = [lab for lab in cfg.center_labels if graph.has_label(lab)]
        unresolved = [lab for lab in cfg.center_labels if not graph.has_label(lab)]
        why = f"center labels not present in graph: {unresolved}"
    else:
        mapper = cfg.label_mapper()
        mapped = {mapper(word) for vocab in dataset_vocab.values() for word in vocab}
        resolved = sorted(lab for lab in mapped if graph.has_label(lab))
        unresolved = []
        why = "dataset vocabulary does not overlap the graph"
    if not resolved:
        raise ValueError(f"no centers resolved: {why}")
    return resolved, unresolved


def run_extract(cfg: RunConfig) -> list[dict]:
    parsed = parse_edge_list(cfg.graph_path, cfg.graph_format)
    if not parsed.edges and not parsed.isolated_nodes:
        raise PipelineError(f"graph file {cfg.graph_path} holds no edges")
    _warn_skipped(cfg.graph_path, parsed.diagnostics)
    graph = graph_from_records(parsed)
    vocab = {name: info["vocab"] for name, info in load_datasets(cfg).items()}
    out = Layout(cfg.output_dir)

    centers, unresolved = resolve_centers(cfg, vocab, graph)
    # unresolved explicit centers become error entries, the rest proceed
    cells = [Cell(label) for label in unresolved] + [
        Cell(label, center_slug(label), hop) for label in centers for hop in cfg.hops
    ]

    def worker(cell: Cell):
        if not graph.has_label(cell.center):
            raise ValueError(f"center label not present in graph: {cell.center!r}")
        sub = khop_ego_subgraph(graph, cell.center, cell.hop)
        write_edge_list(sub, out.subgraph(cell))
        return {"nodes": sub.node_count, "edges": sub.edge_count, "hop": cell.hop}

    stats, errors = run_stage(cfg, "extract", cells, worker)
    per_hop = {}
    for hop in cfg.hops:
        vs = [s["nodes"] for s in stats.values() if s["hop"] == hop]
        es = [s["edges"] for s in stats.values() if s["hop"] == hop]
        if vs:
            per_hop[str(hop)] = {
                "min_v": min(vs), "avg_v": sum(vs) / len(vs), "max_v": max(vs),
                "min_e": min(es), "avg_e": sum(es) / len(es), "max_e": max(es),
            }
    _write_json(out.cells, {
        "centers": [{"label": label, "slug": center_slug(label)} for label in centers],
        "hops": list(cfg.hops),
        "algorithms": list(cfg.algorithms),
        "cells": [
            {"center": c.center, "slug": c.slug, "hop": c.hop} for c in cells if c.key in stats
        ],
    })
    _write_json(out.stats, {
        "graph": {"nodes": graph.node_count, "edges": graph.edge_count},
        "per_hop": per_hop,
        "cells": {k: {"nodes": v["nodes"], "edges": v["edges"]} for k, v in sorted(stats.items())},
    })
    return errors


# -- stage: embed -----------------------------------------------------------


def _embed_one(cfg: RunConfig, sub: DiGraph, algorithm: str, dim: int, seed: int):
    if algorithm == "hope":
        return hope_embed(sub, dim, beta=cfg.hope_beta)
    if algorithm == "lle":
        return lle_embed(sub, dim)
    if algorithm == "lap":
        return lap_embed(sub, dim)
    if algorithm == "node2vec":
        return node2vec_embed(sub, dim, cfg.node2vec, seed)
    if algorithm == "sdne":
        return sdne_train(sub, dim, cfg.sdne, seed=seed)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_embed(cfg: RunConfig) -> list[dict]:
    out = Layout(cfg.output_dir)
    _require(out, "embed", out.cells)

    def worker(cell: Cell):
        sub = _load_subgraph(out, cell)
        requested = cfg.dim_schedule[cell.hop]
        emb = _embed_one(cfg, sub, cell.algorithm, requested, cell.seed)
        write_embedding(emb, out.embedding(cell), cfg.emb_format)
        if emb.dim != requested:
            log.info("cell %s: requested %d, effective %d", cell.key, requested, emb.dim)
        return {
            "requested_dim": requested,
            "effective_dim": emb.dim,
            "cell_seed": cell.seed,
            "nodes": sub.node_count,
        }

    results, errors = run_stage(cfg, "embed", _center_cells(cfg), worker)
    _write_json(out.embed_log, dict(sorted(results.items())))
    return errors


# -- stage: reconstruct ------------------------------------------------------


def run_reconstruct(cfg: RunConfig) -> list[dict]:
    out = Layout(cfg.output_dir)
    _require(out, "reconstruct", out.embed_log)
    embed_log = _read_json(out.embed_log)
    # a cell whose embedding failed upstream has its error recorded already
    cells = [cell for cell in _center_cells(cfg) if cell.key in embed_log]

    def worker(cell: Cell):
        sub = _load_subgraph(out, cell)
        emb = read_embedding(out.embedding(cell))
        scorer = cfg.scorers[cell.algorithm]
        report = reconstruction_report(emb, sub, scorer, cfg.threshold)
        payload = {
            "center": cell.center,
            "hop": cell.hop,
            "algorithm": cell.algorithm,
            "scorer": scorer,
            "threshold": cfg.threshold,
            "map": report.map_score,
            "prec_at": {str(f): v for f, v in report.prec_at.items()},
            "prediction_count": report.prediction_count,
            "nodes": sub.node_count,
            "edges": sub.edge_count,
            "cell_seed": cell.seed,
            "diff": {
                "added_nodes": report.diff.added_nodes,
                "missing_nodes": report.diff.missing_nodes,
                "added_edges": report.diff.added_edges,
                "missing_edges": report.diff.missing_edges,
                "added_edge_list": report.diff.added_edge_list[:200],
                "missing_edge_list": report.diff.missing_edge_list[:200],
                "edge_lists_truncated": max(report.diff.added_edges, report.diff.missing_edges) > 200,
            },
        }
        _write_json(out.recon(cell), payload)
        if cfg.dot:
            dot_src = render_dot(sub, report.diff)
            if dot_src is not None:
                write_atomic(out.dot(cell), dot_src)

    return run_stage(cfg, "reconstruct", cells, worker)[1]


# -- stage: semantic ----------------------------------------------------------


def _semantic_cells(cfg: RunConfig) -> list[Cell]:
    """One cell per (dataset, hop, algorithm) of the manifest; a dataset's
    name is its own slug."""
    return [
        Cell(name, name, hop, algo)
        for name in sorted(cfg.dataset_paths)
        for hop in cfg.hops
        for algo in cfg.algorithms
    ]


def run_semantic(cfg: RunConfig) -> list[dict]:
    out = Layout(cfg.output_dir)
    _require(out, "semantic", out.cells, out.embed_log)
    mapper = cfg.label_mapper()
    datasets = load_datasets(cfg)
    embed_log = _read_json(out.embed_log)
    # (hop, algorithm) -> each center's own vector, read once from the
    # embedding of every cell embed_log.json lists and shared by all datasets;
    # or the error of a file that cannot be read, which fails each dataset's cell
    lookups: dict[tuple[int, str], dict[str, np.ndarray] | Exception] = {}
    for cell in _center_cells(cfg):
        lookup = lookups.setdefault((cell.hop, cell.algorithm), {})
        if cell.key in embed_log and isinstance(lookup, dict):
            try:
                emb = read_embedding(out.embedding(cell))
            except (OSError, ValueError) as exc:
                lookups[cell.hop, cell.algorithm] = exc
                continue
            with suppress(ValueError):  # a center missing from its own embedding has no vector
                lookup[cell.center] = emb.vector_for(cell.center)

    def worker(cell: Cell):
        lookup = lookups.get((cell.hop, cell.algorithm), {})
        if isinstance(lookup, Exception):
            raise lookup
        dataset = cell.center
        info = datasets[dataset]
        if info["kind"] == "similarity":
            rep = similarity_mean_distance(info["records"], lookup, mapper, dataset_name=dataset)
        else:
            rep = analogy_distance(
                info["records"], lookup, cfg.analogy_mode, mapper, dataset_name=dataset
            )
        payload = {
            "dataset": dataset,
            "kind": info["kind"],
            "hop": cell.hop,
            "algorithm": cell.algorithm,
            "mean_distance": rep.mean_distance,
            "pairs_evaluated": rep.pairs_evaluated,
            "pairs_skipped": rep.pairs_skipped,
            "mode": rep.mode,
        }
        _write_json(out.semantic(cell), payload)

    return run_stage(cfg, "semantic", _semantic_cells(cfg), worker)[1]


# -- stage: report --------------------------------------------------------------


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _load_cells(files: dict[str, Path]) -> dict[str, dict]:
    """Cell key -> payload for each cell (key -> file) whose file exists, read
    in file-name order: the order the aggregate means sum in."""
    cells = {}
    for key, path in sorted(files.items(), key=lambda item: item[1].name):
        if path.exists():
            cells[key] = _read_json(path)
    return cells


def _by_algorithm_hop(cfg: RunConfig, cells: dict[str, dict]) -> list[tuple[str, int, list]]:
    """(algorithm, hop, cells) in manifest order, skipping empty groups."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for cell in cells.values():
        groups.setdefault((cell["algorithm"], cell["hop"]), []).append(cell)
    return [
        (algo, hop, groups[algo, hop])
        for algo in cfg.algorithms
        for hop in cfg.hops
        if (algo, hop) in groups
    ]


def report_config(cfg: RunConfig) -> dict:
    """The settings report.json records under `config`."""
    return {
        "seed": cfg.seed,
        "dim_schedule": {str(hop): dim for hop, dim in sorted(cfg.dim_schedule.items())},
        "epochs": cfg.epochs,
        "threshold": cfg.threshold,
        "prec_fractions": list(DEFAULT_FRACTIONS),
        "scorers": dict(cfg.scorers),
        "node2vec": asdict(cfg.node2vec),
        "sdne": asdict(cfg.sdne),
        "hope_beta": cfg.hope_beta,
        "analogy_mode": cfg.analogy_mode,
        "emb_format": cfg.emb_format,
        "label_prefix": cfg.label_prefix,
    }


def run_report(cfg: RunConfig) -> list[dict]:
    out = Layout(cfg.output_dir)
    _require(out, "report", out.cells, out.embed_log)

    errors: list[dict] = []
    for stage in STAGES:
        if out.errors(stage).exists():
            errors.extend(_read_json(out.errors(stage)))
    # a cell a ledger lists is left out, whatever an earlier run left in its file
    failed_recon = {e["cell"] for e in errors if e["stage"] in ("embed", "reconstruct")}
    failed_semantic = {e["cell"] for e in errors if e["stage"] == "semantic"}
    recon_cells = _load_cells({cell.key: out.recon(cell) for cell in _center_cells(cfg)
                               if cell.key not in failed_recon})
    semantic_cells = _load_cells({cell.key: out.semantic(cell) for cell in _semantic_cells(cfg)
                                  if cell.key not in failed_semantic})

    recon_rows, diff_rows = [], []
    for algo, hop, cells in _by_algorithm_hop(cfg, recon_cells):
        recon_rows.append({
            "algorithm": algo,
            "hop": hop,
            "cells": len(cells),
            "map": _mean([c["map"] for c in cells]),
            "prec_at": {
                str(f): _mean([c["prec_at"][str(f)] for c in cells]) for f in DEFAULT_FRACTIONS
            },
        })
        diff_rows.append({
            "algorithm": algo,
            "hop": hop,
            "avg_nodes": _mean([c["nodes"] for c in cells]),
            "avg_added_nodes": _mean([c["diff"]["added_nodes"] for c in cells]),
            "avg_missing_nodes": _mean([c["diff"]["missing_nodes"] for c in cells]),
            "avg_edges": _mean([c["edges"] for c in cells]),
            "avg_added_edges": _mean([c["diff"]["added_edges"] for c in cells]),
            "avg_missing_edges": _mean([c["diff"]["missing_edges"] for c in cells]),
        })
    semantic_rows = [semantic_cells[k] for k in sorted(semantic_cells)]
    semantic_averages = [
        {"algorithm": algo, "hop": hop, "datasets": len(cells),
         "average_distance": _mean([c["mean_distance"] for c in cells])}
        for algo, hop, cells in _by_algorithm_hop(cfg, semantic_cells)
    ]
    datasets = sorted({c["dataset"] for c in semantic_cells.values()})

    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "config": report_config(cfg),
        "graph_path": cfg.graph_path,
        "stats": _read_json(out.stats) if out.stats.exists() else {},
        "reconstruction": {"cells": recon_cells, "aggregate": recon_rows, "diff": diff_rows},
        "semantic": {"cells": semantic_cells, "aggregate": semantic_averages, "datasets": datasets},
        "errors": errors,
    }
    validate_run_result(report)
    _write_json(out.report, report)

    prec_columns = [f"prec@{f}" for f in DEFAULT_FRACTIONS]
    _write_csv(out.report_csv("recon"), ["algorithm", "hop", "map", *prec_columns], [
        {**row, **{f"prec@{f}": v for f, v in row["prec_at"].items()}} for row in recon_rows
    ])
    _write_csv(out.report_csv("diff"), DIFF_COLUMNS, diff_rows)
    _write_csv(out.report_csv("semantic"), SEMANTIC_COLUMNS, semantic_rows + [
        {**row, "dataset": "average", "mean_distance": row["average_distance"]}
        for row in semantic_averages
    ])
    return errors


def _write_csv(path: Path, columns: Sequence[str], rows: list[dict]) -> None:
    """Numbers as `repr`, so floats round-trip exactly; absent cells stay empty."""
    lines = [",".join(columns)]
    for row in rows:
        cells = (row.get(c, "") for c in columns)
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in cells))
    write_atomic(path, "\n".join(lines) + "\n")


def validate_run_result(report: dict) -> None:
    """Structural schema check; raises ValueError on any violation."""
    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(f"run result schema violation: {msg}")

    need(report.get("schema_version") == SCHEMA_VERSION, "bad schema_version")
    need(isinstance(report.get("seed"), int), "seed must be an int")
    need(isinstance(report.get("config"), dict), "config must be a mapping")
    for section in ("reconstruction", "semantic"):
        need(isinstance(report.get(section), dict), f"{section} must be a mapping")
        need(isinstance(report[section].get("cells"), dict), f"{section}.cells must be a mapping")
        need(isinstance(report[section].get("aggregate"), list), f"{section}.aggregate must be a list")
    for key, cell in report["reconstruction"]["cells"].items():
        need(0.0 <= cell["map"] <= 1.0, f"map out of range in {key}")
        for f, v in cell["prec_at"].items():
            need(0.0 <= v <= 1.0, f"prec@{f} out of range in {key}")
        diff = cell["diff"]
        for field_name in ("added_nodes", "missing_nodes", "added_edges", "missing_edges"):
            need(isinstance(diff[field_name], int) and diff[field_name] >= 0,
                 f"diff.{field_name} invalid in {key}")
    for key, cell in report["semantic"]["cells"].items():
        need(cell["mean_distance"] >= 0.0, f"mean_distance negative in {key}")
        need(cell["pairs_evaluated"] >= 1, f"pairs_evaluated invalid in {key}")
    need(isinstance(report.get("errors"), list), "errors must be a list")


# -- run-all -----------------------------------------------------------------


def run_all(cfg: RunConfig) -> list[dict]:
    run_extract(cfg)
    run_embed(cfg)
    run_reconstruct(cfg)
    if cfg.dataset_paths:
        run_semantic(cfg)
    # the report stage merges every stage's error ledger
    return run_report(cfg)
