"""Span tracing around the calls into each `restore` module, from outside it.

Each public function (and each ``run_*`` stage) is replaced by a timing
wrapper under the name its caller looks it up by, e.g.
``restore.pipeline.reconstruction_report`` and
``restore.reconstruct.precision_at_k``. Private kernels are never touched,
so they can be renamed or deleted freely; a public name that no longer
exists yields a missing metric, not a crash.

Run as a script, it executes one traced ``restore`` CLI command in this
process and writes the spans as JSON:

    python3 perfbench/tracer.py SPANS.json run-all --config run.cfg --output out
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import threading
import time
from contextlib import contextmanager

# (module where the caller looks the name up, attribute, span name).
# The span name's prefix is the layer: the module that defines the function.
PATCHES = (
    ("cli", "load_manifest", "ingest.load_manifest"),
    ("pipeline", "run_extract", "pipeline.run_extract"),
    ("pipeline", "run_embed", "pipeline.run_embed"),
    ("pipeline", "run_reconstruct", "pipeline.run_reconstruct"),
    ("pipeline", "run_semantic", "pipeline.run_semantic"),
    ("pipeline", "run_report", "pipeline.run_report"),
    ("pipeline", "parse_edge_list", "ingest.parse_edge_list"),
    ("pipeline", "write_edge_list", "ingest.write_edge_list"),
    ("pipeline", "graph_from_records", "ingest.graph_from_records"),
    ("pipeline", "resolve_centers", "ingest.resolve_centers"),
    ("pipeline", "khop_ego_subgraph", "graph.khop_ego_subgraph"),
    ("pipeline", "lap_embed", "factorization.lap_embed"),
    ("pipeline", "lle_embed", "factorization.lle_embed"),
    ("pipeline", "hope_embed", "factorization.hope_embed"),
    ("factorization", "sym_eig_smallest", "linalg.sym_eig_smallest"),
    ("factorization", "truncated_svd", "linalg.truncated_svd"),
    ("factorization", "katz_similarity", "linalg.katz_similarity"),
    ("pipeline", "node2vec_embed", "randomwalk.node2vec_embed"),
    ("randomwalk", "generate_walks", "randomwalk.generate_walks"),
    ("randomwalk", "train_sgns", "randomwalk.train_sgns"),
    ("pipeline", "sdne_train", "sdne.sdne_train"),
    ("pipeline", "write_embedding", "emb_io.write_embedding"),
    ("pipeline", "read_embedding", "emb_io.read_embedding"),
    ("pipeline", "reconstruction_report", "reconstruct.reconstruction_report"),
    ("reconstruct", "pairwise_scores", "reconstruct.pairwise_scores"),
    ("reconstruct", "normalize_scores", "reconstruct.normalize_scores"),
    ("reconstruct", "predict_edges", "reconstruct.predict_edges"),
    ("reconstruct", "precision_at_k", "reconstruct.precision_at_k"),
    ("reconstruct", "mean_average_precision", "reconstruct.mean_average_precision"),
    ("reconstruct", "predictions_to_graph", "reconstruct.predictions_to_graph"),
    ("reconstruct", "graph_diff", "graph.graph_diff"),
    ("pipeline", "load_similarity_dataset", "semantic.load_similarity_dataset"),
    ("pipeline", "load_analogy_dataset", "semantic.load_analogy_dataset"),
    ("pipeline", "similarity_mean_distance", "semantic.similarity_mean_distance"),
    ("pipeline", "analogy_distance", "semantic.analogy_distance"),
)


def _sgns_updates(corpus, params) -> int:
    """Positive-pair updates train_sgns makes: epochs x (center, context) pairs."""
    pairs = 0
    for walk in corpus.walks:
        n = len(walk)
        pairs += sum(2 * (n - off) for off in range(1, min(params.context_size, n - 1) + 1))
    return params.epochs * pairs


# Sizes recorded per call from (named arguments, result), after the span ends.
COUNTERS = {
    "ingest.parse_edge_list": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "graph.khop_ego_subgraph": lambda a, r: {"nodes": r.node_count},
    "linalg.sym_eig_smallest": lambda a, r: {"n": len(a["a"])},
    "randomwalk.generate_walks": lambda a, r: {"steps": sum(len(w) for w in r.walks)},
    "randomwalk.train_sgns": lambda a, r: {"updates": _sgns_updates(a["corpus"], a["params"])},
    "emb_io.write_embedding": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "emb_io.read_embedding": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "reconstruct.pairwise_scores": lambda a, r: {
        "pairs": r.pair_count(), "score_bytes": 8 * r.node_count ** 2},
    "reconstruct.predict_edges": lambda a, r: {"predictions": len(r)},
    "semantic.similarity_mean_distance": lambda a, r: {"pairs_evaluated": r.pairs_evaluated},
    "semantic.analogy_distance": lambda a, r: {"pairs_evaluated": r.pairs_evaluated},
}


class Tracer:
    """Collects spans in memory. Each span records its thread and its parent:
    the open span below it on that thread, or, for the first span of a pool
    worker, the span the tracer's own thread has open (the stage waiting on
    the pool)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {self._main: []}

    @contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            below = stack or self._stacks[self._main]
            record = {"name": name, "tid": tid, "parent": below[-1] if below else None,
                      "counts": {}}
            stack.append(len(self.spans))
            self.spans.append(record)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            # how far the process's peak RSS (KiB on Linux) rose during the span
            record["counts"]["rss_raise_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak) / 1024.0
            with self._lock:
                stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    named = signature.bind(*args, **kwargs).arguments
                    record["counts"].update(counter(named, result))
                except (AttributeError, KeyError, TypeError, OSError):
                    pass  # a renamed argument or field loses the count, not the run
            return result

        return traced

    def install(self, package: str = "restore", patches=PATCHES) -> list[str]:
        """Wrap every patch target that exists; return the ones that do not."""
        missing = []
        for module_name, attr, name in patches:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn))
        return missing


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover; children
    on two worker threads may overlap, so covered time is their union."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    own = []
    for i, s in enumerate(spans):
        covered, reached = 0.0, s["start"]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reached), min(end, s["end"])
            if end > start:
                covered += end - start
                reached = end
        own.append(s["end"] - s["start"] - covered)
    return own


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    # Importing `restore.cli` pulls in every module; it counts to the cli layer.
    with tracer.span("cli.import"):
        cli = importlib.import_module("restore.cli")
    missing = tracer.install()
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "missing": missing, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
