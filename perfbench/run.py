"""Pipeline benchmark for `restore`: seeded workloads through the real CLI.

    python3 perfbench/run.py --workload recon-dense --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` runs ``restore run-all`` child processes one at a time (a
closed loop, one client) until ``--seconds`` of run time is spent, and
reports the end-to-end metrics. ``--trace 1`` alternates those untraced runs
with traced ones (see tracer.py) and reports the per-layer metrics. Every run
is checked, outside its timed span; the last line of stdout is the result
JSON, the line before it the inputs, environment and samples behind it.
Exits 1 when a check fails and 2 when the program is not there.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracer import PATCHES, self_times
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"

IMPORT_REPS = 3      # bare `import restore.cli` runs behind cli.import_s
CHILD_TIMEOUT = 150  # seconds before a child is killed and counted as crashed
# A traced run's self times must cover its wall time up to interpreter
# start-up, shutdown and span output: within this many seconds or this share.
SELF_SUM_SLACK_S = 0.5
SELF_SUM_SLACK_SHARE = 0.05


def _fn(name, field="s", unit="s", better="lower"):
    getter = {"s": lambda a: a.s(name), "self_s": lambda a: a.self_s(name),
              "calls": lambda a: a.calls(name)}.get(field, lambda a: a.total(name, field))
    return (f"{name}.{field}", unit, better, getter, [name])


def _layer(layer):
    return (f"{layer}.self_s", "s", "lower", lambda a: a.layer_self(layer), [])


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, better, value from the span aggregate, span names it needs).
PER_LAYER = [
    ("cli.import_s", "s", "lower", lambda a: a.extra["cli.import_s"], []),
    _layer("cli"),
    _fn("ingest.parse_edge_list"),
    _fn("ingest.parse_edge_list", "calls", "count"),
    _fn("ingest.parse_edge_list", "bytes", "bytes"),
    _fn("ingest.write_edge_list"),
    _fn("ingest.write_edge_list", "calls", "count"),
    _fn("ingest.graph_from_records"),
    _fn("ingest.graph_from_records", "calls", "count"),
    _layer("ingest"),
    _fn("graph.khop_ego_subgraph"),
    _fn("graph.khop_ego_subgraph", "nodes", "count"),
    _fn("graph.graph_diff"),
    _layer("graph"),
    _fn("linalg.sym_eig_smallest"),
    _fn("linalg.sym_eig_smallest", "calls", "count"),
    ("linalg.sym_eig_smallest.max_n", "count", "lower",
     lambda a: a.peak("linalg.sym_eig_smallest", "n"), ["linalg.sym_eig_smallest"]),
    _fn("linalg.truncated_svd"),
    _fn("linalg.katz_similarity"),
    _layer("linalg"),
    _fn("factorization.lap_embed", "self_s"),
    _fn("factorization.lle_embed", "self_s"),
    _fn("factorization.hope_embed", "self_s"),
    _layer("factorization"),
    _fn("randomwalk.generate_walks"),
    _fn("randomwalk.generate_walks", "steps", "count"),
    _fn("randomwalk.train_sgns"),
    _fn("randomwalk.train_sgns", "updates", "count"),
    ("randomwalk.train_sgns.updates_per_s", "1/s", "higher",
     lambda a: _ratio(a.total("randomwalk.train_sgns", "updates"), a.s("randomwalk.train_sgns")),
     ["randomwalk.train_sgns"]),
    _layer("randomwalk"),
    _fn("sdne.sdne_train"),
    _layer("sdne"),
    _fn("reconstruct.pairwise_scores"),
    _fn("reconstruct.normalize_scores"),
    _fn("reconstruct.predict_edges"),
    _fn("reconstruct.precision_at_k"),
    _fn("reconstruct.mean_average_precision"),
    _fn("reconstruct.predictions_to_graph"),
    ("reconstruct.pairs", "count", "lower",
     lambda a: a.total("reconstruct.pairwise_scores", "pairs"), ["reconstruct.pairwise_scores"]),
    ("reconstruct.predictions", "count", "lower",
     lambda a: a.total("reconstruct.predict_edges", "predictions"), ["reconstruct.predict_edges"]),
    ("reconstruct.predictions_max", "count", "lower",
     lambda a: a.peak("reconstruct.predict_edges", "predictions"), ["reconstruct.predict_edges"]),
    ("reconstruct.kept_ratio", "ratio", "lower",
     lambda a: _ratio(a.total("reconstruct.predict_edges", "predictions"),
                      a.total("reconstruct.pairwise_scores", "pairs")),
     ["reconstruct.predict_edges", "reconstruct.pairwise_scores"]),
    ("reconstruct.score_bytes_sum", "bytes", "lower",
     lambda a: a.total("reconstruct.pairwise_scores", "score_bytes"), ["reconstruct.pairwise_scores"]),
    ("reconstruct.score_bytes_max", "bytes", "lower",
     lambda a: a.peak("reconstruct.pairwise_scores", "score_bytes"), ["reconstruct.pairwise_scores"]),
    # how far these calls raised the traced process's peak RSS
    _fn("reconstruct.pairwise_scores", "rss_raise_mb", "MB"),
    _fn("reconstruct.predictions_to_graph", "rss_raise_mb", "MB"),
    _fn("graph.graph_diff", "rss_raise_mb", "MB"),
    _fn("pipeline.run_embed", "rss_raise_mb", "MB"),
    _layer("reconstruct"),
    _fn("emb_io.write_embedding"),
    _fn("emb_io.write_embedding", "calls", "count"),
    _fn("emb_io.write_embedding", "bytes", "bytes"),
    _fn("emb_io.read_embedding"),
    _fn("emb_io.read_embedding", "calls", "count"),
    _fn("emb_io.read_embedding", "bytes", "bytes"),
    _layer("emb_io"),
    _fn("semantic.similarity_mean_distance"),
    _fn("semantic.analogy_distance"),
    ("semantic.pairs_evaluated", "count", "higher",
     lambda a: a.total("semantic.similarity_mean_distance", "pairs_evaluated")
     + a.total("semantic.analogy_distance", "pairs_evaluated"),
     ["semantic.similarity_mean_distance", "semantic.analogy_distance"]),
    _layer("semantic"),
    _fn("pipeline.run_extract"),
    _fn("pipeline.run_embed"),
    _fn("pipeline.run_reconstruct"),
    _fn("pipeline.run_semantic"),
    _fn("pipeline.run_report"),
    _layer("pipeline"),
    ("pipeline.cells", "count", "higher", lambda a: a.extra["cells"], []),
    ("pipeline.cpu_util", "ratio", "higher", lambda a: a.extra["cpu_util"], []),
    ("trace.run_s", "s", "lower", lambda a: a.extra["run_s"], []),
    ("trace.untraced_run_s", "s", "lower", lambda a: a.extra["untraced_run_s"], []),
    ("trace.overhead_s", "s", "lower", lambda a: a.extra["overhead_s"], []),
    ("trace.self_sum_s", "s", "lower", lambda a: a.self_sum, []),
]

END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("map_mean", "ratio", "higher"),
    ("cell_ok_frac", "ratio", "higher"),
]


class SpanAggregate:
    """Totals per span name and self time per layer of one traced run."""

    def __init__(self, spans: list[dict], extra: dict):
        self.extra = extra
        self.by_name: dict[str, dict] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "total": defaultdict(float),
                     "peak": defaultdict(float)})
        self.layers: dict[str, float] = defaultdict(float)
        for span, own in zip(spans, self_times(spans)):
            entry = self.by_name[span["name"]]
            entry["s"] += span["end"] - span["start"]
            entry["self_s"] += own
            entry["calls"] += 1
            for key, value in span["counts"].items():
                entry["total"][key] += value
                entry["peak"][key] = max(entry["peak"][key], value)
            self.layers[span["name"].split(".", 1)[0]] += own
        self.self_sum = sum(self.layers.values())

    def s(self, name):
        return self.by_name[name]["s"] if name in self.by_name else 0.0

    def self_s(self, name):
        return self.by_name[name]["self_s"] if name in self.by_name else 0.0

    def calls(self, name):
        return self.by_name[name]["calls"] if name in self.by_name else 0

    def total(self, name, key):
        return self.by_name[name]["total"][key] if name in self.by_name else 0

    def peak(self, name, key):
        return self.by_name[name]["peak"][key] if name in self.by_name else 0

    def layer_self(self, layer):
        return self.layers.get(layer, 0.0)


def per_layer_metrics(spans: list[dict], missing: list[str], extra: dict) -> dict[str, float]:
    """Every per-layer metric whose spans could be installed (zero if never called)."""
    absent = {name for module, attr, name in PATCHES if f"{module}.{attr}" in missing}
    agg = SpanAggregate(spans, extra)
    return {metric: float(get(agg)) for metric, _unit, _better, get, needs in PER_LAYER
            if not absent.intersection(needs)}


# -- child processes ---------------------------------------------------------------


@dataclass
class Child:
    """A finished child process as spawn.py measured it."""

    log: Path
    wall: float
    code: int
    maxrss_mb: float
    cpu_s: float

    def log_tail(self, lines: int = 3) -> str:
        try:
            text = self.log.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return " | ".join(text.strip().splitlines()[-lines:])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("RESTORE_WORKERS", None)  # would override the workload's --workers
    return env


def run_child(cmd: list[str], log: Path, stdout: str = os.devnull) -> Child:
    """Run one child to completion through spawn.py; stderr goes to `log`."""
    spawn = [sys.executable, str(BENCH / "spawn.py"), str(CHILD_TIMEOUT), str(log), stdout, *cmd]
    done = subprocess.run(spawn, env=child_env(), stdout=subprocess.PIPE, check=True,
                          timeout=CHILD_TIMEOUT + 30)
    return Child(log, **json.loads(done.stdout))


# -- checks --------------------------------------------------------------------------


class Checker:
    """Checks every run of one set; the first good report.json is the reference
    every later run, traced or not, must equal byte for byte."""

    def __init__(self, expected_cells: int):
        from restore.pipeline import validate_run_result

        self.validate = validate_run_result
        self.expected_cells = expected_cells
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, out: Path, child: Child) -> dict | None:
        """Count the run's cells; return its report when every check passed."""
        self.attempted += self.expected_cells
        problems = []
        if child.code not in (0, 3):
            problems.append(f"exit code {child.code}: {child.log_tail()}")
        ledger = 0
        report = None
        try:
            for path in sorted(out.glob("errors_*.json")):
                ledger += len(json.loads(path.read_text(encoding="utf-8")))
            data = (out / "report.json").read_bytes()
            report = json.loads(data)
            self.validate(report)
        except (OSError, ValueError) as exc:
            problems.append(f"outputs: {exc}")
        else:
            cells = len(report["reconstruction"]["cells"])
            if cells != self.expected_cells:
                problems.append(f"{cells} reconstructed cells, expected {self.expected_cells}")
            if not problems and not ledger:
                if self.reference is None:
                    self.reference = data
                elif data != self.reference:
                    problems.append("report.json differs from the first run of this set")
        if ledger or child.code == 3:
            problems.append(f"{ledger} cell(s) in the error ledgers, exit code {child.code}")
        if not problems:
            return report
        # a partial failure (exit code 3, cells in the ledgers, no other
        # problem) counts its ledger; anything else, every cell
        partial = child.code == 3 and ledger > 0 and len(problems) == 1
        self.failed += min(ledger, self.expected_cells) if partial else self.expected_cells
        self.problems.extend(f"{label}: {p}" for p in problems)
        return None


def oracle_check(out: Path, report: dict) -> dict:
    """Recheck Prec@k and mAP of the smallest reconstructed cell against the
    brute-force oracles of tests/oracles.py.

    The oracle mAP scans every prediction once per node, so it is applied to
    one source node at a time; each node's average precision is independent of
    the others', and their mean is taken in the oracle's node order.
    """
    from oracles import oracle_mean_average_precision, oracle_precision_at_fractions
    from restore.emb_io import read_embedding
    from restore.ingest import graph_from_records, parse_edge_list
    from restore.pipeline import center_slug
    from restore.reconstruct import normalize_scores, pairwise_scores, predict_edges

    cells = report["reconstruction"]["cells"]
    key = min((c["nodes"], k) for k, c in cells.items() if c["nodes"] >= 2)[1]
    cell = cells[key]
    stem = f"{center_slug(cell['center'])}_h{cell['hop']}"
    sub = graph_from_records(parse_edge_list(out / "subgraphs" / f"{stem}.tsv"))
    emb = read_embedding(out / "embeddings" / f"{stem}_{cell['algorithm']}.emb")
    preds = predict_edges(normalize_scores(pairwise_scores(emb, cell["scorer"])), cell["threshold"])
    rows = preds.rows()
    observed = {(sub.index_of(a), sub.index_of(b)) for a, b in sub.edge_label_pairs()}

    fractions = tuple(float(f) for f in cell["prec_at"])
    prec = oracle_precision_at_fractions(rows, observed, sub.node_count, fractions)
    rows_of, out_of = defaultdict(list), defaultdict(set)
    for i, j, w in rows:
        rows_of[i].append((0, j, w))
    for i, j in observed:
        out_of[i].add(j)
    aps = [oracle_mean_average_precision(rows_of[i], {(0, j) for j in out_of[i]}, 1)
           for i in sorted(out_of)]
    oracle_map = sum(aps) / len(aps) if aps else 0.0

    mismatches = [f"prec@{f}" for f in fractions
                  if not math.isclose(prec[f], cell["prec_at"][str(f)], rel_tol=1e-9, abs_tol=1e-12)]
    if not math.isclose(oracle_map, cell["map"], rel_tol=1e-9, abs_tol=1e-12):
        mismatches.append("map")
    return {"cell": key, "nodes": cell["nodes"], "predictions": len(rows),
            "oracle_map": oracle_map, "mismatches": mismatches}


# -- environment ------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if that is its BLAS."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workers: int) -> dict:
    """What decides the kernel path and the thread counts behind a result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    no_numba = os.environ.get("RESTORE_NO_NUMBA", "")
    disabled = no_numba.strip().lower() in ("1", "true", "yes", "on")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))},
        "numba_imports": numba_imports,
        "RESTORE_NO_NUMBA": no_numba or None,
        "kernel_path": "numba" if numba_imports and not disabled else "numpy",
        "workers": workers,
    }


# -- the benchmark ------------------------------------------------------------------------


def slowest_cells(out: Path, count: int = 10) -> list[list]:
    try:
        timings = json.loads((out / "timings.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    cells = [[stage, cell, seconds] for stage, table in timings.items()
             for cell, seconds in table.items() if not cell.startswith("_")]
    return sorted(cells, key=lambda c: -c[2])[:count]


def quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    q = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"n": len(ordered), "median": statistics.median(ordered), "q1": q[0], "q3": q[2],
            "min": ordered[0], "max": ordered[-1]}


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path, scale: str = "full"):
        self.work = work
        self.inputs = generate(workload, seed, work / "inputs", scale)
        self.workers = self.inputs.workload.workers
        self.checker = Checker(self.inputs.sizes["cells"])
        self.seconds = seconds
        self.runs = 0

    def cli(self, command: str, out: Path) -> list[str]:
        return [command, "--config", str(self.inputs.manifest), "--output", str(out),
                "--workers", str(self.workers)]

    def _out(self, kind: str) -> Path:
        self.runs += 1
        return self.work / f"{kind}-{self.runs}"

    def run_all(self) -> tuple[Child, Path, dict | None]:
        out = self._out("run")
        child = run_child([sys.executable, "-m", "restore.cli", *self.cli("run-all", out)],
                          self.work / f"run-{self.runs}.log")
        return child, out, self.checker.check(f"run {self.runs}", out, child)

    def traced_run_all(self) -> tuple[Child, Path, dict | None, dict | None]:
        out = self._out("traced")
        spans = self.work / f"spans-{self.runs}.json"
        child = run_child([sys.executable, str(BENCH / "tracer.py"), str(spans),
                           *self.cli("run-all", out)], self.work / f"traced-{self.runs}.log")
        report = self.checker.check(f"traced run {self.runs}", out, child)
        try:
            trace = json.loads(spans.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self.checker.problems.append(f"traced run {self.runs}: no spans ({exc})")
            trace = None
        return child, out, report, trace

    def setup_time(self) -> float:
        """Wall time of one fresh `restore extract` child."""
        out = self._out("setup")
        child = run_child([sys.executable, "-m", "restore.cli", *self.cli("extract", out)],
                          self.work / f"setup-{self.runs}.log")
        if child.code != 0:
            self.checker.problems.append(f"extract: exit code {child.code}: {child.log_tail()}")
        shutil.rmtree(out, ignore_errors=True)
        return child.wall

    def import_times(self) -> list[float]:
        probe = ("import time; t = time.perf_counter(); import restore.cli; "
                 "print(time.perf_counter() - t)")
        times = []
        for i in range(IMPORT_REPS):
            out = self.work / f"import-{i}.out"
            child = run_child([sys.executable, "-c", probe], self.work / f"import-{i}.log", str(out))
            if child.code != 0:
                self.checker.problems.append(f"import restore.cli: {child.log_tail()}")
                continue
            times.append(float(out.read_text(encoding="utf-8")))
        return times

    def first_checks(self, out: Path, report: dict, info: dict) -> None:
        """Once per set: the oracle recheck and the slowest cells."""
        if "oracle" in info:
            return
        info["oracle"] = oracle_check(out, report)
        if info["oracle"]["mismatches"]:  # the checked run's cells count as failed
            self.checker.problems.append(f"oracle mismatch: {info['oracle']}")
            self.checker.failed += self.checker.expected_cells
        info["slowest_cells"] = slowest_cells(out)
        cells = report["reconstruction"]["cells"].values()
        info["predictions"] = sum(c["prediction_count"] for c in cells)
        info["map_mean"] = statistics.fmean(c["map"] for c in cells)

    def measure(self, info: dict) -> dict[str, float]:
        """Untraced run-all children, each followed by a fresh extract child,
        until the time is spent: end-to-end metrics."""
        walls, rss, setup = [], [], []
        while not walls or sum(walls) + walls[-1] <= self.seconds:
            child, out, report = self.run_all()
            # one set-up sample per run-all: setup_s and run_s sample the same
            # stretch of time, so a drift in machine speed moves both alike
            setup.append(self.setup_time())
            walls.append(child.wall)
            rss.append(child.maxrss_mb)
            if report is not None:
                self.first_checks(out, report, info)
            shutil.rmtree(out, ignore_errors=True)
        info["samples"] = {"run_s": quartiles(walls), "setup_s": quartiles(setup),
                           "peak_rss_mb": quartiles(rss)}
        metrics = {"run_s": statistics.median(walls), "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(rss)}
        if "map_mean" in info:
            metrics["map_mean"] = info["map_mean"]
        return metrics

    def trace(self, info: dict) -> dict[str, float]:
        """Untraced and traced runs in turn until the time is spent: per-layer metrics."""
        imports = self.import_times()
        plain, traced, util, per_run = [], [], [], []
        missing: list[str] = []
        while not plain or sum(plain) + sum(traced) + plain[-1] + traced[-1] <= self.seconds:
            child, out, report = self.run_all()
            plain.append(child.wall)
            util.append(child.cpu_s / child.wall)
            if report is not None:
                self.first_checks(out, report, info)
            shutil.rmtree(out, ignore_errors=True)

            child, out, report, trace = self.traced_run_all()
            traced.append(child.wall)
            shutil.rmtree(out, ignore_errors=True)
            if trace is None:
                continue
            missing = trace["missing"]
            per_run.append((child.wall, trace["spans"]))
        extra = {
            "cli.import_s": statistics.median(imports) if imports else 0.0,
            "cells": self.inputs.sizes["cells"],
            "cpu_util": statistics.median(util),
            "run_s": statistics.median(traced),
            "untraced_run_s": statistics.median(plain),
            "overhead_s": statistics.median(traced) - statistics.median(plain),
        }
        samples = []
        for wall, spans in per_run:
            samples.append(per_layer_metrics(spans, missing, extra))
            self_sum = samples[-1]["trace.self_sum_s"]
            # Under one worker the spans partition the traced run; with more,
            # spans on worker threads run in parallel and their sum exceeds it.
            gap = wall - self_sum
            if self.workers == 1 and not 0 <= gap <= max(SELF_SUM_SLACK_S, SELF_SUM_SLACK_SHARE * wall):
                self.checker.problems.append(
                    f"layer self times sum to {self_sum:.3f}s of a {wall:.3f}s traced run")
        info["tracing"] = {"missing": missing, "runs": len(per_run),
                         "samples": {"traced_run_s": quartiles(traced),
                                     "untraced_run_s": quartiles(plain)}}
        if not samples:
            return {}
        return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns (info, result)."""
    work = BENCH / "_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, seconds, work, scale)
        info = {"workload": workload, "seed": seed, "scale": scale, "trace": int(trace),
                "sizes": bench.inputs.sizes, "inputs_sha256": bench.inputs.digest,
                "environment": environment(bench.workers)}
        if trace:
            metrics = bench.trace(info)
            units = {name: unit for name, unit, *_ in PER_LAYER}
        else:
            metrics = bench.measure(info)
            units = {name: unit for name, unit, _ in END_TO_END}
        checker = bench.checker
        if not trace:
            metrics["cell_ok_frac"] = 1.0 - checker.failed / max(checker.attempted, 1)
        info["problems"] = checker.problems
        result = {
            "correct": not checker.problems,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        return info, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "restore" / "cli.py").is_file() or not ORACLES.is_file():
        print(f"perfbench: {SRC / 'restore'} or {ORACLES} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ORACLES.parent)]
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
