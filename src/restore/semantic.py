"""Semantic evaluation: Euclidean distances over word pairs and analogy quads.

Datasets are delimiter-separated text files; words map into the graph's label
space through a configurable mapper (default: the ConceptNet-style
"/c/en/<word>" scheme). Both dataset kinds run through one loop: a pair or
quad whose words do not all resolve to embedded vectors of one dimension is
skipped and counted, never imputed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np


@dataclass
class SimilarityPair:
    word_a: str
    word_b: str
    human_score: float

    def words(self) -> tuple[str, str]:
        return (self.word_a, self.word_b)


@dataclass
class AnalogyQuad:
    a: str
    b: str
    c: str
    d: str

    def words(self) -> tuple[str, str, str, str]:
        return (self.a, self.b, self.c, self.d)


@dataclass
class SemanticReport:
    pairs_evaluated: int
    pairs_skipped: int
    mean_distance: float
    mode: str | None = None


def default_label_mapper(word: str, prefix: str = "/c/en/") -> str:
    """ConceptNet-style node label for a bare word."""
    return prefix + word.strip().lower().replace(" ", "_")


def load_similarity_dataset(
    path: str | Path, fmt: str = "tsv"
) -> tuple[list[SimilarityPair], list[str]]:
    """Parse "word_a<sep>word_b<sep>score" records; '#' lines are headers.

    Returns (records, diagnostics); malformed lines are reported with their
    line number rather than aborting the load.
    """
    sep = {"tsv": "\t", "csv": ","}.get(fmt)
    if sep is None:
        raise ValueError(f"unknown similarity format {fmt!r}; expected tsv or csv")
    records: list[SimilarityPair] = []
    diagnostics: list[str] = []
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p.strip() for p in stripped.split(sep)]
        if len(parts) < 3 or not parts[0] or not parts[1]:
            diagnostics.append(f"line {line_no}: expected word_a{sep!r}word_b{sep!r}score")
            continue
        try:
            score = float(parts[2])
        except ValueError:
            diagnostics.append(f"line {line_no}: non-numeric score {parts[2]!r}")
            continue
        records.append(SimilarityPair(parts[0], parts[1], score))
    if not records:
        raise ValueError(f"no valid similarity rows in {path}")
    return records, diagnostics


def load_analogy_dataset(path: str | Path) -> tuple[list[AnalogyQuad], list[str]]:
    """Parse "a b c d" quads; ': section' header lines are skipped."""
    records: list[AnalogyQuad] = []
    diagnostics: list[str] = []
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(":") or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 4:
            diagnostics.append(f"line {line_no}: expected 4 whitespace-separated words")
            continue
        records.append(AnalogyQuad(*parts))
    if not records:
        raise ValueError(f"no valid analogy rows in {path}")
    return records, diagnostics


def dataset_vocab(records: Sequence[SimilarityPair | AnalogyQuad]) -> set[str]:
    """The lowercased words of a dataset's records."""
    return {w.lower() for record in records for w in record.words()}


def euclidean_distance(y1: np.ndarray, y2: np.ndarray) -> float:
    y1 = np.asarray(y1, dtype=np.float64)
    y2 = np.asarray(y2, dtype=np.float64)
    if y1.shape != y2.shape:
        raise ValueError(f"dimension mismatch: {y1.shape} vs {y2.shape}")
    diff = y2 - y1
    return math.sqrt(float(diff @ diff))


# Analogy mode -> the distances one resolved quad (y_a, y_b, y_c, y_d) adds.
ANALOGY_MEASURES: dict[str, Callable[..., list[float]]] = {
    "pairwise": lambda ya, yb, yc, yd: [euclidean_distance(ya, yb), euclidean_distance(yc, yd)],
    "offset": lambda ya, yb, yc, yd: [euclidean_distance(yb - ya + yc, yd)],
}
ANALOGY_MODES = tuple(ANALOGY_MEASURES)


def _mean_distance(
    records: Sequence[SimilarityPair | AnalogyQuad],
    vectors: Mapping[str, np.ndarray],
    label_mapper: Callable[[str], str],
    measure: Callable[..., list[float]],
    noun: str,
    dataset_name: str,
) -> SemanticReport:
    """Mean of measure(*vectors) over the records whose words all resolve to
    vectors of one dimension; every other record is counted as skipped."""
    distances: list[float] = []
    missing = mixed = 0
    for record in records:
        vs = [vectors.get(label_mapper(w)) for w in record.words()]
        if any(v is None for v in vs):
            missing += 1
        elif len({v.shape for v in vs}) != 1:
            mixed += 1
        else:
            distances.extend(measure(*vs))
    skipped = missing + mixed
    if not distances:
        why = f"{missing} of {len(records)} {noun}s missing from the embedding vocabulary"
        if mixed:
            why += f", {mixed} with vectors of mixed lengths"
        raise ValueError(f"no resolvable {noun}s for dataset {dataset_name or '<unnamed>'}: {why}")
    return SemanticReport(
        pairs_evaluated=len(records) - skipped,
        pairs_skipped=skipped,
        mean_distance=sum(distances) / len(distances),
    )


def similarity_mean_distance(
    pairs: Sequence[SimilarityPair],
    vectors: Mapping[str, np.ndarray],
    label_mapper: Callable[[str], str] = default_label_mapper,
    dataset_name: str = "",
) -> SemanticReport:
    """Mean Euclidean distance over the pairs whose words both resolve."""
    return _mean_distance(
        pairs, vectors, label_mapper, lambda ya, yb: [euclidean_distance(ya, yb)],
        "pair", dataset_name,
    )


def analogy_distance(
    quads: Sequence[AnalogyQuad],
    vectors: Mapping[str, np.ndarray],
    mode: str = "pairwise",
    label_mapper: Callable[[str], str] = default_label_mapper,
    dataset_name: str = "",
) -> SemanticReport:
    """Analogy quads scored as distances; pairs_evaluated counts quads.

    pairwise: mean over the (a,b) and (c,d) pair distances of each quad.
    offset:   mean of ||(y_b - y_a + y_c) - y_d|| per quad.
    """
    if mode not in ANALOGY_MEASURES:
        raise ValueError(f"unknown analogy mode {mode!r}")
    report = _mean_distance(
        quads, vectors, label_mapper, ANALOGY_MEASURES[mode], "quad", dataset_name
    )
    report.mode = mode
    return report
