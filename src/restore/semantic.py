"""Semantic evaluation: Euclidean distances over word pairs and analogy quads.

Datasets are delimiter-separated text files; words map into the graph's label
space through a configurable mapper (default: the ConceptNet-style
"/c/en/<word>" scheme). Pairs whose words do not resolve to embedded nodes are
skipped and counted, never imputed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

ANALOGY_MODES = ("pairwise", "offset")


@dataclass
class SimilarityPair:
    word_a: str
    word_b: str
    human_score: float


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


def similarity_vocab(pairs: Sequence[SimilarityPair]) -> set[str]:
    vocab = set()
    for p in pairs:
        vocab.add(p.word_a.lower())
        vocab.add(p.word_b.lower())
    return vocab


def analogy_vocab(quads: Sequence[AnalogyQuad]) -> set[str]:
    vocab = set()
    for q in quads:
        vocab.update(w.lower() for w in q.words())
    return vocab


def euclidean_distance(y1: np.ndarray, y2: np.ndarray) -> float:
    y1 = np.asarray(y1, dtype=np.float64)
    y2 = np.asarray(y2, dtype=np.float64)
    if y1.shape != y2.shape:
        raise ValueError(f"dimension mismatch: {y1.shape} vs {y2.shape}")
    diff = y2 - y1
    return math.sqrt(float(diff @ diff))


def similarity_mean_distance(
    pairs: Sequence[SimilarityPair],
    vectors: Mapping[str, np.ndarray],
    label_mapper: Callable[[str], str] = default_label_mapper,
    dataset_name: str = "",
) -> SemanticReport:
    """Mean Euclidean distance over pairs whose words both resolve to vectors
    of matching dimension; everything else is counted as skipped."""
    distances: list[float] = []
    skipped = 0
    for pair in pairs:
        va = vectors.get(label_mapper(pair.word_a))
        vb = vectors.get(label_mapper(pair.word_b))
        if va is None or vb is None or va.shape != vb.shape:
            skipped += 1
            continue
        distances.append(euclidean_distance(va, vb))
    if not distances:
        raise ValueError(
            f"no resolvable pairs for dataset {dataset_name or '<unnamed>'}: "
            f"{skipped} of {len(pairs)} pairs missing from the embedding vocabulary"
        )
    return SemanticReport(
        pairs_evaluated=len(distances),
        pairs_skipped=skipped,
        mean_distance=sum(distances) / len(distances),
    )


def analogy_distance(
    quads: Sequence[AnalogyQuad],
    vectors: Mapping[str, np.ndarray],
    mode: str = "pairwise",
    label_mapper: Callable[[str], str] = default_label_mapper,
    dataset_name: str = "",
) -> SemanticReport:
    """Analogy quads scored as distances.

    pairwise: mean over the (a,b) and (c,d) pair distances of each quad.
    offset:   mean of ||(y_b - y_a + y_c) - y_d|| per quad.

    A quad is evaluated only when all four words resolve with one dimension.
    """
    if mode not in ANALOGY_MODES:
        raise ValueError(f"unknown analogy mode {mode!r}")
    distances: list[float] = []
    evaluated = 0
    skipped = 0
    for quad in quads:
        vs = [vectors.get(label_mapper(w)) for w in quad.words()]
        if any(v is None for v in vs) or len({v.shape for v in vs}) != 1:
            skipped += 1
            continue
        ya, yb, yc, yd = vs
        if mode == "pairwise":
            distances.append(euclidean_distance(ya, yb))
            distances.append(euclidean_distance(yc, yd))
        else:
            distances.append(euclidean_distance(yb - ya + yc, yd))
        evaluated += 1
    if not distances:
        raise ValueError(
            f"no resolvable quads for dataset {dataset_name or '<unnamed>'}: "
            f"{skipped} of {len(quads)} quads missing from the embedding vocabulary"
        )
    return SemanticReport(
        pairs_evaluated=evaluated,
        pairs_skipped=skipped,
        mean_distance=sum(distances) / len(distances),
        mode=mode,
    )
