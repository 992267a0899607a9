"""Self-describing embedding files: a text header plus the vector payload.

Header lines name the algorithm, dimensions, node labels, and whether one or
two (source/target) matrices follow. The payload is row-major IEEE-754 64-bit
little-endian in binary mode, or full-precision repr text rows in text mode;
binary is the default because tests need exactness, text exists for
inspection.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .factorization import AsymEmbedding, EmbeddingMatrix

EMB_FORMATS = ("binary", "text")
_MAGIC = "RESTORE-EMB 1"
_DATA_MARK = b"\nDATA\n"


def _header(emb: EmbeddingMatrix | AsymEmbedding, mode: str) -> str:
    parts = "source,target" if isinstance(emb, AsymEmbedding) else "single"
    tag = emb.source.algorithm_tag if isinstance(emb, AsymEmbedding) else emb.algorithm_tag
    labels = emb.labels
    dim = emb.dim
    lines = [
        _MAGIC,
        f"algorithm {tag}",
        f"dim {dim}",
        f"nodes {len(labels)}",
        f"parts {parts}",
        f"mode {mode}",
    ]
    lines.extend(labels)
    return "\n".join(lines)


def write_embedding(
    emb: EmbeddingMatrix | AsymEmbedding, path: str | Path, mode: str = "binary"
) -> None:
    if mode not in EMB_FORMATS:
        raise ValueError(f"unknown embedding file mode {mode!r}")
    matrices = (
        [emb.source.vectors, emb.target.vectors]
        if isinstance(emb, AsymEmbedding)
        else [emb.vectors]
    )
    header = _header(emb, mode).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_DATA_MARK)
        if mode == "binary":
            for matrix in matrices:
                fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
        else:
            rows = []
            for matrix in matrices:
                for row in matrix:
                    rows.append(" ".join(repr(float(x)) for x in row))
            fh.write(("\n".join(rows) + "\n").encode("utf-8"))


def read_embedding(path: str | Path) -> EmbeddingMatrix | AsymEmbedding:
    blob = Path(path).read_bytes()
    split = blob.find(_DATA_MARK)
    if split < 0:
        raise ValueError(f"{path}: missing DATA marker; not an embedding file")
    head_lines = blob[:split].decode("utf-8").split("\n")
    if head_lines[0] != _MAGIC:
        raise ValueError(f"{path}: bad magic {head_lines[0]!r}")
    fields = {}
    for line in head_lines[1:5]:
        key, _, value = line.partition(" ")
        fields[key] = value
    mode_line = head_lines[5]
    key, _, mode = mode_line.partition(" ")
    if key != "mode":
        raise ValueError(f"{path}: malformed header")
    tag = fields["algorithm"]
    dim = int(fields["dim"])
    n = int(fields["nodes"])
    labels = tuple(head_lines[6:6 + n])
    if len(labels) != n:
        raise ValueError(f"{path}: header promises {n} labels, found {len(labels)}")
    n_parts = 2 if fields["parts"] == "source,target" else 1
    payload = blob[split + len(_DATA_MARK):]
    if mode == "binary":
        flat = np.frombuffer(payload, dtype="<f8")
        expected = n_parts * n * dim
        if flat.shape[0] != expected:
            raise ValueError(f"{path}: expected {expected} values, found {flat.shape[0]}")
        stacked = flat.reshape(n_parts * n, dim) if expected else np.zeros((n_parts * n, dim))
    else:
        rows = [r for r in payload.decode("utf-8").splitlines() if r.strip()]
        if len(rows) != n_parts * n:
            raise ValueError(f"{path}: expected {n_parts * n} text rows, found {len(rows)}")
        stacked = np.array([[float(x) for x in r.split()] for r in rows], dtype=np.float64)
        stacked = stacked.reshape(n_parts * n, dim) if stacked.size else np.zeros((n_parts * n, dim))
    if n_parts == 2:
        return AsymEmbedding(
            source=EmbeddingMatrix(labels=labels, vectors=stacked[:n].copy(), algorithm_tag=tag),
            target=EmbeddingMatrix(labels=labels, vectors=stacked[n:].copy(), algorithm_tag=tag),
        )
    return EmbeddingMatrix(labels=labels, vectors=stacked.copy(), algorithm_tag=tag)
