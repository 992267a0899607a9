"""Self-describing embedding files: a text header plus the vector payload.

Header lines name the algorithm, dimensions, node labels, and whether one or
two (source/target) matrices follow. The payload is row-major IEEE-754 64-bit
little-endian in binary mode, or full-precision repr text rows in text mode;
binary is the default because tests need exactness, text exists for
inspection. Reading checks every header field and payload row and names the
file on error.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .factorization import EmbeddingMatrix
from .ingest import write_atomic

EMB_FORMATS = ("binary", "text")
_MAGIC = "RESTORE-EMB 1"
_DATA_MARK = b"\nDATA\n"
_HEADER_KEYS = ("algorithm", "dim", "nodes", "parts", "mode")
_PARTS = ("single", "source,target")


def _header(emb: EmbeddingMatrix, mode: str) -> str:
    parts = "single" if emb.target is None else "source,target"
    return "\n".join([_MAGIC, f"algorithm {emb.algorithm_tag}", f"dim {emb.dim}",
                      f"nodes {emb.node_count}", f"parts {parts}", f"mode {mode}", *emb.labels])


def write_embedding(emb: EmbeddingMatrix, path: str | Path, mode: str = "binary") -> None:
    """Write atomically (see `ingest.write_atomic`): a file at `path` is always complete."""
    if mode not in EMB_FORMATS:
        raise ValueError(f"unknown embedding file mode {mode!r}")
    if mode == "binary":
        payload = b"".join(np.ascontiguousarray(m, dtype="<f8").tobytes() for m in emb.matrices())
    else:
        rows = [" ".join(repr(float(x)) for x in row) for m in emb.matrices() for row in m]
        payload = ("\n".join(rows) + "\n").encode("utf-8")
    write_atomic(path, _header(emb, mode).encode("utf-8") + _DATA_MARK + payload)


def _parse_header(path: str | Path, lines: list[str]) -> tuple[str, int, int, int, str]:
    """(algorithm, dim, nodes, matrix count, mode) from the lines after the magic."""
    if len(lines) < len(_HEADER_KEYS):
        raise ValueError(f"{path}: header ends after {len(lines)} of its {len(_HEADER_KEYS)} fields")
    values = []
    for want, line in zip(_HEADER_KEYS, lines):
        key, _, value = line.partition(" ")
        if key != want:
            raise ValueError(f"{path}: malformed header: expected {want!r}, found {line!r}")
        values.append(value)
    tag, dim, nodes, parts, mode = values
    for key, value in (("dim", dim), ("nodes", nodes)):
        if not (value.isascii() and value.isdigit()):
            raise ValueError(f"{path}: {key} must be a non-negative integer, found {value!r}")
    if parts not in _PARTS:
        raise ValueError(f"{path}: parts must be one of {_PARTS}, found {parts!r}")
    if mode not in EMB_FORMATS:
        raise ValueError(f"{path}: mode must be one of {EMB_FORMATS}, found {mode!r}")
    return tag, int(dim), int(nodes), 1 if parts == "single" else 2, mode


def read_embedding(path: str | Path) -> EmbeddingMatrix:
    blob = Path(path).read_bytes()
    split = blob.find(_DATA_MARK)
    if split < 0:
        raise ValueError(f"{path}: missing DATA marker; not an embedding file")
    head_lines = blob[:split].decode("utf-8").split("\n")
    if head_lines[0] != _MAGIC:
        raise ValueError(f"{path}: bad magic {head_lines[0]!r}")
    tag, dim, n, n_parts, mode = _parse_header(path, head_lines[1:6])
    labels = tuple(head_lines[6:6 + n])
    if len(labels) != n:
        raise ValueError(f"{path}: header promises {n} labels, found {len(labels)}")
    payload = blob[split + len(_DATA_MARK):]
    if mode == "binary":
        flat = np.frombuffer(payload, dtype="<f8")
        expected = n_parts * n * dim
        if flat.shape[0] != expected:
            raise ValueError(f"{path}: expected {expected} values, found {flat.shape[0]}")
        stacked = flat.reshape(n_parts * n, dim)
    else:
        rows = [r.split() for r in payload.decode("utf-8").splitlines() if r.strip()]
        if len(rows) != n_parts * n:
            raise ValueError(f"{path}: expected {n_parts * n} text rows, found {len(rows)}")
        for number, row in enumerate(rows, start=1):
            if len(row) != dim:
                raise ValueError(f"{path}: text row {number} holds {len(row)} values, expected {dim}")
        try:
            stacked = np.array([[float(x) for x in row] for row in rows], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}: text payload: {exc}") from None
        stacked = stacked.reshape(n_parts * n, dim)
    target = stacked[n:].copy() if n_parts == 2 else None
    return EmbeddingMatrix(labels=labels, vectors=stacked[:n].copy(), algorithm_tag=tag, target=target)
