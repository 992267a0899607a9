"""Edge-list parsing: the boundary between files and DiGraph.

Two edge-list formats are read: plain three-column TSV (src, relation, dst)
and headered KGTK-style TSV where the node1/relation/node2 columns are picked
by name. The relation column must be present, but its value is not kept: an
edge is a (src, dst) label pair. Lines starting with '#' are comments;
'# node: <label>' records an isolated node so single-node subgraphs round-trip.

`write_atomic` is the one writer of every pipeline output file.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import DiGraph, graph_from_labeled_edges

EDGE_FORMATS = ("tsv3", "tsv_kgtk")

_MALFORMED_LIMIT = 0.01
_NODE_COMMENT = "# node: "


@dataclass
class ParsedEdgeList:
    edges: list[tuple[str, str]]  # (src, dst) labels in file order
    isolated_nodes: list[str]
    diagnostics: list[str]


def parse_edge_list(path: str | Path, fmt: str = "tsv3") -> ParsedEdgeList:
    """Read an edge list line by line, collecting malformed lines as diagnostics.

    Lines end only at LF, CR LF or CR, so a label may hold U+001C or U+2028.
    More than 1% malformed lines is treated as file corruption and raises,
    with the first few diagnostics in the message.
    """
    if fmt not in EDGE_FORMATS:
        raise ValueError(f"unknown edge-list format {fmt!r}; expected one of {EDGE_FORMATS}")
    edges: list[tuple[str, str]] = []
    isolated: list[str] = []
    diagnostics: list[str] = []
    data_lines = 0

    col_src, col_dst, needed = 0, 2, 3
    header_seen = fmt != "tsv_kgtk"
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if line.startswith(_NODE_COMMENT):
                isolated.append(line[len(_NODE_COMMENT):].strip())
                continue
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if not header_seen:
                header_seen = True
                cols = [c.strip() for c in parts]
                try:
                    col_src = cols.index("node1")
                    col_rel = cols.index("relation")
                    col_dst = cols.index("node2")
                except ValueError:
                    raise ValueError(
                        f"{path}: kgtk header must name node1/relation/node2 columns, got {cols}"
                    ) from None
                needed = max(col_src, col_rel, col_dst) + 1
                continue
            data_lines += 1
            if len(parts) >= needed:
                src, dst = parts[col_src].strip(), parts[col_dst].strip()
                if src and dst:
                    edges.append((src, dst))
                    continue
            diagnostics.append(f"line {line_no}: expected {needed} tab-separated columns")
    if data_lines and len(diagnostics) / data_lines > _MALFORMED_LIMIT:
        sample = "; ".join(diagnostics[:5])
        raise ValueError(
            f"{path}: {len(diagnostics)} of {data_lines} lines malformed "
            f"(over the {_MALFORMED_LIMIT:.0%} tolerance): {sample}"
        )
    return ParsedEdgeList(edges=edges, isolated_nodes=isolated, diagnostics=diagnostics)


def graph_from_records(parsed: ParsedEdgeList) -> DiGraph:
    return graph_from_labeled_edges(parsed.edges, extra_nodes=parsed.isolated_nodes)


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write `data` (text as UTF-8) to `<name>.tmp` beside `path`, then rename it
    into place, so a killed writer leaves the old file or none, never a part of
    one. There is no fsync: this guards against a killed process, not a power cut."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_edge_list(g: DiGraph, path: str | Path) -> None:
    """TSV3 emitter with relation '-'; isolated nodes are kept via '# node:'
    comment lines."""
    labels = g.labels
    lines = [f"{labels[i]}\t-\t{labels[j]}" for i, j in g.edges()]
    incident = np.zeros(g.node_count, dtype=bool)
    incident[np.concatenate(g.edge_array())] = True
    lines += [f"{_NODE_COMMENT}{labels[i]}" for i in np.flatnonzero(~incident).tolist()]
    write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))
