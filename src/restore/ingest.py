"""Edge-list and manifest parsing: the boundary between files and DiGraph.

Two edge-list formats are read: plain three-column TSV (src, relation, dst)
and headered KGTK-style TSV where the node1/relation/node2 columns are picked
by name. The relation column must be present, but its value is not kept: an
edge is a (src, dst) label pair. Lines starting with '#' are comments;
'# node: <label>' records an isolated node so single-node subgraphs round-trip.

`write_atomic` is the one writer of every pipeline output file.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .graph import DiGraph, graph_from_labeled_edges
from .semantic import default_label_mapper

EDGE_FORMATS = ("tsv3", "tsv_kgtk")
ALGORITHMS = ("node2vec", "hope", "sdne", "lap", "lle")
HOPS = (1, 2, 3)

_MALFORMED_LIMIT = 0.01
_NODE_COMMENT = "# node: "


@dataclass
class ParsedEdgeList:
    edges: list[tuple[str, str]]  # (src, dst) labels in file order
    isolated_nodes: list[str]
    diagnostics: list[str]


def parse_edge_list(path: str | Path, fmt: str = "tsv3") -> ParsedEdgeList:
    """Read an edge list, collecting malformed lines as diagnostics.

    More than 1% malformed lines is treated as file corruption and raises,
    with the first few diagnostics in the message.
    """
    if fmt not in EDGE_FORMATS:
        raise ValueError(f"unknown edge-list format {fmt!r}; expected one of {EDGE_FORMATS}")
    text = Path(path).read_text(encoding="utf-8")
    edges: list[tuple[str, str]] = []
    isolated: list[str] = []
    diagnostics: list[str] = []
    data_lines = 0

    col_src, col_dst, needed = 0, 2, 3
    header_seen = fmt != "tsv_kgtk"
    for line_no, line in enumerate(text.splitlines(), start=1):
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


@dataclass
class Manifest:
    """Flat key-value run description; see README for the file schema."""

    graph_path: str = ""
    graph_format: str = "tsv3"
    dataset_paths: dict[str, tuple[str, str]] = field(default_factory=dict)  # name -> (kind, path)
    center_mode: str = "from-datasets"          # or "explicit"
    center_labels: list[str] = field(default_factory=list)
    hops: list[int] = field(default_factory=lambda: [1, 2, 3])
    algorithms: list[str] = field(default_factory=lambda: list(ALGORITHMS))
    seed: int = 0
    options: dict[str, str] = field(default_factory=dict)  # remaining key/value pairs
    option_locations: dict[str, str] = field(default_factory=dict)  # key -> "file:line"

    def __post_init__(self):
        bad_hops = [h for h in self.hops if h not in HOPS]
        if bad_hops:
            raise ValueError(f"hops must be within {{1,2,3}}, got {bad_hops}")
        bad_algos = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad_algos:
            raise ValueError(f"unknown algorithms {bad_algos}; expected subset of {ALGORITHMS}")


def one_of(*allowed, cast: Callable[[str], object] = str) -> Callable[[str], object]:
    def parse(value: str):
        parsed = cast(value)
        if parsed not in allowed:
            raise ValueError(f"{value!r} is not one of {allowed}")
        return parsed
    return parse


# the Manifest's own keys, each value checked on its line
_MANIFEST_CASTS: dict[str, Callable[[str], object]] = {
    "graph_format": one_of(*EDGE_FORMATS),
    "centers": one_of("from-datasets", "explicit"),
    "seed": int,
    "hop": one_of(*HOPS, cast=int),
    "algorithm": one_of(*ALGORITHMS),
}


def load_manifest(path: str | Path) -> Manifest:
    """Parse the line-oriented "key = value" manifest; repeated keys make lists.

    A bad value for one of the Manifest's own keys raises naming its `path:line`.
    """
    base = Path(path).parent
    graph_path = ""
    datasets: dict[str, tuple[str, str]] = {}
    scalars: dict[str, object] = {"graph_format": "tsv3", "centers": "from-datasets", "seed": 0}
    lists: dict[str, list] = {"center": [], "hop": [], "algorithm": []}
    options: dict[str, str] = {}
    locations: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _MANIFEST_CASTS:
            try:
                value = _MANIFEST_CASTS[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
        if key == "graph_path":
            graph_path = str((base / value).resolve()) if not Path(value).is_absolute() else value
        elif key == "dataset":
            fields = value.split()
            if len(fields) != 3 or fields[1] not in ("similarity", "analogy"):
                raise ValueError(
                    f"{path}:{line_no}: dataset lines are '<name> <similarity|analogy> <path>'"
                )
            name, kind, dpath = fields
            if not Path(dpath).is_absolute():
                dpath = str((base / dpath).resolve())
            datasets[name] = (kind, dpath)
        elif key in lists:
            lists[key].append(value)
        elif key in scalars:
            scalars[key] = value
        else:
            options[key] = value
            locations[key] = f"{path}:{line_no}"
    if not graph_path:
        raise ValueError(f"{path}: manifest is missing graph_path")
    return Manifest(
        graph_path=graph_path,
        graph_format=scalars["graph_format"],
        dataset_paths=datasets,
        center_mode=scalars["centers"],
        center_labels=lists["center"],
        hops=lists["hop"] or list(HOPS),
        algorithms=lists["algorithm"] or list(ALGORITHMS),
        seed=scalars["seed"],
        options=options,
        option_locations=locations,
    )


def resolve_centers(
    manifest: Manifest,
    dataset_vocab: Mapping[str, set[str]],
    graph: DiGraph,
    label_mapper: Callable[[str], str] = default_label_mapper,
) -> tuple[list[str], list[str]]:
    """(resolved, unresolved) center labels: explicit labels deduplicated in
    manifest order and split by graph membership, or else the mapped dataset
    vocabulary intersected with the graph, sorted. Raises if none resolves."""
    if manifest.center_mode == "explicit" or manifest.center_labels:
        labels = list(dict.fromkeys(manifest.center_labels))
        resolved = [lab for lab in labels if graph.has_label(lab)]
        unresolved = [lab for lab in labels if not graph.has_label(lab)]
        why = f"center labels not present in graph: {unresolved}"
    else:
        mapped = {
            label_mapper(word)
            for vocab in dataset_vocab.values()
            for word in vocab
        }
        resolved = sorted(lab for lab in mapped if graph.has_label(lab))
        unresolved = []
        why = "dataset vocabulary does not overlap the graph"
    if not resolved:
        raise ValueError(f"no centers resolved: {why}")
    return resolved, unresolved
