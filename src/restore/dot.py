"""Side-by-side DOT rendering of an original graph and its reconstruction.

Edges present in both are black; edges only in the reconstruction are solid
red (added); edges only in the original are dotted red (missing). Graphs over
the node cap emit no render, only diff statistics.
"""
from __future__ import annotations

from .graph import DiGraph, GraphDiff

DOT_NODE_CAP = 300


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(original: DiGraph, diff: GraphDiff) -> str | None:
    """DOT source for the original and its reconstruction (the original's edges
    less the diff's missing ones, plus its added ones), or None above the cap."""
    if original.node_count > DOT_NODE_CAP:
        return None
    edges = original.edge_label_pairs()
    missing = set(diff.missing_edge_list)
    lines = ["digraph reconstruction {", "  rankdir=LR;"]

    lines.append("  subgraph cluster_original {")
    lines.append('    label="original";')
    for lab in original.labels:
        lines.append(f"    {_quote('o:' + lab)} [label={_quote(lab)}];")
    for a, b in edges:
        lines.append(f"    {_quote('o:' + a)} -> {_quote('o:' + b)};")
    lines.append("  }")

    lines.append("  subgraph cluster_reconstructed {")
    lines.append('    label="reconstructed";')
    for lab in sorted(original.labels):
        lines.append(f"    {_quote('r:' + lab)} [label={_quote(lab)}];")
    for a, b in edges:
        if (a, b) not in missing:
            lines.append(f"    {_quote('r:' + a)} -> {_quote('r:' + b)};")
    for a, b in diff.added_edge_list:
        lines.append(f"    {_quote('r:' + a)} -> {_quote('r:' + b)} [color=red];")
    for a, b in diff.missing_edge_list:
        lines.append(f"    {_quote('r:' + a)} -> {_quote('r:' + b)} [color=red, style=dotted];")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
