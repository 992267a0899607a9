"""Brute-force reference implementations used to cross-check the metric code.

Everything here is deliberately naive: python loops, sets and dicts, no numpy,
so a bug in the vectorized implementations cannot hide in a shared code path.
"""
import math
from collections import defaultdict


def oracle_precision_at_fractions(pred_rows, observed_pairs, n_nodes, fractions):
    out = {}
    for f in fractions:
        k = math.ceil(f * n_nodes)
        hits = 0
        for i, j, _w in pred_rows[:k]:
            if (i, j) in observed_pairs:
                hits += 1
        out[f] = hits / k if k else 0.0
    return out


def oracle_mean_average_precision(pred_rows, observed_pairs, n_nodes):
    observed_out = defaultdict(set)
    for i, j in observed_pairs:
        observed_out[i].add(j)
    aps = []
    for node in range(n_nodes):
        relevant = observed_out.get(node)
        if not relevant:
            continue
        rank = 0
        found = 0
        precs = []
        for i, j, _w in pred_rows:
            if i != node:
                continue
            rank += 1
            if j in relevant:
                found += 1
                precs.append(found / rank)
        aps.append(sum(precs) / len(relevant))
    return sum(aps) / len(aps) if aps else 0.0


def oracle_graph_diff(orig_nodes, orig_edges, recon_nodes, recon_edges):
    """(added_nodes, missing_nodes, added_edge_list, missing_edge_list) from
    label sets; edge lists sorted by (source label, target label)."""
    orig_nodes, recon_nodes = set(orig_nodes), set(recon_nodes)
    orig_edges, recon_edges = set(orig_edges), set(recon_edges)
    return (
        len(recon_nodes - orig_nodes),
        len(orig_nodes - recon_nodes),
        sorted(recon_edges - orig_edges),
        sorted(orig_edges - recon_edges),
    )

