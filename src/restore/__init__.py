"""Ego-subgraph embedding, graph reconstruction, and semantic scoring toolkit."""

__version__ = "0.1.0"
