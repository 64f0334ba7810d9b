"""tilekit: exact tools for graph tilings at desk scale.

Submodules:
  graphs         bitmask graphs, partitions, embeddings, tilings, I/O
  thresholds     exact-rational tiling parameters and degree bound lines
  solver         branch-and-bound maximum tiling plus a brute-force oracle
  constructions  extremal host families and constructive perfect tilings
  gadgets        expanding/swapping sets, greedy cliques, regularity checks
  harness        experiment runners, instance generation, report plumbing
  cli            command-line front end
"""

from .graphs import (
    Embedding,
    Graph,
    PartitionedGraph,
    Tiling,
    VertexOrdering,
    blow_up,
    bottle_graph,
    complete_multipartite,
    is_valid_tiling,
    parse_graph,
)

__all__ = [
    "Embedding",
    "Graph",
    "PartitionedGraph",
    "Tiling",
    "VertexOrdering",
    "blow_up",
    "bottle_graph",
    "complete_multipartite",
    "is_valid_tiling",
    "parse_graph",
]

__version__ = "0.1.0"
