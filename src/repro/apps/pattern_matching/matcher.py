"""FSim-based approximate pattern matching (seed-and-expand generation).

Section 5.4: "We followed the state-of-the-art algorithm NAGA for match
generation ... node pairs with high FSim scores are considered to be
'seeds', and matches are generated by expanding the regions around the
seeds subsequently."  The top-1 match is evaluated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.api import fsim_matrix, fsim_matrix_many
from repro.core.config import FSimConfig
from repro.graph.digraph import LabeledDigraph, Node
from repro.simulation.base import Variant


class FSimMatcher:
    """Seed-and-expand matcher driven by FSim_chi scores.

    Parameters
    ----------
    variant:
        ``Variant.S`` (FSims) or ``Variant.DP`` (FSimdp) -- the two
        asymmetric variants appropriate for pattern matching.
    config:
        Optional FSim configuration override; the default follows the
        case studies (indicator label function).
    """

    name = "FSim"

    def __init__(self, variant: Variant = Variant.S, config: Optional[FSimConfig] = None):
        self.variant = Variant(variant)
        self.config = config or FSimConfig(
            variant=self.variant, label_function="indicator"
        )
        self.name = f"FSim{self.variant.value}"

    def match(self, query: LabeledDigraph, data: LabeledDigraph) -> Optional[Dict[Node, Node]]:
        """Return the top-1 match as a query-node -> data-node mapping."""
        result = fsim_matrix(query, data, config=self.config)
        return self._expand(query, data, result)

    def match_many(
        self,
        queries: Sequence[LabeledDigraph],
        data: LabeledDigraph,
        workers: Optional[int] = None,
    ) -> List[Optional[Dict[Node, Node]]]:
        """Top-1 matches for a whole query workload against one data graph.

        The batched form of :meth:`match` (Table 6 runs ~100 queries per
        scenario): all FSim computations go through
        :func:`~repro.core.api.fsim_matrix_many`, so the data graph is
        lowered once and, with ``workers > 1``, whole queries are
        sharded across the :mod:`repro.runtime` worker pool.
        """
        results = fsim_matrix_many(
            queries, data, config=self.config, workers=workers,
        )
        return [
            self._expand(query, data, result)
            for query, result in zip(queries, results)
        ]

    def _expand(
        self, query: LabeledDigraph, data: LabeledDigraph, result
    ) -> Optional[Dict[Node, Node]]:
        """Seed-and-expand one query from its computed FSim scores."""
        scored = sorted(
            result.scores.items(), key=lambda item: (-item[1], repr(item[0]))
        )
        if not scored:
            return None
        (seed_query, seed_data), _ = scored[0]
        mapping: Dict[Node, Node] = {seed_query: seed_data}
        used: Set[Node] = {seed_data}
        # Expand outward from the seed over the query's undirected structure.
        frontier = [seed_query]
        visited = {seed_query}
        while frontier:
            current = frontier.pop(0)
            anchor = mapping.get(current)
            for neighbor in query.neighbors(current):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                frontier.append(neighbor)
                chosen = self._best_extension(
                    query, data, neighbor, current, anchor, result, used, mapping
                )
                if chosen is not None:
                    mapping[neighbor] = chosen
                    used.add(chosen)
        return mapping

    def _best_extension(
        self,
        query: LabeledDigraph,
        data: LabeledDigraph,
        query_node: Node,
        matched_query: Node,
        matched_data: Optional[Node],
        result,
        used: Set[Node],
        mapping: Dict[Node, Node],
    ) -> Optional[Node]:
        """Pick the best unused data node for ``query_node``.

        Candidates adjacent to the anchor are ranked by how many edges to
        *all* already-placed query neighbors they preserve, then by FSim
        score.  If nothing adjacent scores above zero the matcher falls
        back to the best unused candidate overall, which is what lets it
        tolerate missing edges and label noise.
        """
        candidates = []
        if matched_data is not None:
            if query.has_edge(matched_query, query_node):
                candidates.extend(data.out_neighbors(matched_data))
            if query.has_edge(query_node, matched_query):
                candidates.extend(data.in_neighbors(matched_data))
        best = None
        best_key = (0, 0.0)
        for candidate in candidates:
            if candidate in used:
                continue
            score = result.score(query_node, candidate)
            if score <= 0.0:
                continue
            consistency = sum(
                1
                for other, placed in mapping.items()
                if (
                    query.has_edge(query_node, other)
                    and data.has_edge(candidate, placed)
                )
                or (
                    query.has_edge(other, query_node)
                    and data.has_edge(placed, candidate)
                )
            )
            key = (consistency, score)
            if key > best_key:
                best, best_key = candidate, key
        if best is not None:
            return best
        # Fallback: globally best unused partner by FSim score.
        for candidate, score in result.top_k(query_node, k=len(result.scores)):
            if candidate not in used and score > 0.0:
                return candidate
        return None
