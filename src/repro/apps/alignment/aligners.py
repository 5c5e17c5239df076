"""Graph aligners: FSim plus five reimplemented baselines.

Each aligner exposes ``align(graph1, graph2) -> {u: [candidates]}``:
node ``u`` of G1 is aligned to a *set* of G2 candidates (the paper's
``A_u``), which feeds the Table 9 F1 formula.

Baselines (author code unavailable; core ideas reimplemented):

- k-bisimulation [10]: align to the nodes in the same k-bisimulation
  block of the disjoint union.
- exact bisimulation: the degenerate baseline the paper reports as 0%
  ("there is no exact bisimulation relation between two graphs").
- Olap [7]: bisimulation-partition alignment -- stable color refinement
  (labels + successor/predecessor color *sets*) on the union, align
  within blocks.
- FINAL [46]: attributed iterative similarity with degree-normalized
  neighbor averaging (the Sylvester-equation fixpoint in iterative form).
- EWS [47]: seed-and-percolate matching grown from high-confidence
  unique-signature seeds.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.api import fsim_matrix, fsim_matrix_many
from repro.core.config import FSimConfig
from repro.graph.builders import union
from repro.graph.digraph import LabeledDigraph, Node
from repro.simulation.base import Variant
from repro.simulation.kbisimulation import kbisimulation_partition
from repro.simulation.maximal import maximal_simulation

Alignment = Dict[Node, List[Node]]


def _prefixed_union(
    graph1: LabeledDigraph, graph2: LabeledDigraph
) -> Tuple[LabeledDigraph, Dict[Node, Node], Dict[Node, Node]]:
    """Disjoint union with ("a", u) / ("b", v) prefixes plus the renamers."""
    renamed1 = LabeledDigraph("u1")
    for node in graph1.nodes():
        renamed1.add_node(("a", node), graph1.label(node))
    for source, target in graph1.edges():
        renamed1.add_edge(("a", source), ("a", target))
    renamed2 = LabeledDigraph("u2")
    for node in graph2.nodes():
        renamed2.add_node(("b", node), graph2.label(node))
    for source, target in graph2.edges():
        renamed2.add_edge(("b", source), ("b", target))
    joint = union(renamed1, renamed2, name="joint")
    map1 = {node: ("a", node) for node in graph1.nodes()}
    map2 = {node: ("b", node) for node in graph2.nodes()}
    return joint, map1, map2


class FSimAligner:
    """Align with fractional chi-simulation: A_u = argmax_v FSim(u, v)."""

    def __init__(self, variant: Variant = Variant.B, config: Optional[FSimConfig] = None):
        self.variant = Variant(variant)
        self.name = f"FSim{self.variant.value}"
        self.config = config or FSimConfig(
            variant=self.variant, label_function="indicator", theta=1.0
        )

    def align(self, graph1: LabeledDigraph, graph2: LabeledDigraph) -> Alignment:
        result = fsim_matrix(graph1, graph2, config=self.config)
        return self._project(graph1, result)

    def align_many(
        self,
        graphs1: Sequence[LabeledDigraph],
        graph2: LabeledDigraph,
        workers: Optional[int] = None,
    ) -> List[Alignment]:
        """Align several graph versions against one shared target.

        The paper's evolving-version workload (Table 9) repeatedly
        aligns versions of the same RDF graph; batching through
        :func:`~repro.core.api.fsim_matrix_many` lowers the shared
        target once and optionally shards whole versions over the
        :mod:`repro.runtime` worker pool.  Returns one alignment per input
        graph, in order.
        """
        results = fsim_matrix_many(
            graphs1, graph2, config=self.config, workers=workers,
        )
        return [
            self._project(graph1, result)
            for graph1, result in zip(graphs1, results)
        ]

    @staticmethod
    def _project(graph1: LabeledDigraph, result) -> Alignment:
        return {
            u: result.argmax_partners(u, tolerance=1e-9) for u in graph1.nodes()
        }


class KBisimulationAligner:
    """Align u to every v in the same k-bisimulation block of the union."""

    def __init__(self, k: int = 2):
        self.k = k
        self.name = f"{k}-bisim"

    def align(self, graph1: LabeledDigraph, graph2: LabeledDigraph) -> Alignment:
        joint, map1, map2 = _prefixed_union(graph1, graph2)
        blocks = kbisimulation_partition(joint, self.k)
        by_block: Dict[int, List[Node]] = {}
        for v in graph2.nodes():
            by_block.setdefault(blocks[map2[v]], []).append(v)
        return {
            u: sorted(by_block.get(blocks[map1[u]], []), key=repr)
            for u in graph1.nodes()
        }


class ExactBisimulationAligner:
    """Align via exact bisimulation (the paper's 0% baseline)."""

    name = "bisim"

    def align(self, graph1: LabeledDigraph, graph2: LabeledDigraph) -> Alignment:
        relation = maximal_simulation(graph1, graph2, Variant.B)
        return {u: sorted(relation.image(u), key=repr) for u in graph1.nodes()}


class OlapAligner:
    """Partition-refinement (bisimulation-style) alignment, Olap-like.

    Color refinement with successor/predecessor color *sets* on the
    disjoint union, then alignment within blocks.  Refinement depth is
    bounded (Olap's merge processes RDF graphs level by level to a
    bounded depth); running to the stable partition shatters every block
    under drift and scores 0, which is the exact-bisimulation row of
    Table 9, not Olap's.
    """

    def __init__(self, depth: int = 2):
        self.depth = depth
        self.name = "Olap"

    def align(self, graph1: LabeledDigraph, graph2: LabeledDigraph) -> Alignment:
        joint, map1, map2 = _prefixed_union(graph1, graph2)
        interner: Dict[Hashable, int] = {}

        def intern(key: Hashable) -> int:
            return interner.setdefault(key, len(interner))

        colors = {node: intern(("l", joint.label(node))) for node in joint.nodes()}
        for _ in range(self.depth):
            distinct = len(set(colors.values()))
            colors = {
                node: intern(
                    (
                        colors[node],
                        frozenset(colors[t] for t in joint.out_neighbors(node)),
                        frozenset(colors[s] for s in joint.in_neighbors(node)),
                    )
                )
                for node in joint.nodes()
            }
            if len(set(colors.values())) == distinct:
                break
        by_color: Dict[int, List[Node]] = {}
        for v in graph2.nodes():
            by_color.setdefault(colors[map2[v]], []).append(v)
        return {
            u: sorted(by_color.get(colors[map1[u]], []), key=repr)
            for u in graph1.nodes()
        }


class FinalAligner:
    """Iterative attributed similarity (FINAL-like).

    ``s(u, v) = (1 - alpha) L(u, v) + alpha * mean over neighbor pairs``
    with degree normalization, restricted to same-label pairs, iterated to
    convergence; align to the argmax.
    """

    name = "FINAL"

    def __init__(self, alpha: float = 0.8, iterations: int = 10):
        self.alpha = alpha
        self.iterations = iterations

    def align(self, graph1: LabeledDigraph, graph2: LabeledDigraph) -> Alignment:
        pairs = [
            (u, v)
            for label in graph1.labels()
            for u in graph1.nodes_with_label(label)
            for v in graph2.nodes_with_label(label)
        ]
        scores = {pair: 1.0 for pair in pairs}
        for _ in range(self.iterations):
            updated = {}
            for u, v in pairs:
                total = 0.0
                count = 0
                for u2, v2 in (
                    (x, y)
                    for x in graph1.out_neighbors(u)
                    for y in graph2.out_neighbors(v)
                ):
                    total += scores.get((u2, v2), 0.0)
                    count += 1
                for u2, v2 in (
                    (x, y)
                    for x in graph1.in_neighbors(u)
                    for y in graph2.in_neighbors(v)
                ):
                    total += scores.get((u2, v2), 0.0)
                    count += 1
                neighborhood = total / count if count else 0.0
                updated[(u, v)] = (1 - self.alpha) + self.alpha * neighborhood
            scores = updated
        best: Dict[Node, List[Node]] = {}
        for u in graph1.nodes():
            row = [(v, s) for (x, v), s in scores.items() if x == u]
            if not row:
                best[u] = []
                continue
            top = max(s for _, s in row)
            best[u] = sorted([v for v, s in row if s >= top - 1e-12], key=repr)
        return best


class GsanaAligner:
    """Positional-signature aligner (GSA NA-like).

    GSA NA aligns labeled networks by global *position*: every node is
    embedded by its distances to a set of anchor nodes, and same-label
    nodes with the closest embeddings are matched.  Anchors here are the
    highest-degree nodes per label (stable across versions); matching is
    greedy nearest-embedding.  Positional signatures are coarse, which is
    why the paper reports it far below FSim (11.8-14.9%).
    """

    name = "GSANA"

    def __init__(self, num_anchors: int = 8):
        self.num_anchors = num_anchors

    def align(self, graph1: LabeledDigraph, graph2: LabeledDigraph) -> Alignment:
        from repro.graph.subgraph import undirected_distances

        def anchors(graph: LabeledDigraph) -> List[Node]:
            ranked = sorted(
                graph.nodes(),
                key=lambda n: (-(graph.out_degree(n) + graph.in_degree(n)), repr(n)),
            )
            return ranked[: self.num_anchors]

        def embed(graph: LabeledDigraph, anchor_nodes: List[Node]):
            distance_maps = [undirected_distances(graph, a) for a in anchor_nodes]
            infinity = graph.num_nodes + 1
            return {
                node: tuple(dm.get(node, infinity) for dm in distance_maps)
                for node in graph.nodes()
            }

        embedding1 = embed(graph1, anchors(graph1))
        embedding2 = embed(graph2, anchors(graph2))
        by_label: Dict[Hashable, List[Node]] = {}
        for v in graph2.nodes():
            by_label.setdefault(graph2.label(v), []).append(v)
        alignment: Alignment = {}
        used: set = set()
        order = sorted(graph1.nodes(), key=repr)
        for u in order:
            vector_u = embedding1[u]
            best, best_distance = None, None
            for v in by_label.get(graph1.label(u), ()):
                if v in used:
                    continue
                distance = sum(
                    (a - b) ** 2 for a, b in zip(vector_u, embedding2[v])
                )
                if best_distance is None or (distance, repr(v)) < (
                    best_distance, repr(best),
                ):
                    best, best_distance = v, distance
            if best is None:
                alignment[u] = []
            else:
                alignment[u] = [best]
                used.add(best)
        return alignment


class EWSAligner:
    """Seeded percolation matching (EWS-like, "expand when stuck").

    Faithful to the method's premise -- "growing a graph matching from a
    *handful* of seeds": only ``num_seeds`` high-confidence pairs (unique
    (label, degrees, neighbor-label) signatures) are used as seeds, then
    matching percolates to the candidate pair with the most matched
    witnesses (the NoisySeeds criterion: at least r = 2 witnesses).
    Coverage is limited by how far percolation carries from the seeds,
    which is what caps EWS below the FSim aligners in Table 9.
    """

    name = "EWS"

    def __init__(self, num_seeds: int = 10):
        self.num_seeds = num_seeds

    def align(self, graph1: LabeledDigraph, graph2: LabeledDigraph) -> Alignment:
        def signature(graph: LabeledDigraph, node: Node):
            return (
                graph.label(node),
                graph.out_degree(node),
                graph.in_degree(node),
                tuple(sorted(graph.label(n) for n in graph.out_neighbors(node))),
                tuple(sorted(graph.label(n) for n in graph.in_neighbors(node))),
            )

        unique1: Dict[Hashable, Node] = {}
        counts1: Dict[Hashable, int] = {}
        for node in graph1.nodes():
            sig = signature(graph1, node)
            counts1[sig] = counts1.get(sig, 0) + 1
            unique1[sig] = node
        unique2: Dict[Hashable, Node] = {}
        counts2: Dict[Hashable, int] = {}
        for node in graph2.nodes():
            sig = signature(graph2, node)
            counts2[sig] = counts2.get(sig, 0) + 1
            unique2[sig] = node
        seed_signatures = sorted(
            (
                sig
                for sig in unique1
                if counts1.get(sig) == 1 and counts2.get(sig) == 1
            ),
            key=repr,
        )[: self.num_seeds]
        matched: Dict[Node, Node] = {
            unique1[sig]: unique2[sig] for sig in seed_signatures
        }
        used = set(matched.values())

        # Percolate: repeatedly adopt the candidate pair with the most
        # matched neighbor witnesses (NoisySeeds requires >= 2).
        for threshold in (2,):
            progress = True
            while progress:
                progress = False
                votes: Dict[Tuple[Node, Node], int] = {}
                for u, v in matched.items():
                    for u2 in graph1.out_neighbors(u):
                        if u2 in matched:
                            continue
                        for v2 in graph2.out_neighbors(v):
                            if v2 in used or graph1.label(u2) != graph2.label(v2):
                                continue
                            votes[(u2, v2)] = votes.get((u2, v2), 0) + 1
                    for u2 in graph1.in_neighbors(u):
                        if u2 in matched:
                            continue
                        for v2 in graph2.in_neighbors(v):
                            if v2 in used or graph1.label(u2) != graph2.label(v2):
                                continue
                            votes[(u2, v2)] = votes.get((u2, v2), 0) + 1
                if votes:
                    (u2, v2), count = max(
                        votes.items(), key=lambda item: (item[1], repr(item[0]))
                    )
                    if count >= threshold:
                        matched[u2] = v2
                        used.add(v2)
                        progress = True
        return {u: [matched[u]] if u in matched else [] for u in graph1.nodes()}
