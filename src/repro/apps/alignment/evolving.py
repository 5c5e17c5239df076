"""Evolving graph versions with node-identity ground truth.

The paper aligns three versions of a biological RDF graph (Guide to
Pharmacology) from different times; the original URIs do not change over
time, which provides the ground-truth alignment.  This module emulates
that: a base graph evolves through edge churn plus node arrivals and
departures, keeping node identifiers stable -- shared ids across versions
are the ground truth.

Two evolution styles are provided:

- :func:`evolve_graph` copies the input and mutates the copy (the
  original batch workload: align k independent versions);
- :func:`evolve_inplace` applies the same churn *through a*
  :class:`~repro.streaming.delta.DeltaLog`, which is what the streaming
  workload needs -- :class:`EvolvingAlignmentSession` keeps one
  :class:`~repro.streaming.session.IncrementalFSim` session alive while
  the graph evolves under it, so each step's alignment is maintained
  incrementally instead of recomputed from the L-initialization.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.exceptions import GraphError
from repro.graph.digraph import LabeledDigraph, Node
from repro.graph.generators import power_law_graph, uniform_labels


def evolve_graph(
    graph: LabeledDigraph,
    seed: int,
    edge_churn: float = 0.08,
    node_birth: float = 0.05,
    node_death: float = 0.03,
    name: str = "",
) -> LabeledDigraph:
    """One evolution step: edge churn plus node arrivals/departures.

    - ``edge_churn`` of edges are rewired (half removed, half added);
    - ``node_death`` of nodes disappear (with incident edges);
    - ``node_birth`` new nodes appear, wired to random survivors with the
      existing label distribution.

    The churn model itself lives in :func:`evolve_inplace`; this wrapper
    copies first (same mutation sequence for a given seed).
    """
    evolved = graph.copy(name=name or f"{graph.name}-evolved")
    evolve_inplace(
        evolved, seed,
        edge_churn=edge_churn, node_birth=node_birth, node_death=node_death,
    )
    return evolved


def evolve_inplace(
    log,
    seed: int,
    edge_churn: float = 0.08,
    node_birth: float = 0.05,
    node_death: float = 0.03,
) -> int:
    """One evolution step applied in place (the canonical churn model).

    ``log`` is a :class:`~repro.streaming.delta.DeltaLog` -- so a
    streaming session observing it sees the step as one structured
    delta -- or anything else exposing the digraph mutator/read API,
    including a bare :class:`LabeledDigraph` (which is how
    :func:`evolve_graph` reuses this).  Returns the number of mutator
    calls made.
    """
    for ratio in (edge_churn, node_birth, node_death):
        if ratio < 0:
            raise GraphError(f"evolution ratios must be non-negative, got {ratio}")
    rng = random.Random(seed)
    mutations = 0

    victims = list(log.nodes())
    rng.shuffle(victims)
    for node in victims[: int(round(node_death * len(victims)))]:
        log.remove_node(node)
        mutations += 1

    edges = list(log.edges())
    rng.shuffle(edges)
    removals = int(round(edge_churn * len(edges) / 2))
    for source, target in edges[:removals]:
        log.remove_edge(source, target)
        mutations += 1

    survivors = list(log.nodes())
    labels = [log.label(node) for node in survivors]
    additions = int(round(edge_churn * len(edges) / 2))
    added = 0
    guard = 0
    while added < additions and guard < 50 * additions + 50:
        guard += 1
        source, target = rng.choice(survivors), rng.choice(survivors)
        if source != target and log.add_edge_if_absent(source, target):
            added += 1
            mutations += 1

    births = int(round(node_birth * len(victims)))
    next_id = 0
    for _ in range(births):
        while log.has_node(f"new_{next_id}"):
            next_id += 1
        newcomer = f"new_{next_id}"
        next_id += 1
        log.add_node(newcomer, rng.choice(labels))
        mutations += 1
        for _edge in range(rng.randint(1, 3)):
            partner = rng.choice(survivors)
            if rng.random() < 0.5:
                if log.add_edge_if_absent(newcomer, partner):
                    mutations += 1
            else:
                if log.add_edge_if_absent(partner, newcomer):
                    mutations += 1
    return mutations


class EvolvingAlignmentSession:
    """Incrementally maintained alignment of an evolving graph.

    Holds a fixed reference version and a live copy that evolves in
    place; after every :meth:`step`, the FSim scores against the
    reference are brought up to date through one
    :class:`~repro.streaming.session.IncrementalFSim` session (bitwise
    identical to recomputing from scratch) and projected to the paper's argmax alignment.
    """

    def __init__(self, base: LabeledDigraph, config=None):
        from repro.core.config import FSimConfig
        from repro.simulation.base import Variant
        from repro.streaming.session import IncrementalFSim

        self.reference = base
        self.current = base.copy(name=f"{base.name or 'base'}-evolving")
        self.config = config or FSimConfig(
            variant=Variant.B, label_function="indicator", theta=1.0
        )
        self.session = IncrementalFSim(
            self.current, self.reference, self.config
        )

    def step(
        self,
        seed: int,
        edge_churn: float = 0.08,
        node_birth: float = 0.05,
        node_death: float = 0.03,
    ) -> Dict[Node, List[Node]]:
        """Evolve once and return the refreshed argmax alignment."""
        evolve_inplace(
            self.session.log1, seed,
            edge_churn=edge_churn, node_birth=node_birth,
            node_death=node_death,
        )
        return self.alignment()

    def alignment(self) -> Dict[Node, List[Node]]:
        """The current alignment ``{u: argmax partners}`` (paper's A_u)."""
        result = self.session.compute()
        return {
            u: result.argmax_partners(u, tolerance=1e-9)
            for u in self.current.nodes()
        }

    def self_match_rate(self) -> float:
        """Fraction of surviving shared nodes aligned back to themselves
        (the evolving-version ground-truth accuracy)."""
        alignment = self.alignment()
        shared = [u for u in self.current.nodes() if self.reference.has_node(u)]
        if not shared:
            return 0.0
        hits = sum(1 for u in shared if alignment.get(u) == [u])
        return hits / len(shared)


def generate_bio_versions(
    num_nodes: int = 220,
    num_labels: int = 8,
    seed: int = 0,
    versions: int = 3,
) -> List[LabeledDigraph]:
    """Three versions of a bio-like graph (the paper's G1, G2, G3).

    The base mimics the GtoPdb graphs: 8 node labels, skewed in-degrees
    (target/family hubs).  Successive versions grow slightly, like the
    paper's versions (133k -> 139k -> 145k nodes).
    """
    labels = uniform_labels(num_nodes, num_labels, seed=seed + 1)
    base = power_law_graph(num_nodes, 2, labels, seed=seed + 2, name="bio-G1")
    graphs = [base]
    for index in range(1, versions):
        graphs.append(
            evolve_graph(
                graphs[-1],
                seed=seed + 10 * index,
                name=f"bio-G{index + 1}",
            )
        )
    return graphs
