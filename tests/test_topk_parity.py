"""Top-k backend parity and batched-query semantics.

The acceptance bar for the batched vectorized top-k path: certified
:class:`TopKResult` objects (partner sets, scores, certification flag,
iteration counts) identical between the python and numpy paths across
variants, pruning modes and pinned pairs -- and a batched
``search_many`` identical to per-query ``search`` on both backends.
"""

import pytest

from repro.core import FSimConfig, TopKSearch, fsim_matrix
from repro.exceptions import ConfigError
from repro.graph.generators import random_graph, uniform_labels
from repro.simulation import Variant

ALL_VARIANTS = [Variant.S, Variant.DP, Variant.B, Variant.BJ]

TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def graph_pair():
    g1 = random_graph(16, 36, uniform_labels(16, 3, seed=31), seed=32)
    g2 = random_graph(20, 48, uniform_labels(20, 3, seed=33), seed=34)
    return g1, g2


def assert_topk_parity(graph1, graph2, config, queries, k):
    python = TopKSearch(
        graph1, graph2, config.with_options(backend="python")
    ).search_many(queries, k)
    numpy = TopKSearch(
        graph1, graph2, config.with_options(backend="numpy")
    ).search_many(queries, k)
    assert len(python) == len(numpy) == len(queries)
    for expected, got in zip(python, numpy):
        assert got.query == expected.query
        assert got.certified == expected.certified
        assert got.iterations == expected.iterations
        assert [node for node, _ in got.partners] == [
            node for node, _ in expected.partners
        ], expected.query
        for (_, score1), (_, score2) in zip(expected.partners, got.partners):
            assert abs(score1 - score2) <= TOLERANCE
    return python, numpy


class TestTopKBackendParity:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_variants(self, variant, graph_pair):
        g1, g2 = graph_pair
        # max_iterations=2 runs out of budget before certification.
        for max_iterations in (None, 2):
            config = FSimConfig(variant=variant, label_function="indicator",
                                max_iterations=max_iterations)
            python, _ = assert_topk_parity(
                g1, g2, config, list(g1.nodes())[:4], 3
            )
            if max_iterations == 2:
                assert not all(result.certified for result in python)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_pruning_modes(self, variant, graph_pair):
        g1, _ = graph_pair
        config = FSimConfig(
            variant=variant, theta=1.0, use_upper_bound=True,
        )
        assert_topk_parity(g1, g1, config, list(g1.nodes())[:4], 2)

    def test_alpha_fallback_pruning(self, graph_pair):
        g1, g2 = graph_pair
        config = FSimConfig(
            variant=Variant.BJ, use_upper_bound=True, beta=0.8, alpha=0.4,
        )
        assert_topk_parity(g1, g2, config, list(g1.nodes())[:4], 3)

    def test_pinned_pairs(self, graph_pair):
        g1, _ = graph_pair
        nodes = g1.nodes()
        config = FSimConfig(
            variant=Variant.S, label_function="indicator",
            pinned_pairs={
                (nodes[0], nodes[0]): 1.0,
                (nodes[0], nodes[3]): 0.5,
                (nodes[1], "offgraph"): 0.25,
            },
        )
        python, _ = assert_topk_parity(
            g1, g1, config, [nodes[0], nodes[1]], 3
        )
        # Pinned values must surface in the rows at their pinned score.
        row0 = dict(python[0].partners)
        assert row0.get(nodes[0]) == 1.0

    def test_jaro_winkler_labels(self, graph_pair):
        g1, g2 = graph_pair
        config = FSimConfig(variant=Variant.B, theta=0.6)
        assert_topk_parity(g1, g2, config, list(g1.nodes())[:3], 4)


class TestBatchedSemantics:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_batch_equals_solo(self, backend, graph_pair):
        g1, g2 = graph_pair
        config = FSimConfig(
            variant=Variant.B, label_function="indicator", backend=backend,
        )
        search = TopKSearch(g1, g2, config)
        queries = list(g1.nodes())[:5]
        batched = search.search_many(queries, 3)
        for query, from_batch in zip(queries, batched):
            solo = search.search(query, 3)
            assert solo == from_batch

    def test_duplicate_queries(self, graph_pair):
        g1, _ = graph_pair
        config = FSimConfig(variant=Variant.B, label_function="indicator")
        search = TopKSearch(g1, g1, config)
        query = list(g1.nodes())[0]
        results = search.search_many([query, query], 2)
        assert results[0] == results[1]

    def test_empty_batch(self, graph_pair):
        g1, _ = graph_pair
        search = TopKSearch(g1, g1, FSimConfig())
        assert search.search_many([], 3) == []

    def test_unknown_query_rejected(self, graph_pair):
        g1, _ = graph_pair
        search = TopKSearch(g1, g1, FSimConfig())
        with pytest.raises(ConfigError):
            search.search_many([list(g1.nodes())[0], "ghost"], 2)

    def test_invalid_k_rejected(self, graph_pair):
        g1, _ = graph_pair
        search = TopKSearch(g1, g1, FSimConfig())
        with pytest.raises(ConfigError):
            search.search_many(list(g1.nodes())[:2], 0)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_certified_set_matches_full_run(self, backend, graph_pair):
        """A certified top-k must equal the converged run's top-k."""
        g1, _ = graph_pair
        config = FSimConfig(
            variant=Variant.B, label_function="indicator", backend=backend,
        )
        full = fsim_matrix(g1, g1, config=config)
        results = TopKSearch(g1, g1, config).search_many(
            list(g1.nodes())[:5], 3
        )
        for result in results:
            if not result.certified:
                continue
            expected = full.top_k(result.query, 3)
            assert [node for node, _ in result.partners] == [
                node for node, _ in expected
            ]
            # Scores may still drift by the remaining contraction tail.
            for (_, early), (_, final) in zip(result.partners, expected):
                assert early == pytest.approx(final, abs=0.05)
