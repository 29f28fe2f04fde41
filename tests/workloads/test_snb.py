"""SNB workload: generator invariants, query registration, differential."""

import pytest

from repro import QueryEngine
from repro.errors import UnsupportedForIncrementalError
from repro.workloads.snb import (
    LANGS,
    SNB_QUERIES,
    SNB_TOPK_QUERIES,
    generate_snb,
    update_stream,
)


def parameters_for(query):
    return {"name": "person-0"} if "$name" in query else None


@pytest.fixture(scope="module")
def net():
    return generate_snb(
        persons=10, forums=2, posts_per_forum=4, comments_per_post=3, seed=3
    )


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = generate_snb(persons=6, seed=9)
        b = generate_snb(persons=6, seed=9)
        assert a.graph.stats() == b.graph.stats()
        assert sorted(a.lang_of.items()) == sorted(b.lang_of.items())

    def test_different_seeds_differ(self):
        a = generate_snb(persons=6, seed=1)
        b = generate_snb(persons=6, seed=2)
        assert a.lang_of != b.lang_of

    def test_schema_complete(self, net):
        graph = net.graph
        assert {"Person", "Forum", "Post", "Comment", "Tag"} <= set(graph.labels())
        assert {
            "KNOWS",
            "LIKES",
            "HAS_MEMBER",
            "CONTAINER_OF",
            "REPLY_OF",
            "HAS_CREATOR",
            "HAS_TAG",
        } <= set(graph.edge_types())

    def test_every_message_has_creator(self, net):
        graph = net.graph
        for message in net.posts + net.comments:
            creators = [
                graph.target_of(e) for e in graph.out_edges(message, "HAS_CREATOR")
            ]
            assert len(creators) == 1
            assert graph.has_label(creators[0], "Person")

    def test_comments_form_reply_forest_rooted_at_posts(self, net):
        graph = net.graph
        for comment in net.comments:
            parents = [
                graph.target_of(e) for e in graph.out_edges(comment, "REPLY_OF")
            ]
            assert len(parents) == 1
            at = parents[0]
            hops = 0
            while graph.has_label(at, "Comment"):
                (edge,) = list(graph.out_edges(at, "REPLY_OF"))
                at = graph.target_of(edge)
                hops += 1
                assert hops < 1000  # no cycles
            assert graph.has_label(at, "Post")

    def test_langs_from_palette(self, net):
        assert set(net.lang_of.values()) <= set(LANGS)


class TestQueries:
    def test_all_queries_in_fragment(self, net):
        engine = QueryEngine(net.graph)
        for query in SNB_QUERIES.values():
            assert engine.is_incremental(query), query

    def test_topk_queries_outside_fragment(self, net):
        engine = QueryEngine(net.graph)
        for query in SNB_TOPK_QUERIES.values():
            assert not engine.is_incremental(query)
            with pytest.raises(UnsupportedForIncrementalError):
                engine.register(query)
            # one-shot evaluation stays supported: LIMIT 3 bounds it
            assert len(engine.evaluate(query, use_views=False).rows()) <= 3

    def test_views_match_oracle_through_update_stream(self):
        net = generate_snb(
            persons=8, forums=2, posts_per_forum=3, comments_per_post=2, seed=13
        )
        engine = QueryEngine(net.graph)
        views = {
            key: engine.register(query, parameters_for(query))
            for key, query in SNB_QUERIES.items()
        }
        applied = 0
        for kind, apply in update_stream(net, operations=40, seed=21):
            apply()
            applied += 1
            if applied % 10:
                continue  # full differential check every 10th update
            for key, query in SNB_QUERIES.items():
                live = sorted(views[key].rows(), key=repr)
                oracle = sorted(
                    engine.evaluate(query, parameters_for(query), use_views=False).rows(), key=repr
                )
                assert live == oracle, (key, kind)

    def test_update_stream_mix_covers_all_kinds(self):
        net = generate_snb(persons=8, seed=13)
        kinds = {kind for kind, _ in update_stream(net, operations=300, seed=8)}
        assert kinds == {"comment", "like", "post", "membership", "lang", "unlike"}

    def test_ic7_counts_match_degree(self, net):
        engine = QueryEngine(net.graph)
        result = engine.evaluate(SNB_QUERIES["ic7_likers"], use_views=False)
        total_likes = sum(n for _, n in result.rows())
        like_edges_to_posts = sum(
            1
            for e in net.graph.edges("LIKES")
            if net.graph.has_label(net.graph.target_of(e), "Post")
        )
        assert total_likes == like_edges_to_posts
