"""Benchmark inputs: seeded, generated once, outside every timed region.

Each workload's generator from ``repro.workloads`` runs here against a
scratch graph (plus a scratch engine where the stream depends on match
sets or on Cypher write statements).  What it did is recorded as neutral,
JSON-able op lists, and only those lists reach the timed code, which
replays them through public ``PropertyGraph``/``QueryEngine`` calls.  The
O(n) work the generators do per operation (``rng.choice(posts + comments)``,
``list(graph.edges("LIKES"))``) therefore never lands in a measurement,
and a sha256 over the lists pins the exact inputs parent and change see.

Shape of one workload's inputs (all plain lists/dicts/str/int/bool)::

    {"workload", "seed", "sizes", "batch_transactions", "indexes",
     "queries": {key: text},
     "load":  [["add_vertex", labels, props] | ["add_edge", s, t, type]],
     "views": [[slot, query_key, params | None]],
     "units": [[kind, payload, events]],
     "events": total elementary graph changes in units,
     "final_graph": [vertices, edges]}

Unit kinds: ``tx`` (payload: elementary ops, one ``graph.transaction()``),
``auto`` (one autocommit elementary op), ``lifecycle`` (``[old_slot,
new_slot, query_key, params]``: detach + register), ``read_view``
(slots), ``read_eval`` (``[query_key, params]``) and ``execute``
(``[query_key, params, elementary ops the statement caused]``).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro import PropertyGraph, QueryEngine
from repro.graph import events as ev
from repro.workloads import snb
from repro.workloads import trainbenchmark as tb

WORKLOADS = ("snb.mix", "train.repair", "bindings.churn", "snb.reads")
DEFAULT_SEED = 1
DIGESTS_FILE = Path(__file__).with_name("digests.json")

#: graph sizes.  ``snb.*`` share one graph shape; ``bindings.churn`` runs
#: ~200 views whose registration cost grows with the graph, so it gets a
#: quarter-size graph to keep three set-ups inside a run's budget.
SIZES = {
    "snb.mix": dict(persons=1000, forums=25, posts_per_forum=40, comments_per_post=4),
    "snb.reads": dict(persons=1000, forums=25, posts_per_forum=40, comments_per_post=4),
    "bindings.churn": dict(
        persons=500, forums=12, posts_per_forum=40, comments_per_post=4, bindings=64
    ),
    "train.repair": dict(routes=800),
}
SMOKE_SIZES = {
    "snb.mix": dict(persons=40, forums=3, posts_per_forum=6, comments_per_post=2),
    "snb.reads": dict(persons=40, forums=3, posts_per_forum=6, comments_per_post=2),
    "bindings.churn": dict(
        persons=40, forums=3, posts_per_forum=6, comments_per_post=2, bindings=6
    ),
    "train.repair": dict(routes=12),
}

#: how much stream one second of ``--seconds`` buys, calibrated on the
#: 2-core reference host so the timed intervals sum to about ``--seconds``
#: (``train.repair``: about 0.6 of it — it exists to be set-up dominated).
#: Counts, not clocks, bound a run: every count-valued metric must repeat
#: exactly, which a deadline-stopped loop cannot give.
RATES = {
    "snb.mix": 600,  # transactions of TX_OPS generator operations
    "train.repair": 14,  # inject/recheck/repair/recheck rounds over 6 queries
    "bindings.churn": 2900,  # autocommit mutations
    "snb.reads": 3700,  # read/execute operations
}
SMOKE_COUNTS = {
    "snb.mix": 40,
    "train.repair": 2,
    "bindings.churn": 120,
    "snb.reads": 120,
}

#: Every workload gives about 2 % of its write units and 2 % of its reads
#: to one heavy class, so that the 99th percentile is the median cost of
#: that class.  On a host whose speed flickers by ±15 % within a run, the
#: p99 of a homogeneous stream is the tail of the host's noise, not of the
#: system; the median of a class the system makes expensive is steady.
HEAVY_EVERY = 50

TX_OPS = 10
BULK_TX_OPS = 80  # snb.mix heavy writes: every HEAVY_EVERY-th transaction
SNB_MIX_READ_EVERY = 3  # one View.rows() per this many transactions
SNB_MIX_READ_SLOTS = ("is1_profile", "ic1_fof", "ic4_friend_tags", "ic5_forum_posts")
SNB_MIX_HEAVY_READ = "is3_friends"  # ~3 k rows against tens
TRAIN_BATCH = 5  # violations injected / repaired per (query, phase)
TRAIN_BIG_EVERY = 4  # rounds; 1 of the 48 write units of 4 rounds is heavy
TRAIN_BIG_QUERY = "ConnectedSegments"  # its inject is 4x there; and the
TRAIN_BIG_FACTOR = 4  # round ends with one read of all six views
CHURN_READ_EVERY = 10
READS_WRITE_SHARE = 0.05

BINDING_TEMPLATES = {
    "friends": (
        "MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE p.name = $name "
        "RETURN p.name AS person, f.name AS friend"
    ),
    "ic1_fof": snb.SNB_QUERIES["ic1_fof"],
    "likes_by_author": (
        "MATCH (fan:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(auth:Person) "
        "WHERE auth.name = $name "
        "RETURN auth.name AS author, count(*) AS likes"
    ),
}

#: snb.reads one-shot reads that are not the registered view texts:
#: alpha-renamed and residual catalog hits (top-k ties broken by a unique
#: column, so view-answered and recomputed results are comparable), and
#: cheap label scans no view covers (interpreter fallback).
#: ``ic2_distinct_friends`` from bench_view_answering is left out: at this
#: graph size it costs ~45 ms per read and would own the whole phase.
EXTRA_READS = {
    "is3_renamed": (
        "MATCH (a:Person)-[:KNOWS]->(z:Person) "
        "RETURN a.name AS person, z.name AS friend"
    ),
    "ic7_top3": (
        "MATCH (fan:Person)-[:LIKES]->(m:Post)-[:HAS_CREATOR]->(auth:Person) "
        "RETURN auth.name AS author, count(*) AS likes "
        "ORDER BY likes DESC, author LIMIT 3"
    ),
    "ic5_top5": (
        "MATCH (f:Forum)-[:HAS_MEMBER]->(pe:Person)"
        "<-[:HAS_CREATOR]-(po:Post)<-[:CONTAINER_OF]-(f) "
        "RETURN f.title AS forum, count(*) AS posts "
        "ORDER BY posts DESC, forum LIMIT 5"
    ),
    "ic4_hot_tags": (
        "MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)"
        "-[:HAS_TAG]->(t:Tag) "
        "WITH t.name AS tag, count(*) AS posts WHERE posts > 1 "
        "RETURN tag, posts"
    ),
    "ic8_busy": (
        "MATCH (c:Comment)-[:REPLY_OF]->(m:Post)-[:HAS_CREATOR]->(p:Person) "
        "WITH p.name AS author, count(*) AS replies WHERE replies > 6 "
        "RETURN author, replies"
    ),
    "scan_tags": "MATCH (t:Tag) RETURN t.name AS name",
    "scan_forums": "MATCH (f:Forum) RETURN f.title AS title",
}
UNCOVERED_READS = ("scan_tags", "scan_forums")
UNCOVERED_SHARE = 0.01

WRITE_STATEMENTS = {
    "w_like": (
        "MATCH (p:Person {name: $person}), (m:Post {content: $post}) "
        "CREATE (p)-[:LIKES]->(m)"
    ),
    "w_comment": (
        "MATCH (m:Post {content: $post}), (p:Person {name: $person}) "
        "CREATE (c:Comment {lang: $lang, content: $content})-[:REPLY_OF]->(m), "
        "(c)-[:HAS_CREATOR]->(p)"
    ),
    "w_lang": "MATCH (m:Post {content: $post}) SET m.lang = $lang",
    "w_post": (
        "MATCH (f:Forum {title: $forum}), (p:Person {name: $person}) "
        "CREATE (f)-[:CONTAINER_OF]->"
        "(m:Post {lang: $lang, content: $content, recent: TRUE})"
        "-[:HAS_CREATOR]->(p)"
    ),
    "w_unlike": (
        "MATCH (p:Person {name: $person})-[l:LIKES]->(m:Post) "
        "WITH l LIMIT 1 DELETE l"
    ),
}
WRITE_STATEMENTS["w_burst"] = (  # the heavy write class: 20 likes at once
    "MATCH (p:Person {name: $person}), (m:Post) WHERE m.lang = $lang "
    "WITH p, m LIMIT 20 CREATE (p)-[:LIKES]->(m)"
)
WRITE_WEIGHTS = (
    ["w_like"] * 35 + ["w_comment"] * 30 + ["w_lang"] * 15
    + ["w_post"] * 10 + ["w_unlike"] * 10 + ["w_burst"] * 2
)


class Recorder:
    """Graph listener turning emitted events into replayable op lists."""

    def __init__(self, graph: PropertyGraph):
        self.ops: list[list] = []
        graph.subscribe(self._on_event)

    def _on_event(self, event: ev.GraphEvent) -> None:
        if isinstance(event, ev.VertexAdded):
            op = ["add_vertex", sorted(event.labels), dict(event.properties)]
        elif isinstance(event, ev.EdgeAdded):
            if event.properties:
                raise ValueError("edge properties are not part of the op format")
            op = ["add_edge", event.source, event.target, event.edge_type]
        elif isinstance(event, ev.EdgeRemoved):
            op = ["remove_edge", event.edge_id]
        elif isinstance(event, ev.VertexRemoved):
            op = ["remove_vertex", event.vertex_id]
        elif isinstance(event, ev.VertexPropertySet):
            op = ["set_property", event.vertex_id, event.key, event.new_value]
        else:
            raise ValueError(f"no op form for {type(event).__name__}")
        self.ops.append(op)

    def take(self) -> list[list]:
        ops, self.ops = self.ops, []
        return ops


def dump_graph(graph: PropertyGraph) -> list[list]:
    """A freshly generated graph (dense ids from 1) as load ops."""
    load = [
        ["add_vertex", sorted(graph.labels_of(v)), dict(graph.vertex_properties(v))]
        for v in range(1, graph.vertex_count + 1)
    ]
    for edge in range(1, graph.edge_count + 1):
        source, target = graph.endpoints(edge)
        load.append(["add_edge", source, target, graph.type_of(edge)])
    return load


def load_graph(load: list[list], indexes=()) -> PropertyGraph:
    """Replay load ops onto a fresh graph through the public mutators."""
    graph = PropertyGraph()
    for label, key in indexes:
        graph.create_index(label, key)
    add_vertex, add_edge = graph.add_vertex, graph.add_edge
    for op in load:
        if op[0] == "add_vertex":
            add_vertex(op[1], op[2])
        else:
            add_edge(op[1], op[2], op[3])
    return graph


def graph_methods(graph: PropertyGraph) -> dict:
    """Op name → the public mutator of *graph* that replays it."""
    return {
        "add_vertex": graph.add_vertex,
        "add_edge": graph.add_edge,
        "remove_edge": graph.remove_edge,
        "remove_vertex": graph.remove_vertex,
        "set_property": graph.set_vertex_property,
    }


def _scratch(generated: PropertyGraph, indexes=()) -> tuple[list, PropertyGraph]:
    """Load ops of *generated*, and a scratch graph built by replaying them.

    Streams are recorded against the replayed copy, not the generator's
    own graph, so the scratch graph's history — and with it every
    set-iteration order a ``LIMIT 1`` or a generator scan depends on — is
    the history the timed replay will have.
    """
    load = dump_graph(generated)
    return load, load_graph(load, indexes)


def _snb_network(sizes: dict, seed: int, indexes=()):
    net = snb.generate_snb(
        persons=sizes["persons"],
        forums=sizes["forums"],
        posts_per_forum=sizes["posts_per_forum"],
        comments_per_post=sizes["comments_per_post"],
        seed=seed,
    )
    load, net.graph = _scratch(net.graph, indexes)
    return net, load


def _snb_views(name: str) -> list[list]:
    return [
        [key, key, {"name": name} if "$name" in text else None]
        for key, text in snb.SNB_QUERIES.items()
    ]


def _snb_mix(sizes: dict, count: int, seed: int) -> dict:
    net, load = _snb_network(sizes, seed)
    recorder = Recorder(net.graph)
    stream = snb.update_stream(net, count * BULK_TX_OPS, seed=seed + 1)
    units = []
    reads = 0
    for index in range(count):
        for _ in range(BULK_TX_OPS if (index + 1) % HEAVY_EVERY == 0 else TX_OPS):
            next(stream)[1]()
        ops = recorder.take()
        units.append(["tx", ops, len(ops)])
        if (index + 1) % SNB_MIX_READ_EVERY == 0:
            reads += 1
            slot = SNB_MIX_READ_SLOTS[reads % len(SNB_MIX_READ_SLOTS)]
            if reads % HEAVY_EVERY == 0:
                slot = SNB_MIX_HEAVY_READ
            units.append(["read_view", [slot], 0])
    return dict(
        batch_transactions=True,
        queries=dict(snb.SNB_QUERIES),
        load=load,
        views=_snb_views(f"person-{random.Random(seed).randrange(sizes['persons'])}"),
        units=units,
        graph=net.graph,
    )


def _train_repair(sizes: dict, count: int, seed: int) -> dict:
    model = tb.generate_railway(routes=sizes["routes"], seed=seed)
    load, model.graph = _scratch(model.graph)
    engine = QueryEngine(model.graph)
    views = {name: engine.register(text) for name, text in tb.QUERIES.items()}
    recorder = Recorder(model.graph)
    rng = random.Random(seed + 1)
    units = []
    for round_ in range(count):
        big = (round_ + 1) % TRAIN_BIG_EVERY == 0
        for name in tb.QUERIES:
            batch = TRAIN_BATCH
            if big and name == TRAIN_BIG_QUERY:
                batch *= TRAIN_BIG_FACTOR
            tb.inject(model, name, batch, rng)
            ops = recorder.take()
            units.append(["tx", ops, len(ops)])
            units.append(["read_view", [name], 0])
            tb.repair(model, name, views[name].rows(), TRAIN_BATCH, rng)
            ops = recorder.take()
            units.append(["tx", ops, len(ops)])
            units.append(["read_view", [name], 0])
        if big:
            units.append(["read_view", list(tb.QUERIES), 0])
    return dict(
        batch_transactions=True,
        queries=dict(tb.QUERIES),
        load=load,
        views=[[name, name, None] for name in tb.QUERIES],
        units=units,
        graph=model.graph,
    )


def _bindings_churn(sizes: dict, count: int, seed: int) -> dict:
    net, load = _snb_network(sizes, seed)
    rng = random.Random(seed + 2)
    names = [f"person-{index}" for index in range(sizes["persons"])]
    templates = list(BINDING_TEMPLATES)
    bound = {template: rng.sample(names, sizes["bindings"]) for template in templates}
    queries = dict(BINDING_TEMPLATES)
    views = [
        [f"{template}:{name}", template, {"name": name}]
        for template in templates
        for name in bound[template]
    ]
    lang_slots = [f"lang_{lang}" for lang in snb.LANGS]
    for lang, slot in zip(snb.LANGS, lang_slots):
        queries[slot] = (
            f"MATCH (p:Post) WHERE p.lang = '{lang}' RETURN p.content AS content"
        )
        views.append([slot, slot, None])

    recorder = Recorder(net.graph)
    stream = snb.update_stream(net, count, seed=seed + 1)
    units = []
    writes = lifecycles = reads = 0
    while writes < count:
        next(stream)[1]()
        for op in recorder.take():
            units.append(["auto", op, 1])
            writes += 1
            if writes % HEAVY_EVERY == 0:
                # heavy writes: the oldest binding of a template leaves, a
                # fresh one registers (detach + register is one write unit)
                template = templates[lifecycles % len(templates)]
                lifecycles += 1
                old = bound[template].pop(0)
                new = rng.choice([n for n in names if n != old and n not in bound[template]])
                bound[template].append(new)
                units.append([
                    "lifecycle",
                    [f"{template}:{old}", f"{template}:{new}", template, {"name": new}],
                    0,
                ])
            if writes % CHURN_READ_EVERY == 0:
                # reads rotate over the templates; heavy reads: a lang view
                # (hundreds of rows against a handful)
                reads += 1
                if reads % HEAVY_EVERY == 0:
                    slot = lang_slots[(reads // HEAVY_EVERY) % len(lang_slots)]
                else:
                    template = templates[reads % len(templates)]
                    slot = f"{template}:{rng.choice(bound[template])}"
                units.append(["read_view", [slot], 0])
    return dict(
        batch_transactions=False,
        queries=queries,
        load=load,
        views=views,
        units=units,
        graph=net.graph,
    )


def _snb_reads(sizes: dict, count: int, seed: int) -> dict:
    indexes = [["Person", "name"], ["Post", "content"], ["Forum", "title"]]
    net, load = _snb_network(sizes, seed, indexes)
    engine = QueryEngine(net.graph)  # scratch: executes the write statements
    recorder = Recorder(net.graph)
    rng = random.Random(seed + 3)
    name = f"person-{random.Random(seed).randrange(sizes['persons'])}"
    views = _snb_views(name)
    queries = {**snb.SNB_QUERIES, **EXTRA_READS, **WRITE_STATEMENTS}
    covered = [
        [key, {"name": name} if "$name" in queries[key] else None]
        for key in list(snb.SNB_QUERIES) + list(EXTRA_READS)
        if key not in UNCOVERED_READS
    ]
    posts = len(net.posts)
    units = []
    for index in range(count):
        if rng.random() >= READS_WRITE_SHARE:
            if rng.random() < UNCOVERED_SHARE:
                read = [rng.choice(UNCOVERED_READS), None]
            else:
                read = rng.choice(covered)
            units.append(["read_eval", read, 0])
            continue
        key = rng.choice(WRITE_WEIGHTS)
        params = {
            "person": f"person-{rng.randrange(sizes['persons'])}",
            "post": f"post-{rng.randrange(posts)}",
            "forum": f"forum-{rng.randrange(sizes['forums'])}",
            "lang": rng.choice(snb.LANGS),
            "content": f"post-{posts}" if key == "w_post" else f"reply-{index}",
        }
        engine.execute(WRITE_STATEMENTS[key], params)
        if key == "w_post":
            posts += 1
        ops = recorder.take()
        units.append(["execute", [key, params, ops], len(ops)])
    return dict(
        batch_transactions=True,
        indexes=indexes,
        queries=queries,
        load=load,
        views=views,
        units=units,
        graph=net.graph,
    )


_BUILDERS = {
    "snb.mix": _snb_mix,
    "train.repair": _train_repair,
    "bindings.churn": _bindings_churn,
    "snb.reads": _snb_reads,
}


def build_inputs(workload: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """Generate *workload*'s inputs for *seed*; nothing here is timed."""
    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    count = SMOKE_COUNTS[workload] if smoke else max(1, round(RATES[workload] * seconds))
    built = _BUILDERS[workload](sizes, count, seed)
    graph = built.pop("graph")
    built.setdefault("indexes", [])
    inputs = dict(workload=workload, seed=seed, sizes=sizes, **built)
    inputs["events"] = sum(unit[2] for unit in inputs["units"])
    inputs["final_graph"] = [graph.vertex_count, graph.edge_count]
    return inputs


def digest(inputs: dict) -> str:
    """sha256 over the canonical JSON form of *inputs*."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pin_key(workload: str, seed: int, seconds: float, smoke: bool) -> str | None:
    """Key of the pinned digest for this configuration, if it has one."""
    if seed != DEFAULT_SEED:
        return None
    return f"{workload}:smoke" if smoke else f"{workload}:{seconds:g}s"


def check_digest(inputs: dict, key: str | None) -> str:
    """Return the digest; raise if a pinned digest exists and differs."""
    found = digest(inputs)
    if key is not None and DIGESTS_FILE.exists():
        pinned = json.loads(DIGESTS_FILE.read_text()).get(key)
        if pinned is not None and pinned != found:
            raise ValueError(
                f"input digest mismatch for {key}: pinned {pinned[:16]}…, "
                f"generated {found[:16]}… — parent and change would not be "
                "fed identical inputs"
            )
    return found
