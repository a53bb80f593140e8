"""Property tests: the live forwarder's batch relay equals its per-tuple one.

Source feeds relay tuple by tuple (:meth:`TreeForwarder.forward`, the
tree's per-tuple filter ``needs_tuple``); gateways relay whole inbox
batches (:meth:`TreeForwarder.forward_batch`, the tree's compiled batch
filter ``filter_batch``).  Both must put the same tuples in the same
batches on every child edge and count the same filtered and forwarded
edges, with and without §3.1 transforming.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings, strategies as st

from repro.dissemination.tree import SOURCE, DisseminationTree
from repro.interest.predicates import StreamInterest
from repro.live.channels import LiveChannel
from repro.live.entity_task import TreeForwarder, split_runs
from repro.live.metrics import LiveMetrics, TransportStats
from repro.live.transport import LiveTransport, WorkTracker
from repro.streams.tuples import StreamTuple

STREAMS = ("ticks", "quotes")
ENTITIES = ("a", "b", "c", "d")
# None: the entity reads every attribute (no projection above it)
attribute_needs = st.sampled_from(
    [None, {"price"}, {"volume"}, {"price", "volume"}]
)

interval = st.tuples(
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=40),
).map(lambda lo_width: (float(lo_width[0]), float(sum(lo_width))))


@st.composite
def federations(draw):
    """Two streams' trees over four entities, random interests and
    attribute needs, and a mixed-stream tuple sequence."""
    trees = {}
    for stream_id in STREAMS:
        tree = DisseminationTree(stream_id, max_fanout=4)
        # a and b hang off the source, c and d off a random attached node
        tree.attach("a", SOURCE)
        tree.attach("b", SOURCE)
        for entity in ("c", "d"):
            tree.attach(entity, draw(st.sampled_from(["a", "b", SOURCE])))
        for entity in ENTITIES:
            intervals = draw(st.lists(interval, max_size=2))
            tree.set_interests(
                entity,
                [
                    StreamInterest.on(stream_id, price=bounds)
                    for bounds in intervals
                ],
            )
            tree.set_required_attributes(entity, draw(attribute_needs))
        trees[stream_id] = tree
    count = draw(st.integers(min_value=0, max_value=40))
    tuples = [
        StreamTuple(
            draw(st.sampled_from(STREAMS + ("unplanned",))),
            seq,
            seq * 0.01,
            {
                "price": float(draw(st.integers(0, 140))),
                "volume": float(draw(st.integers(0, 9))),
                "extra": 1.0,
            },
            24.0,
        )
        for seq in range(count)
    ]
    return trees, tuples


def relay(trees, tuples, *, node, batched, transform, batch_size):
    """Relay ``tuples`` from ``node``; return the batches on every child
    channel plus the edge counters."""

    async def main():
        channels = {
            entity: LiveChannel(entity, capacity=10_000)
            for entity in ENTITIES
        }
        tracker = WorkTracker()
        metrics = LiveMetrics()
        forwarder = TreeForwarder(
            node,
            trees,
            channels,
            LiveTransport(stats=TransportStats(), tracker=tracker),
            metrics,
            batch_size=batch_size,
            transform=transform,
        )
        if batched:
            await forwarder.forward_batch(list(tuples))
        else:
            for tup in tuples:
                await forwarder.forward(tup)
        await forwarder.flush()
        sent = {}
        for entity, channel in channels.items():
            sent[entity] = []
            while channel.depth:
                sent[entity].append(await channel.get())
        return sent, metrics.filtered_edges, metrics.forwarded_edges

    return asyncio.run(main())


@settings(max_examples=80, deadline=None)
@given(
    federations(),
    st.sampled_from([SOURCE, "a", "b"]),
    st.booleans(),
    st.integers(min_value=1, max_value=6),
)
def test_forward_batch_equals_forward_per_tuple(
    federation, node, transform, batch_size
):
    trees, tuples = federation
    kwargs = dict(node=node, transform=transform, batch_size=batch_size)
    one_by_one = relay(trees, tuples, batched=False, **kwargs)
    batched = relay(trees, tuples, batched=True, **kwargs)
    assert batched == one_by_one


def test_transform_projects_on_both_paths():
    """The property above is not vacuous for transforming: a child that
    reads only ``price`` receives projected tuples on both paths."""
    tree = DisseminationTree("ticks", max_fanout=2)
    tree.attach("a", SOURCE)
    tree.set_interests("a", [StreamInterest.on("ticks", price=(0.0, 100.0))])
    tree.set_required_attributes("a", {"price"})
    tup = StreamTuple("ticks", 0, 0.0, {"price": 5.0, "volume": 2.0}, 16.0)
    for batched in (False, True):
        sent, filtered, forwarded = relay(
            {"ticks": tree},
            [tup],
            node=SOURCE,
            batched=batched,
            transform=True,
            batch_size=4,
        )
        assert [list(t.values) for t in sent["a"][0]] == [["price"]]
        assert (filtered, forwarded) == (0, 1)


def test_split_runs_keeps_order_and_breaks_on_key_change():
    items = ["a1", "a2", "b1", "a3", "a4", "c1"]
    runs = list(split_runs(items, lambda item: item[0]))
    assert runs == [
        ("a", ["a1", "a2"]),
        ("b", ["b1"]),
        ("a", ["a3", "a4"]),
        ("c", ["c1"]),
    ]
    assert list(split_runs([], lambda item: item)) == []
