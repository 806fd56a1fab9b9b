"""The in-place patch API: patched table ≡ from-scratch rebuild.

The equivalence gate of the serve subsystem, pinned as a hypothesis
property: after *any* sequence of delta batches, every patchable table
kind (packed, stride, and both behind a memo front) must answer
lookups identically to a table rebuilt from scratch at the final
routing state — same indices, same digest, same internals
(:meth:`verify_patched`) — and identically to the independent
``sorted`` oracle from :mod:`repro.net.lpm`.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.fastpath import MemoizedLookup, StrideLpm
from repro.engine.packed import PackedLpm, merge_windows
from repro.engine.state import (
    ClusterStore,
    read_checkpoint_table,
    write_checkpoint,
)
from repro.net.lpm import build_engine
from repro.net.prefix import Prefix

#: Nested prefix pool inside 10/8 — long chains of covers so deltas
#: routinely change the longest match rather than just the match set.
POOL = sorted(
    {
        Prefix((10 << 24) | (((i * 0x9E3779B1) % (1 << (length - 8))) << (32 - length)), length)
        for length in (8, 10, 12, 14, 16, 18, 20, 24, 28, 32)
        for i in range(3)
    },
    key=Prefix.sort_key,
)

#: Probe set: every boundary of every pool prefix, plus neighbours.
PROBES = sorted(
    {
        address
        for prefix in POOL
        for address in (
            prefix.network,
            prefix.last_address,
            max(0, prefix.network - 1),
            min((1 << 32) - 1, prefix.last_address + 1),
        )
    }
)

PATCHABLE_KINDS = ("packed", "stride", "memo-packed", "memo-stride")


def _build(kind, items):
    if kind == "packed":
        return PackedLpm.from_items(items)
    if kind == "stride":
        return StrideLpm.from_items(items)
    inner_cls = PackedLpm if kind == "memo-packed" else StrideLpm
    return MemoizedLookup(inner_cls.from_items(items), maxsize=64)


def _sorted_items(model):
    return sorted(model.items(), key=lambda kv: kv[0].sort_key())


batches_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from(POOL), max_size=6),   # announces
        st.lists(st.sampled_from(POOL), max_size=6),   # withdraws
    ),
    max_size=5,
)


@pytest.mark.parametrize("kind", PATCHABLE_KINDS)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    initial=st.lists(st.sampled_from(POOL), unique=True, max_size=len(POOL)),
    batches=batches_strategy,
)
def test_patched_equals_rebuilt(kind, initial, batches):
    model = {prefix: f"v{i}" for i, prefix in enumerate(initial)}
    table = _build(kind, _sorted_items(model))
    serial = itertools.count(1000)
    effective = 0
    for announce_prefixes, withdraw_prefixes in batches:
        announce = {p: f"n{next(serial)}" for p in announce_prefixes}
        withdraw = [p for p in withdraw_prefixes if p not in announce]
        # Effective = the table changed: an announce always carries a
        # fresh value; a withdraw only counts when the prefix is live.
        # No-op batches (empty, or all-noop withdrawals) keep the epoch.
        if announce or any(p in model for p in withdraw):
            effective += 1
        table.apply_delta(list(announce.items()), withdraw)
        # Exercise the memo between batches so stale entries would show.
        table.lookup_many(PROBES[::7])
        model.update(announce)
        for prefix in withdraw:
            model.pop(prefix, None)

    _assert_matches_rebuild(table, model)
    assert int(table.epoch) == effective
    # The canonical positional state survives every persistence path.
    restored = pickle.loads(pickle.dumps(table))
    _assert_matches_rebuild(restored, model)
    assert int(restored.epoch) == effective
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "patched.ckpt")
        write_checkpoint(
            path, [ClusterStore()], table_digest=table.digest(), table=table
        )
        view = read_checkpoint_table(path)
        assert view is not None and view.is_view
        _assert_matches_rebuild(view, model)
        assert int(view.epoch) == effective
        del view  # release the mapping before the directory goes


def _assert_matches_rebuild(table, model):
    """``table`` answers exactly like a fresh compile of ``model``."""
    rebuilt = PackedLpm.from_items(_sorted_items(model))
    assert table.digest() == rebuilt.digest()
    assert table.lookup_many(PROBES) == rebuilt.lookup_many(PROBES)
    oracle = build_engine("sorted", _sorted_items(model))
    for address in PROBES:
        want = oracle.longest_match(address)
        got = table.longest_match(address)
        assert (got and got[0]) == (want and want[0])
    table.verify_patched()


class TestPatchResultContracts:
    def test_value_only_update_has_no_windows(self):
        prefix = Prefix.from_cidr("10.0.0.0/8")
        table = PackedLpm.from_items([(prefix, "a")])
        result = table.apply_delta([(prefix, "b")], [])
        assert not result.structural
        assert result.remap is None
        assert result.windows == ()
        assert result.value_updates == 1
        assert table.lookup(10 << 24) == "b"

    def test_noop_withdrawal_is_counted_not_structural(self):
        table = PackedLpm.from_items([(Prefix.from_cidr("10.0.0.0/8"), "a")])
        result = table.apply_delta([], [Prefix.from_cidr("11.0.0.0/8")])
        assert result.noop_withdrawals == 1
        assert not result.structural

    def test_conflicting_announce_withdraw_rejected(self):
        prefix = Prefix.from_cidr("10.0.0.0/8")
        table = PackedLpm.from_items([(prefix, "a")])
        with pytest.raises(ValueError):
            table.apply_delta([(prefix, "b")], [prefix])

    def test_windows_cover_structural_changes(self):
        table = PackedLpm.from_items(
            [(Prefix.from_cidr("10.0.0.0/8"), "a")]
        )
        inserted = Prefix.from_cidr("10.1.0.0/16")
        result = table.apply_delta([(inserted, "b")], [])
        assert result.structural
        low, high = result.windows[0]
        assert low <= inserted.network and high >= inserted.last_address

    def test_epoch_advances_per_batch(self):
        table = PackedLpm.from_items([(Prefix.from_cidr("10.0.0.0/8"), "a")])
        assert table.epoch == 0
        table.apply_delta([(Prefix.from_cidr("11.0.0.0/8"), "b")], [])
        table.apply_delta([], [Prefix.from_cidr("11.0.0.0/8")])
        assert table.epoch == 2
        assert table.deltas_applied == 2

    def test_merge_windows_coalesces_adjacent(self):
        assert merge_windows([(10, 20), (21, 30), (40, 50), (0, 5)]) == (
            (0, 5),
            (10, 30),
            (40, 50),
        )


class TestMemoInvalidation:
    def test_epoch_mismatch_clears_memo(self):
        prefix = Prefix.from_cidr("10.0.0.0/8")
        inner = PackedLpm.from_items([(prefix, "a")])
        memo = MemoizedLookup(inner, maxsize=16)
        assert memo.lookup_many([10 << 24]) == [0]
        # Patch the inner table *directly*, bypassing the wrapper: the
        # epoch safety net must drop the stale memo entry.
        inner.apply_delta([], [prefix])
        assert memo.lookup_many([10 << 24]) == [-1]

    def test_patch_evicts_only_window_entries(self):
        outside = Prefix.from_cidr("12.0.0.0/8")
        inside = Prefix.from_cidr("10.0.0.0/8")
        memo = MemoizedLookup(
            PackedLpm.from_items(
                [(inside, "a"), (outside, "b")]
            ),
            maxsize=16,
        )
        covered = (10 << 24) | (1 << 16)  # 10.1.0.0 — inside the new /16
        memo.lookup_many([covered, 12 << 24])
        before = memo.evictions
        memo.apply_delta([(Prefix.from_cidr("10.1.0.0/16"), "c")], [])
        # Only the entry inside the patch window is dropped; 12/8's
        # entry survives (remapped) and now the covered address must
        # resolve through the freshly inserted /16.
        assert memo.evictions == before + 1
        assert memo.lookup(covered) == "c"
        assert memo.lookup(12 << 24) == "b"


@pytest.mark.parametrize("kind", ["packed", "stride"])
def test_handle_space_stays_bounded(kind):
    """Withdrawn handles are recycled: however long the churn, a table
    never holds more handles than entries it could have live at once
    (every pool prefix, here), where fresh handles per insert would grow
    without bound."""
    rng = random.Random(7)
    model = {prefix: "v" for prefix in POOL[::2]}
    table = _build(kind, _sorted_items(model))
    for serial in range(400):
        present = sorted(model, key=Prefix.sort_key)
        absent = [prefix for prefix in POOL if prefix not in model]
        withdraw = rng.sample(present, min(len(present), rng.randint(0, 3)))
        announce = {
            prefix: f"n{serial}"
            for prefix in rng.sample(absent, min(len(absent), rng.randint(0, 3)))
        }
        table.apply_delta(list(announce.items()), withdraw)
        for prefix in withdraw:
            del model[prefix]
        model.update(announce)
        assert table.num_handles <= len(POOL)
    assert table.deltas_applied > 400
    _assert_matches_rebuild(table, model)


def _untouched_intervals(starts, owners, windows):
    """The ``(start, end, stored owner)`` intervals that neither meet a
    window nor border one (a bordering interval may coalesce with it)."""
    starts = list(starts)
    ends = [start - 1 for start in starts[1:]] + [(1 << 32) - 1]
    return [
        (start, end, owner)
        for start, end, owner in zip(starts, ends, owners)
        if all(end < low - 1 or start > high + 1 for low, high in windows)
    ]


def test_patch_leaves_everything_outside_its_windows_alone(merged_table):
    """A delta's cost is its window: after a /24 announce and then its
    withdrawal, the stored intervals, interval owners, stride slots and
    slot runs outside ``PatchResult.windows`` are exactly what they were
    before each patch — no whole-table relabelling pass, even though
    every later entry's *position* shifted."""
    table = StrideLpm.from_merged(merged_table)
    present = dict(table.items())
    host, inserted = next(
        (prefix, candidate)
        for prefix in present
        if 8 <= prefix.length <= 16
        for candidate in prefix.subnets(24)
        if candidate not in present
    )
    original_owners = list(table._owners)

    for announce, withdraw in (([(inserted, present[host])], []),
                               ([], [inserted])):
        starts, owners = list(table._starts), list(table._owners)
        slots, runs = list(table._slots), list(table._runs)
        result = table.apply_delta(announce, withdraw)
        windows = result.windows
        assert windows == ((inserted.network, inserted.last_address),)
        # Entry positions did shift: a positional layout would need
        # relabelling everywhere.
        assert result.remap != tuple(range(len(result.remap)))
        untouched = _untouched_intervals(starts, owners, windows)
        assert len(untouched) >= len(starts) - 3
        assert _untouched_intervals(
            table._starts, table._owners, windows
        ) == untouched
        touched = {
            slot
            for low, high in windows
            for slot in range(low >> 16, (high >> 16) + 1)
        }
        for slot in range(1 << 16):
            if slot not in touched:
                assert table._slots[slot] == slots[slot]
                assert table._runs[slot] is runs[slot]
        table.verify_patched()
    # Announce + withdraw is a round trip, down to the stored handles.
    assert list(table._owners) == original_owners
