"""Immutable, array-packed longest-prefix-match table.

The radix trie (:class:`repro.net.radix.RadixTree`) is the right
structure for a table that changes entry by entry; the clustering
engine's table changes rarely (snapshot swaps, live BGP deltas), so it
can be *compiled*: the prefix set is flattened into the disjoint
address intervals it induces (nested prefixes project onto their
most-specific covering entry), and a lookup becomes one binary search
over a flat integer array instead of a pointer-chasing trie walk.

Route churn is applied *in place* with :meth:`PackedLpm.apply_delta`:
a batch of announcements/withdrawals re-derives the interval layout
only inside the affected address windows, preserving every compile
invariant, so the patched table is indistinguishable from a
from-scratch rebuild (:meth:`PackedLpm.verify_patched` enforces this).
Each successful patch bumps an epoch counter that downstream caches
(:class:`~repro.engine.fastpath.MemoizedLookup`, cluster assignments)
use for selective invalidation via the returned :class:`PatchResult`.

Layout — flat sequences, split by what a route delta may move:

* ``_starts`` — ``array('Q')`` of interval start addresses, ascending;
  interval *i* covers ``[_starts[i], _starts[i+1])``.
* ``_owners`` — ``array('q')`` mapping interval *i* to the **handle**
  of its most-specific covering entry, or ``-1`` for uncovered gaps.
* ``_prefixes`` / ``_values`` — each entry's
  :class:`~repro.net.prefix.Prefix` and attached value, by sorted
  **position** (the index lookups return).
* ``_handles`` — once the table has been patched, the
  :class:`_Handles` bookkeeping: position → handle (``order``) and
  handle → position (``position``) lists, plus a prefix → handle index.

A handle names an entry for as long as it lives, while its position
shifts whenever an entry is inserted or withdrawn before it.  Storing
handles in the interval layout is what lets a delta leave every
interval outside its windows alone: only the two entry-order lists are
renumbered.  Lookups translate handles with one list index each.
Withdrawn handles are recycled, so the handle space stays bounded by
the most entries the table ever held at once.  Until its first patch a
table keeps no bookkeeping at all: every handle is its position.

The pickled form (:meth:`PackedLpm.__getstate__`) is the canonical
*positional* layout — owners translated to positions — so checkpoints,
shared-memory publication, and a table that was never patched all see
the same bytes.  Such a layout is adopted with identity handles.  The
whole table is a handful of picklable flat objects, so it ships to
worker processes once and is shared read-only from then on.  Batch
lookups (:meth:`lookup_many`) do one ``bisect`` call — C code — per
address, which is what lets the engine outrun the per-entry trie loop.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SanitizeError
from repro.net.ipv4 import MAX_ADDRESS, mask_bits
from repro.net.prefix import Prefix

if TYPE_CHECKING:
    from repro.bgp.table import MergedPrefixTable
    from repro.net.radix import RadixTree

#: The pickled form: the four flat slots plus the generation counters,
#: in declaration order.
_PackedState = Tuple[
    "array[int]", "array[int]", Tuple[Prefix, ...], Tuple[Any, ...], int, int
]

__all__ = ["PackedLpm", "PatchResult", "merge_windows"]

#: Entry keys for the prefix → handle index: ``network << 6 | length``.
_KEY_SHIFT = 6

#: ``mask_bits`` by prefix length, for the exact-prefix cover probes.
_MASKS = tuple(mask_bits(length) for length in range(33))

#: The tail of every handle → position list.  Stored owners are -1 for
#: an uncovered gap and, in the stride overlay, -2 for an indirect slot;
#: ending the list with ``[-2, -1]`` maps both onto themselves under
#: negative indexing, so translating any stored value is one list index.
_SENTINELS = (-2, -1)


@dataclass(frozen=True)
class PatchResult:
    """Outcome of one :meth:`PackedLpm.apply_delta` batch.

    ``windows`` are the merged, sorted, inclusive address ranges whose
    longest-match answer *may* have changed — the selective-invalidation
    contract for :class:`~repro.engine.fastpath.MemoizedLookup` and
    :meth:`~repro.engine.state.ClusterStore.reassign_clients`: any
    address outside every window resolves to the same prefix as before
    (possibly at a shifted entry index).

    ``remap`` maps every pre-patch entry index to its post-patch index.
    Surviving entries map to their shifted position; withdrawn entries
    map to the final index of their most specific remaining covering
    prefix (their new longest match), or ``-1`` when nothing covers
    them.  ``None`` means no structural change happened (value-only
    updates), so existing indices are still valid as-is.
    """

    epoch: int
    announced: int
    withdrawn: int
    value_updates: int
    noop_withdrawals: int
    windows: Tuple[Tuple[int, int], ...]
    remap: Optional[Tuple[int, ...]]

    @property
    def structural(self) -> bool:
        """True when entry indices shifted (inserts or withdrawals)."""
        return self.remap is not None


def merge_windows(
    spans: Iterable[Tuple[int, int]]
) -> Tuple[Tuple[int, int], ...]:
    """Merge inclusive address ranges into sorted disjoint windows.

    Adjacent ranges coalesce too (``[a, b] + [b+1, c] -> [a, c]``), so
    the result is the minimal window set for a given delta batch.
    """
    merged: List[Tuple[int, int]] = []
    for low, high in sorted(spans):
        if merged and low <= merged[-1][1] + 1:
            if high > merged[-1][1]:
                merged[-1] = (merged[-1][0], high)
        else:
            merged.append((low, high))
    return tuple(merged)


def _index_handles(
    prefixes: Sequence[Prefix], order: Sequence[int]
) -> Dict[int, int]:
    """Map each entry's ``network << 6 | length`` key to its handle."""
    return {
        (prefix.network << _KEY_SHIFT) | prefix.length: handle
        for prefix, handle in zip(prefixes, order)
    }


class _Handles:
    """The entry bookkeeping of a table that has been patched.

    ``prefixes`` / ``values`` are the table's entry lists (the table
    reads the same list objects); ``order`` maps position → handle,
    ``position`` handle → position followed by :data:`_SENTINELS`,
    ``index`` entry key → handle, and ``free`` holds withdrawn handles
    for reuse.  Created with handle = position for every entry.
    """

    __slots__ = ("prefixes", "values", "order", "position", "index", "free")

    def __init__(self, prefixes: Sequence[Prefix], values: Sequence[Any]) -> None:
        self.prefixes: List[Prefix] = list(prefixes)
        self.values: List[Any] = list(values)
        self.order: List[int] = list(range(len(self.prefixes)))
        self.position: List[int] = self.order + list(_SENTINELS)
        self.index: Dict[int, int] = _index_handles(self.prefixes, self.order)
        self.free: List[int] = []

    def consistent(self) -> bool:
        """Do ``position`` and ``index`` still agree with ``order``?"""
        position = self.position
        return all(
            position[handle] == spot for spot, handle in enumerate(self.order)
        ) and self.index == _index_handles(self.prefixes, self.order)


def _cover(handle_of: Dict[int, int], network: int, length: int) -> int:
    """Handle of the most specific entry strictly containing
    ``network/length`` in ``handle_of``, or -1: one exact-prefix probe
    per shorter length, most specific first."""
    for shorter in range(length - 1, -1, -1):
        handle = handle_of.get(
            ((network & _MASKS[shorter]) << _KEY_SHIFT) | shorter
        )
        if handle is not None:
            return handle
    return -1


def _push(starts: Any, owners: Any, address: int, owner: int) -> None:
    """Append the interval ``[address, ...)`` owned by ``owner`` to a
    layout under construction, keeping it canonical: a repeated start
    overwrites the last interval's owner, and no two adjacent intervals
    share an owner."""
    if starts[-1] == address:
        owners[-1] = owner
        if len(owners) >= 2 and owners[-2] == owner:
            starts.pop()
            owners.pop()
    elif owners[-1] != owner:
        starts.append(address)
        owners.append(owner)


class PackedLpm:
    """Read-only LPM table over disjoint address intervals.

    Build with :meth:`from_items`, :meth:`from_radix`, or
    :meth:`from_merged`; the constructor itself takes an already
    deduplicated, ``sort_key``-ordered entry list.
    """

    __slots__ = (
        "_starts", "_owners", "_prefixes", "_values", "_handles", "_epoch",
        "_deltas_applied",
    )

    def __init__(self, entries: Sequence[Tuple[Prefix, Any]]) -> None:
        self._epoch = 0
        self._deltas_applied = 0
        self._prefixes: Sequence[Prefix] = tuple(p for p, _ in entries)
        self._values: Sequence[Any] = tuple(v for _, v in entries)
        self._handles: Optional[_Handles] = None
        starts = array("Q", [0])
        owners = array("q", [-1])
        prefixes = self._prefixes
        stack: List[int] = []
        for index, prefix in enumerate(prefixes):
            while stack and prefixes[stack[-1]].last_address < prefix.network:
                ended = stack.pop()
                _push(
                    starts, owners, prefixes[ended].last_address + 1,
                    stack[-1] if stack else -1,
                )
            _push(starts, owners, prefix.network, index)
            stack.append(index)
        while stack:
            ended = stack.pop()
            boundary = prefixes[ended].last_address + 1
            if boundary <= MAX_ADDRESS:
                _push(starts, owners, boundary, stack[-1] if stack else -1)
        self._starts = starts
        self._owners = owners

    def _patchable(self) -> _Handles:
        """The handle bookkeeping, created by the first patch.  Until
        then every handle equals its position and none is kept: a table
        that is never patched — a batch run, a worker's view — pays
        neither its memory nor a translation per lookup."""
        handles = self._handles
        if handles is None:
            handles = self._handles = _Handles(self._prefixes, self._values)
            self._prefixes = handles.prefixes
            self._values = handles.values
        return handles

    # -- construction ----------------------------------------------------

    @classmethod
    def from_items(cls, items: Iterable[Tuple[Prefix, Any]]) -> "PackedLpm":
        """Compile from ``(prefix, value)`` pairs (later duplicates win,
        matching :meth:`RadixTree.insert` overwrite semantics)."""
        unique = dict(items)
        ordered = sorted(unique.items(), key=lambda kv: kv[0].sort_key())
        return cls(ordered)

    @classmethod
    def from_radix(cls, tree: "RadixTree") -> "PackedLpm":
        """Compile from a :class:`~repro.net.radix.RadixTree`."""
        return cls(tree.export_entries())

    @classmethod
    def from_merged(cls, table: "MergedPrefixTable") -> "PackedLpm":
        """Compile from a :class:`~repro.bgp.table.MergedPrefixTable`.

        Values are the table's :class:`~repro.bgp.table.LookupResult`
        objects, so :meth:`lookup` is a drop-in for
        ``MergedPrefixTable.lookup`` (same return type, same None-on-miss
        contract) — including as the table of a
        :class:`~repro.core.realtime.RealTimeClusterer`.
        """
        return cls(table.export_entries())

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._prefixes)

    def __bool__(self) -> bool:
        return bool(self._prefixes)

    @property
    def num_intervals(self) -> int:
        """Number of disjoint address intervals in the packed layout."""
        return len(self._starts)

    @property
    def num_handles(self) -> int:
        """Entry handles allocated, live or free for reuse: never more
        than the most entries this table has held at once."""
        if self._handles is None:
            return len(self._prefixes)
        return len(self._handles.position) - len(_SENTINELS)

    @property
    def epoch(self) -> int:
        """Generation counter: bumped by every :meth:`apply_delta` that
        changed anything.  Caches keyed on lookup results (memos,
        cluster assignments) compare epochs to detect a table that
        mutated underneath them."""
        return self._epoch

    @property
    def deltas_applied(self) -> int:
        """Total route events (announce/withdraw) applied in place over
        this table's lifetime (noop withdrawals excluded)."""
        return self._deltas_applied

    @property
    def is_view(self) -> bool:
        """True when the interval buffers are borrowed — ``memoryview``
        casts over a shared-memory segment or an mmap'd checkpoint —
        rather than arrays this table owns.  Views serve lookups at full
        speed but refuse in-place patching."""
        return not isinstance(self._starts, array)

    def items(self) -> Iterable[Tuple[Prefix, Any]]:
        """Iterate ``(prefix, value)`` entries in address order."""
        return zip(self._prefixes, self._values)

    def prefix(self, index: int) -> Prefix:
        """The prefix of entry ``index`` (as returned by lookups)."""
        return self._prefixes[index]

    def value(self, index: int) -> Any:
        """The value of entry ``index`` (as returned by lookups)."""
        return self._values[index]

    def digest(self) -> str:
        """Stable fingerprint of the prefix set (checkpoint safety check).

        Two tables compiled from the same prefixes — whatever the source
        structure — share a digest; values are excluded on purpose so a
        re-merged table with identical routes still matches.
        """
        hasher = hashlib.sha256()
        for prefix in self._prefixes:
            hasher.update(prefix.network.to_bytes(4, "big"))
            hasher.update(bytes((prefix.length,)))
        return hasher.hexdigest()

    # -- lookups ---------------------------------------------------------

    def match_index(self, address: int) -> int:
        """Entry index of the longest matching prefix, or -1 on miss."""
        owner = self._owners[bisect_right(self._starts, address) - 1]
        handles = self._handles
        return owner if handles is None else handles.position[owner]

    def longest_match(self, address: int) -> Optional[Tuple[Prefix, Any]]:
        """Router-style lookup with the :class:`RadixTree` contract."""
        index = self.match_index(address)
        if index < 0:
            return None
        return self._prefixes[index], self._values[index]

    def lookup(self, address: int) -> Any:
        """Return the matched entry's value, or None on miss.

        Mirrors ``MergedPrefixTable.lookup`` when compiled via
        :meth:`from_merged`.
        """
        index = self.match_index(address)
        if index < 0:
            return None
        return self._values[index]

    def lookup_many(self, addresses: Iterable[int]) -> List[int]:
        """Batch lookup: entry index per address (-1 on miss).

        The hot path of the engine: everything inside the comprehension
        is a C-level call, so per-address cost is one binary search with
        no Python-object churn (plus, once patched, one C-level handle →
        position pass).
        """
        starts = self._starts
        owners = self._owners
        search = bisect_right
        out = [owners[search(starts, address) - 1] for address in addresses]
        return self._to_positions(out)

    def _to_positions(self, owners: List[int]) -> List[int]:
        """Translate looked-up handles to positions (identity until the
        first patch)."""
        handles = self._handles
        if handles is None:
            return owners
        return list(map(handles.position.__getitem__, owners))

    # -- in-place patching -----------------------------------------------

    def apply_delta(
        self,
        announce: Sequence[Tuple[Prefix, Any]] = (),
        withdraw: Sequence[Prefix] = (),
    ) -> PatchResult:
        """Apply one batch of BGP route deltas *in place*.

        ``announce`` upserts entries (an already-present prefix becomes
        a value update — no structural change); ``withdraw`` removes
        entries (absent prefixes are counted as noops, the idempotent
        re-withdrawals live BGP feeds produce).  A prefix both announced
        and withdrawn in the same batch is a caller error — event
        streams must coalesce to one final operation per prefix first.

        The patch preserves every compile invariant of ``__init__``:
        entries stay ``sort_key``-ordered, and the interval layout is
        re-derived only inside the affected address windows, so the
        patched table is *indistinguishable* from a from-scratch rebuild
        at the new routing state — same entry indices, same intervals,
        same ``digest()``.  :meth:`verify_patched` checks exactly that.

        Cost: the entry lists are spliced and renumbered (O(entries),
        all but the renumbering in C); everything else is proportional
        to the windows — their entries, their intervals, and at most 32
        exact-prefix probes per window edge or withdrawal.

        Returns a :class:`PatchResult` carrying the index remap and the
        affected address windows that downstream caches need for
        selective invalidation.
        """
        if self.is_view:
            raise TypeError(
                "cannot patch a buffer-backed LPM view in place: the "
                "interval arrays are borrowed (shared memory or an "
                "mmap'd checkpoint) — patch the owning table and "
                "republish its segments instead"
            )
        handles = self._patchable()
        handle_of = handles.index
        position = handles.position
        updates: Dict[int, Any] = {}
        inserts: Dict[Prefix, Any] = {}
        for prefix, value in announce:
            handle = handle_of.get((prefix.network << _KEY_SHIFT) | prefix.length)
            if handle is None:
                inserts[prefix] = value
            else:
                updates[handle] = value
        removed: Dict[int, Prefix] = {}
        noop_withdrawals = 0
        for prefix in withdraw:
            handle = handle_of.get((prefix.network << _KEY_SHIFT) | prefix.length)
            if prefix in inserts or handle in updates:
                raise ValueError(
                    f"prefix {prefix.cidr} both announced and withdrawn in "
                    "one delta batch — coalesce the event stream first"
                )
            if handle is None:
                noop_withdrawals += 1
            else:
                removed[handle] = prefix

        # Value updates land in place: indices and intervals are
        # untouched, and memo entries store indices, fetching values
        # through the table on use.
        values = handles.values
        for handle, value in updates.items():
            values[position[handle]] = value
        if not inserts and not removed:
            if updates:
                self._epoch += 1
                self._deltas_applied += len(updates)
            return PatchResult(
                epoch=self._epoch,
                announced=len(updates),
                withdrawn=0,
                value_updates=len(updates),
                noop_withdrawals=noop_withdrawals,
                windows=(),
                remap=None,
            )

        # 1. Splice the entry lists: withdrawals from the highest position
        #    down, then the inserts in sorted order.  An insert reuses a
        #    handle freed by an *earlier* batch; this batch's withdrawn
        #    handles are still needed below to build the remap.
        prefixes = handles.prefixes
        order = handles.order
        old_order = order[:]
        free = handles.free
        gone = sorted((position[handle] for handle in removed), reverse=True)
        first = gone[-1] if gone else len(order)
        for spot in gone:
            del prefixes[spot], values[spot], order[spot]
        for prefix in removed.values():
            del handle_of[(prefix.network << _KEY_SHIFT) | prefix.length]
        insert_items = sorted(inserts.items(), key=lambda kv: kv[0].sort_key())
        for prefix, value in insert_items:
            spot = bisect_left(prefixes, prefix)
            if free:
                handle = free.pop()
            else:
                handle = len(position) - len(_SENTINELS)
                position.insert(handle, spot)
            prefixes.insert(spot, prefix)
            values.insert(spot, value)
            order.insert(spot, handle)
            handle_of[(prefix.network << _KEY_SHIFT) | prefix.length] = handle
            first = min(first, spot)
        for spot in range(first, len(order)):
            position[order[spot]] = spot

        # 2. The remap: survivors map to their new position, withdrawn
        #    entries to their new longest match — the most specific
        #    remaining cover — or -1.  Then their handles are freed.
        for handle, prefix in removed.items():
            cover = _cover(handle_of, prefix.network, prefix.length)
            position[handle] = position[cover]
        remap = tuple(map(position.__getitem__, old_order))
        for handle in removed:
            position[handle] = -1
        free.extend(removed)

        # 3. Re-derive the interval layout inside each window; owners
        #    are handles, so nothing outside the windows moves.
        windows = merge_windows(
            [(prefix.network, prefix.last_address) for prefix, _ in insert_items]
            + [(prefix.network, prefix.last_address) for prefix in removed.values()]
        )
        for low, high in windows:
            self._rederive(handles, low, high)
        self._epoch += 1
        self._deltas_applied += len(updates) + len(insert_items) + len(removed)
        return PatchResult(
            epoch=self._epoch,
            announced=len(updates) + len(insert_items),
            withdrawn=len(removed),
            value_updates=len(updates),
            noop_withdrawals=noop_withdrawals,
            windows=windows,
            remap=remap,
        )

    def _rederive(self, handles: _Handles, low: int, high: int) -> None:
        """Recompile the intervals inside ``[low, high]`` from the entry
        list and splice them into the layout, coalescing at both edges.

        Only entries overlapping the window can own part of it: the
        covers of ``low`` that start before it (probed by exact prefix,
        outermost first) and the entries whose network lies inside it
        (one contiguous run of positions).  The window is compiled with
        the same stack walk as ``__init__``, clipped to the window.
        """
        prefixes = handles.prefixes
        order = handles.order
        handle_of = handles.index
        stack: List[Tuple[int, int]] = []  # (last address, handle)
        # The covers starting before ``low`` can only be ``low``'s own
        # prefixes shorter than its alignment — the shortest length at
        # which ``low`` is a network address, where the loop stops.
        aligned = 0
        while low & _MASKS[aligned] != low:
            handle = handle_of.get(
                ((low & _MASKS[aligned]) << _KEY_SHIFT) | aligned
            )
            if handle is not None:
                stack.append((low | (MAX_ADDRESS >> aligned), handle))
            aligned += 1
        piece_starts = [low]
        piece_owners = [stack[-1][1] if stack else -1]
        for spot in range(
            bisect_left(prefixes, Prefix(low, aligned)),
            bisect_right(prefixes, Prefix(high, 32)),
        ):
            prefix = prefixes[spot]
            network = prefix.network
            while stack and stack[-1][0] < network:
                ended = stack.pop()[0]
                _push(
                    piece_starts, piece_owners, ended + 1,
                    stack[-1][1] if stack else -1,
                )
            _push(piece_starts, piece_owners, network, order[spot])
            stack.append((prefix.last_address, order[spot]))
        while stack and stack[-1][0] < high:
            ended = stack.pop()[0]
            _push(
                piece_starts, piece_owners, ended + 1,
                stack[-1][1] if stack else -1,
            )

        # Splice over the old intervals [left, stop) that meet the
        # window, keeping the parts of the edge intervals outside it.
        starts = self._starts
        owners = self._owners
        left = bisect_right(starts, low) - 1
        right = bisect_right(starts, high) - 1
        new_starts: List[int] = []
        new_owners: List[int] = []
        if starts[left] < low:
            new_starts.append(starts[left])
            new_owners.append(owners[left])
        elif left > 0 and owners[left - 1] == piece_owners[0]:
            left -= 1  # the first piece continues the interval before
            new_starts.append(starts[left])
            new_owners.append(owners[left])
        for start, owner in zip(piece_starts, piece_owners):
            if new_owners and new_owners[-1] == owner:
                continue
            new_starts.append(start)
            new_owners.append(owner)
        stop = right + 1
        if high < MAX_ADDRESS:
            boundary = starts[stop] if stop < len(starts) else MAX_ADDRESS + 1
            if boundary > high + 1:
                if new_owners[-1] != owners[right]:
                    new_starts.append(high + 1)
                    new_owners.append(owners[right])
            elif owners[stop] == new_owners[-1]:
                stop += 1  # the last piece continues into the next
        starts[left:stop] = array("Q", new_starts)
        owners[left:stop] = array("q", new_owners)

    def restore_generation(self, epoch: int, deltas_applied: int) -> None:
        """Adopt another table's generation counters.

        The serve daemon's rebuild fallback compiles a fresh table (so
        its counters restart at zero) to *replace* a long-patched one;
        carrying the old generation forward keeps epoch monotonicity —
        which is what memo safety nets and checkpoints key on.
        """
        self._epoch = epoch
        self._deltas_applied = deltas_applied

    def _positional(self, stored: "array[int]") -> "array[int]":
        """Translate a stored handle buffer (sentinels included) to
        positions, in C; an unpatched table's buffer already is one."""
        handles = self._handles
        if handles is None:
            return stored
        return array("q", map(handles.position.__getitem__, stored))

    def verify_patched(self) -> None:
        """Equivalence gate: the patched layout must be bit-identical to
        a from-scratch compile of the current entry set.

        The comparison runs on the canonical positional form — interval
        owners translated from handles to positions, as
        :meth:`__getstate__` emits them — after checking that the handle
        bookkeeping itself is consistent.  Raises
        :class:`~repro.errors.SanitizeError` on any divergence — an
        incremental patch that drifts from the rebuild it promises to
        equal is silent corruption, never a recoverable condition.
        """
        if self._handles is not None and not self._handles.consistent():
            raise SanitizeError(
                "patched PackedLpm handle bookkeeping is inconsistent: "
                "handle → position no longer inverts position → handle, "
                "or the prefix index points at the wrong handles "
                f"(epoch {self._epoch}, {len(self._prefixes)} entries)"
            )
        rebuilt = PackedLpm(list(zip(self._prefixes, self._values)))
        if (
            rebuilt._starts != self._starts
            or rebuilt._owners != self._positional(self._owners)
        ):
            raise SanitizeError(
                "patched PackedLpm diverged from a from-scratch rebuild: "
                f"{len(self._starts)} intervals in the patched layout vs "
                f"{len(rebuilt._starts)} rebuilt "
                f"(epoch {self._epoch}, {len(self._prefixes)} entries)"
            )
        if rebuilt.digest() != self.digest():
            raise SanitizeError(
                "patched PackedLpm digest diverged from a from-scratch "
                f"rebuild at epoch {self._epoch}"
            )

    # -- pickling --------------------------------------------------------

    def __getstate__(self) -> _PackedState:
        return (
            self._starts, self._positional(self._owners),
            tuple(self._prefixes), tuple(self._values),
            self._epoch, self._deltas_applied,
        )

    def __setstate__(self, state: _PackedState) -> None:
        (
            self._starts, self._owners, prefixes, values,
            self._epoch, self._deltas_applied,
        ) = state
        self._prefixes = prefixes
        self._values = values
        self._handles = None
