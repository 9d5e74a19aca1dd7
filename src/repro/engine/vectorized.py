"""The factorised pair kernel: the batch backend's pruning-regime draws.

In the pruning regime every event costs one geometric-skip draw, one draw
of the active ordered pair type and the upkeep of whatever the two draws
read.  :class:`FactorisedPairKernel` serves all three for the whole run:
the batch backend builds it when it is constructed, and it is the regime's
only draw path.

The kernel never materialises the pair-weight table.  Pair weights
factorise as ``w(a, b) = c_a * c_b`` (``c_a * (c_a - 1)`` on the diagonal)
and the activity predicate ``can_interaction_change`` depends on *keys
only*, so the kernel keeps the count vector ``c``, the 0/1 activity matrix
``A``, and the row sums ``s = A c``.  A count change updates one entry of
``c`` and walks one column of ``A`` to update ``s`` — O(changed) column
updates per event instead of a per-pair walk.  The active weight is ``W =
c . s - sum(c[diag])`` exactly (all integer arithmetic), one ``Geometric(W
/ T)`` skip is drawn per event, and the active pair is sampled by the
two-stage row/partner scheme with a diagonal rejection, whose accepted law
is exactly ``w(a, b) / W`` over the active ordered pairs.

Everything is plain Python.  Counts and row sums are lists.  ``A`` is
stored sparsely, twice: each activity row is the ascending ``array('I')``
of the columns active in it, each activity column the ascending
``array('I')`` of the rows active in it, and one flag per slot marks an
active diagonal.  A count change walks only the row sums it updates, and
capacity is bounded by memory, not by a ``K x K`` matrix.  The row draw is
``accumulate`` + ``bisect`` over ``c * s``; the partner draw accumulates
``c`` over the drawn row's active columns and bisects that.  Every applied
event changes a count, so nothing drawn ahead of the next event would
survive it: draws are made one event at a time.  The module keeps its
historical name; the benchmark's tracer imports it by that name.

Every draw takes its uniform from the generator the kernel is handed — the
batch backend's pair stream — so a seeded run has one pruning-regime
generator and is reproducible from the simulation seed.

The batch backend's pruning loop (``BatchBackend._advance_pruning_kernel``)
does not call :meth:`FactorisedPairKernel.next_skip`,
:meth:`~FactorisedPairKernel.next_pair` or
:meth:`~FactorisedPairKernel.set_count` per event: it binds the kernel's
lists as locals and runs the same steps inline, drawing the same uniforms
in the same order.  ``next_skip`` and ``next_pair`` stay as the reference
the kernel's law tests draw from; ``set_count`` also serves population
changes and resyncs.  See :class:`FactorisedPairKernel` for which lists a
loop may hold and when it must rebind them.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from itertools import accumulate, compress
from operator import mul
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from .errors import ConfigurationError

__all__ = ["FactorisedPairKernel"]


class FactorisedPairKernel:
    """Pruning-regime event sampling from factorised pair weights.

    Maintains, over the slot-indexed key set (live keys and dead ones not
    yet compacted away):

    * ``c`` — the count vector;
    * ``A`` — the 0/1 activity matrix, ``A[a][b] =
      can_interaction_change(key_a, key_b)``, kept as rows (the ascending
      ``array('I')`` of the columns ``b`` with ``A[a][b]``), as columns
      (the ascending ``array('I')`` of the rows ``a`` with ``A[a][b]``) and
      as one diagonal flag per slot.  Activity depends on keys only, so
      entries are computed once when a key first appears and never touched
      by count changes;
    * ``s = A c`` — the row sums, maintained incrementally: a count change
      ``c_d += delta`` adds ``delta`` to ``s_a`` for every row ``a`` listed
      in column ``d``;
    * ``D = sum(c[a] for a with A[a][a])`` — the diagonal correction.

    The exact active weight is then ``W = c . s - D`` (every term integer:
    ``sum_{a != b, active} c_a c_b + sum_{diag active} c_a (c_a - 1)``),
    recomputed lazily after a count change together with the cumulative
    row proposals ``c_a s_a`` the next pair draw bisects.

    An event's pair is drawn by the two-stage factorised scheme: row ``a``
    with probability ``c_a s_a / (c . s)``, partner ``b`` with probability
    ``c_b A[a][b] / s_a``, accepting same-key proposals with probability
    ``(c_a - 1) / c_a`` and redrawing the whole pair otherwise — the
    accepted law is exactly ``w(a, b) / W`` over active ordered pairs.

    A loop that runs these steps itself may hold ``_keys``, ``_slots``,
    ``_c``, ``_s``, ``_rows``, ``_cols`` and ``_diag`` as locals:
    :meth:`ensure_key` appends to them in place.  :meth:`_compact` replaces
    every one of them (and recomputes ``_diag_mass``), so such a loop must
    rebind its locals right after a compaction, before it pushes another
    count.  The loop owns ``_diag_mass``, ``_active_weight``, ``_row_cum``
    and the counters while it runs and writes them back when it stops.
    """

    #: Compact (rebuild dropping dead slots) when over half the slots are
    #: dead and the table is at least this large — long churny runs mint
    #: transient keys, and without compaction every key *ever seen* would
    #: keep a slot, its activity lists and a term in every draw.
    COMPACT_MIN_SIZE = 64

    def __init__(
        self,
        counts: Dict[Hashable, int],
        can_change: Callable[[Hashable, Hashable], bool],
        rng: random.Random,
    ) -> None:
        self._can_change = can_change
        #: The uniform every skip and pair draw consumes.
        self._random = rng.random
        self._keys: List[Hashable] = []
        self._slots: Dict[Hashable, int] = {}
        self._c: List[int] = []
        self._s: List[int] = []
        #: ``_rows[a]`` lists, ascending, the columns ``b`` with ``A[a][b]``;
        #: ``_cols[b]`` the rows ``a`` with ``A[a][b]``; ``_diag[a] ==
        #: A[a][a]``.
        self._rows: List[array] = []
        self._cols: List[array] = []
        self._diag = bytearray()
        self._diag_mass = 0
        self._dead = 0  # slots whose count is 0 (keys no longer live)
        self._active_weight: Optional[int] = None
        #: Cumulative row proposals ``c_a s_a``; None after a count change.
        self._row_cum: Optional[List[int]] = None
        self.draws = 0
        self.updates = 0
        self.update_columns = 0  # count-change column updates (O(changed) proof)
        self.rejections = 0
        for key, count in counts.items():
            self.set_count(key, count)

    @property
    def size(self) -> int:
        """Number of slots in use (live and dead keys)."""
        return len(self._keys)

    # --------------------------------------------------------------- updates
    def ensure_key(self, key: Hashable) -> int:
        """Slot of ``key``, assigning one (and its activity row) when new.

        A new slot is appended to every list in place.
        """
        slot = self._slots.get(key)
        if slot is not None:
            return slot
        slot = self.size
        self._keys.append(key)
        self._slots[key] = slot
        self._add_activity(key)
        # The new key enters with count 0, so no other row sum changes and
        # the diagonal mass is unaffected until set_count raises its count.
        c = self._c
        c.append(0)
        self._s.append(sum([c[other] for other in self._rows[slot]]))
        # The slot is born dead; set_count revives it immediately in the
        # common case, and compaction reclaims it otherwise.
        self._dead += 1
        # Keep the row proposals as long as the rows the next draw bisects.
        self._active_weight = None
        self._row_cum = None
        return slot

    def _add_activity(self, key: Hashable) -> None:
        """Append the last slot's activity row, column and diagonal flag.

        The new slot is the highest, so appending it to the rows and
        columns it is active in keeps every list ascending.
        """
        can_change = self._can_change
        keys = self._keys
        slot = len(keys) - 1
        row = array("I", [other for other in range(slot) if can_change(key, keys[other])])
        column = array("I", [other for other in range(slot) if can_change(keys[other], key)])
        rows = self._rows
        cols = self._cols
        for other in column:
            rows[other].append(slot)
        for other in row:
            cols[other].append(slot)
        diagonal = can_change(key, key)
        if diagonal:
            row.append(slot)
            column.append(slot)
        self._diag.append(diagonal)
        rows.append(row)
        cols.append(column)

    def set_count(self, key: Hashable, count: int) -> None:
        """Set one key's multiplicity — O(changed) Python-level work.

        One entry of ``c``, one column update of ``s``, one diagonal-mass
        adjustment; no per-pair bookkeeping.  ``W`` and the row proposals
        are recomputed by the next draw.
        """
        if count < 0:
            raise ConfigurationError("key counts must be non-negative")
        slot = self._slots.get(key)
        if slot is None:
            if not count:
                # A key with no slot already counts 0 (it may have been
                # compacted away): a slot would be born dead.
                return
            slot = self.ensure_key(key)
        c = self._c
        old = c[slot]
        delta = count - old
        if not delta:
            return
        self.updates += 1
        self.update_columns += 1
        c[slot] = count
        s = self._s
        for row in self._cols[slot]:
            s[row] += delta
        if self._diag[slot]:
            self._diag_mass += delta
        self._active_weight = None
        self._row_cum = None
        if not count:
            self._dead += 1
        elif not old:
            self._dead -= 1
        size = len(c)
        if size >= self.COMPACT_MIN_SIZE and self._dead * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Rebuild over live keys only, reclaiming dead slots.

        Keys whose count returned to 0 keep a slot until compaction;
        without it a long churny run minting transient keys would grow its
        slot count, and the cost of every row draw, with only a handful of
        *live* keys.  Activity lookups are served from the caller's
        ``can_interaction_change`` cache, so the O(live^2) rebuild is dict
        reads, not protocol calls.  Every list is replaced, not edited.
        """
        live = [(key, count) for key, count in zip(self._keys, self._c) if count]
        self._keys = []
        self._slots = {}
        self._rows = []
        self._cols = []
        self._diag = bytearray()
        for slot, (key, _count) in enumerate(live):
            self._keys.append(key)
            self._slots[key] = slot
            self._add_activity(key)
        c = self._c = [count for _key, count in live]
        self._s = [sum([c[other] for other in row]) for row in self._rows]
        self._diag_mass = sum(compress(c, self._diag))
        self._dead = 0
        self._active_weight = None
        self._row_cum = None

    def resync(self, counts: Dict[Hashable, int]) -> None:
        """Reconcile the kernel with ``counts`` after a wholesale edit."""
        for key in list(self._slots):
            if key not in counts:
                self.set_count(key, 0)
        for key, count in counts.items():
            self.set_count(key, count)

    # ------------------------------------------------------------- weights
    def active_weight(self) -> int:
        """Exact total weight of active ordered pairs (``W = c . s - D``)."""
        if self._active_weight is None:
            cum = self._row_cum = list(accumulate(map(mul, self._c, self._s)))
            self._active_weight = (cum[-1] if cum else 0) - self._diag_mass
        return self._active_weight

    def pair_weight(self, key_a: Hashable, key_b: Hashable) -> int:
        """Implied weight of one ordered pair (differential-test hook)."""
        slot_a = self._slots.get(key_a)
        slot_b = self._slots.get(key_b)
        if slot_a is None or slot_b is None or slot_b not in self._rows[slot_a]:
            return 0
        count_a = self._c[slot_a]
        if slot_a == slot_b:
            return count_a * (count_a - 1)
        return count_a * self._c[slot_b]

    def pair_weights(self) -> Dict[Tuple[Hashable, Hashable], int]:
        """The implied active-pair weight table (positive entries only)."""
        table: Dict[Tuple[Hashable, Hashable], int] = {}
        live = [key for key, count in zip(self._keys, self._c) if count]
        for key_a in live:
            for key_b in live:
                weight = self.pair_weight(key_a, key_b)
                if weight > 0:
                    table[(key_a, key_b)] = weight
        return table

    # ----------------------------------------------------------------- draws
    def next_skip(self, ordered_pairs: int) -> int:
        """Number of configuration-preserving interactions before the event.

        One ``Geometric(W / T)`` draw by the inverse CDF on ``1 - u`` in
        ``(0, 1]``.  Requires ``W > 0``.
        """
        weight = self.active_weight()
        if weight >= ordered_pairs:
            return 0
        return int(math.log(1.0 - self._random()) / math.log1p(-weight / ordered_pairs))

    def next_pair(self) -> Tuple[Hashable, Hashable]:
        """Sample one active ordered pair type from the factorised weights."""
        self.draws += 1
        if self._row_cum is None:
            self.active_weight()
        cum = self._row_cum
        c = self._c
        rows = self._rows
        draw = self._random
        total = cum[-1]
        last = len(cum) - 1
        while True:
            row = bisect_right(cum, draw() * total)
            if row > last:
                row = last
            # Float end-corner: walk back over zero-width intervals.
            while row and cum[row] == cum[row - 1]:
                row -= 1
            # The row's cumulative partner weights over its active columns
            # only: the bisection lands on the same column as one over all
            # slots with inactive ones weighted 0.
            columns = rows[row]
            partner_cum = list(accumulate([c[column] for column in columns]))
            position = bisect_right(partner_cum, draw() * partner_cum[-1])
            end = len(partner_cum) - 1
            if position > end:
                position = end
            while position and partner_cum[position] == partner_cum[position - 1]:
                position -= 1
            partner = columns[position]
            if partner != row:
                break
            count = c[row]
            if count > 1 and draw() * count < count - 1:
                break
            # Rejected diagonal proposal: redraw the whole pair.
            self.rejections += 1
        keys = self._keys
        return keys[row], keys[partner]

    def stats(self) -> Dict[str, Any]:
        return {
            "kernel": "factorised-pair",
            "slots": self.size,
            "dead_slots": self._dead,
            "draws": self.draws,
            "updates": self.updates,
            "update_columns": self.update_columns,
            "rejections": self.rejections,
        }
