"""Optional NumPy acceleration of the batch backend's pruning regime.

In the pruning regime every event costs one Python-level geometric-skip
draw, one pair-type draw and an ``O(changed * K)``
:meth:`~repro.engine.backends.BatchBackend._update_pair_weights` pass over
the pair table.  Once that table is wide, :class:`FactorisedPairKernel`
removes those Python-level costs; the batch backend engages it by itself
when NumPy is importable and the active pair table grows past
:data:`~repro.engine.backends.KERNEL_MIN_PAIRS` entries.  The core library
stays dependency-free (NumPy is an *extra*), and the environment variable
:data:`NO_NUMPY_ENV` vetoes NumPy detection — the hook the CI matrix uses
to prove the pure-Python path is really exercised.

The kernel never materialises the pair-weight table.  Pair weights
factorise as ``w(a, b) = c_a * c_b`` (``c_a * (c_a - 1)`` on the diagonal)
and the activity predicate ``can_interaction_change`` depends on *keys
only*, so the kernel keeps the count vector ``c``, the boolean activity
matrix ``A``, and the row sums ``s = A @ c``.  A count change updates one
entry of ``c`` and one vectorised column update of ``s`` — O(changed)
Python-level operations per event instead of the O(changed * K) per-pair
dict walk.  The active weight is ``W = c . s - sum(c[diag])`` exactly (all
integer arithmetic), geometric skips are drawn in blocks from
``Geometric(W / T)``, and the active pair is sampled by the two-stage
row/partner scheme with a diagonal rejection — the same law as the Python
path's conditional draw over the materialised table.

Kernel randomness comes from a dedicated ``numpy.random.Generator`` seeded
from the run seed, so accelerated runs are reproducible; they are
*statistically* equivalent to the pure-Python path (same chain law, KS- and
chi-square-tested), not stream-identical.
"""

from __future__ import annotations

import math
import os
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from .errors import ConfigurationError

__all__ = [
    "NO_NUMPY_ENV",
    "AccelCapacityError",
    "numpy_available",
    "require_numpy",
    "FactorisedPairKernel",
]

#: Environment variable vetoing NumPy detection (any value other than ""
#: or "0").  The CI matrix's pure-python leg sets it so the fallback path is
#: provably exercised even on machines where NumPy is installed.
NO_NUMPY_ENV = "REPRO_NO_NUMPY"


def _load_numpy():
    """Import NumPy unless vetoed by :data:`NO_NUMPY_ENV`."""
    if os.environ.get(NO_NUMPY_ENV, "").strip() not in ("", "0"):
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


_np = _load_numpy()


class AccelCapacityError(Exception):
    """A NumPy kernel outgrew its structures; the caller must fall back.

    Raised (not :class:`ConfigurationError`) so the batch backend can catch
    it mid-run, rebuild the pure-Python structures, and continue — a run
    must never die because a protocol turned out wider than expected.
    """


def numpy_available() -> bool:
    """Whether the acceleration layer can run (NumPy importable, not vetoed)."""
    return _np is not None


def require_numpy(context: str):
    """Return the numpy module or raise a :class:`ConfigurationError`."""
    if _np is None:
        if os.environ.get(NO_NUMPY_ENV, "").strip() not in ("", "0"):
            detail = f"NumPy is blocked by {NO_NUMPY_ENV}={os.environ[NO_NUMPY_ENV]!r}"
        else:
            detail = "NumPy is not installed (pip install 'repro-berenbrink-kr19[accel]')"
        raise ConfigurationError(f"{context} requires NumPy, but {detail}")
    return _np


class FactorisedPairKernel:
    """Pruning-regime event sampling from factorised pair weights.

    Maintains, over the slot-indexed live key set:

    * ``c`` — the count vector (``int64``);
    * ``A`` — the boolean activity matrix, ``A[a, b] =
      can_interaction_change(key_a, key_b)``.  Activity depends on keys
      only, so ``A`` entries are computed once when a key first appears and
      never touched by count changes;
    * ``s = A @ c`` — the row sums, maintained incrementally: a count
      change ``c_d += delta`` is one column update ``s += delta * A[:, d]``;
    * ``D = sum(c[a] for a with A[a, a])`` — the diagonal correction.

    The exact active weight is then ``W = c . s - D`` (every term integer:
    ``sum_{a != b, active} c_a c_b + sum_{diag active} c_a (c_a - 1)``),
    which drives the ``Geometric(W / T)`` skip draws — blocked, with the
    whole block (skips *and* row choices) invalidated whenever a count
    changes, since both follow the stale weights.

    An event's pair is drawn by the two-stage factorised scheme: row ``a``
    with probability ``c_a s_a / (c . s)``, partner ``b`` with probability
    ``c_b A[a, b] / s_a``, accepting same-key proposals with probability
    ``(c_a - 1) / c_a`` and redrawing the whole pair otherwise — the
    accepted law is exactly ``w(a, b) / W`` over active ordered pairs.
    """

    #: Hard bound on the key-set width (live + dead slots after
    #: compaction): the K x K activity matrix at this size costs ~16 MB;
    #: wider protocols fall back to the Python path.
    MATRIX_LIMIT = 4096

    #: Compact (rebuild dropping dead slots) when over half the slots are
    #: dead and the table is at least this large — long churny runs mint
    #: transient keys, and without compaction every key *ever seen* would
    #: count against :attr:`MATRIX_LIMIT`.
    COMPACT_MIN_SIZE = 64

    MIN_BLOCK = 16
    MAX_BLOCK = 1024

    def __init__(
        self,
        counts: Dict[Hashable, int],
        can_change: Callable[[Hashable, Hashable], bool],
        seed: int,
        block: int = 128,
    ) -> None:
        require_numpy("the factorised pair kernel")
        if block < 1:
            raise ConfigurationError("block size must be positive")
        self._can_change = can_change
        self._generator = _np.random.default_rng(seed)
        self._block = max(self.MIN_BLOCK, min(int(block), self.MAX_BLOCK))
        self._keys: List[Hashable] = []
        self._slots: Dict[Hashable, int] = {}
        capacity = 64
        self._c = _np.zeros(capacity, dtype=_np.int64)
        self._A = _np.zeros((capacity, capacity), dtype=bool)
        self._s = _np.zeros(capacity, dtype=_np.int64)
        self._diag_mass = 0
        self._dead = 0  # slots whose count is 0 (keys no longer live)
        self._active_weight: Optional[int] = None
        # Pending block state: skips, row choices, and the cached row cumsum.
        self._skips = None
        self._skip_cursor = 0
        self._rows = None
        self._row_cursor = 0
        self._row_cum = None
        self._partner_cum: Dict[int, Any] = {}
        self.draws = 0
        self.updates = 0
        self.update_columns = 0  # count-change column updates (O(changed) proof)
        self.blocks = 0
        self.invalidations = 0
        self.rejections = 0
        for key, count in counts.items():
            self.set_count(key, count)

    @property
    def size(self) -> int:
        """Number of slots in use (live and dead keys)."""
        return len(self._keys)

    # --------------------------------------------------------------- updates
    def _grow(self, needed: int) -> None:
        capacity = len(self._c)
        while capacity < needed:
            capacity *= 2
        if capacity == len(self._c):
            return
        c = _np.zeros(capacity, dtype=_np.int64)
        c[: len(self._c)] = self._c
        s = _np.zeros(capacity, dtype=_np.int64)
        s[: len(self._s)] = self._s
        matrix = _np.zeros((capacity, capacity), dtype=bool)
        size = self.size
        matrix[:size, :size] = self._A[:size, :size]
        self._c, self._s, self._A = c, s, matrix

    def ensure_key(self, key: Hashable) -> int:
        """Slot of ``key``, assigning one (and its activity row) when new."""
        slot = self._slots.get(key)
        if slot is not None:
            return slot
        size = self.size
        if size >= self.MATRIX_LIMIT:
            raise AccelCapacityError(
                f"key-set width exceeded the factorised kernel's "
                f"{self.MATRIX_LIMIT}-key activity matrix"
            )
        self._grow(size + 1)
        slot = size
        self._keys.append(key)
        self._slots[key] = slot
        # The slot is born with count 0; set_count revives it immediately
        # in the common case, and compaction reclaims it otherwise.
        self._dead += 1
        can_change = self._can_change
        matrix = self._A
        row_sum = 0
        c = self._c
        for other_slot, other_key in enumerate(self._keys):
            forward = bool(can_change(key, other_key))
            matrix[slot, other_slot] = forward
            if other_slot != slot:
                matrix[other_slot, slot] = bool(can_change(other_key, key))
            if forward:
                row_sum += int(c[other_slot])
        self._s[slot] = row_sum
        # The new key enters with count 0, so no other row sum changes and
        # the diagonal mass is unaffected until set_count raises its count.
        return slot

    def set_count(self, key: Hashable, count: int) -> None:
        """Set one key's multiplicity — O(changed) Python-level work.

        One entry of ``c``, one vectorised column update of ``s``, one
        diagonal-mass adjustment; no per-pair bookkeeping.  Invalidates the
        pending skip/row block (its distribution followed the old weights).
        """
        if count < 0:
            raise ConfigurationError("key counts must be non-negative")
        slot = self.ensure_key(key)
        old = int(self._c[slot])
        delta = count - old
        if delta == 0:
            return
        self.updates += 1
        self.update_columns += 1
        size = self.size
        self._c[slot] = count
        self._s[:size] += delta * self._A[:size, slot]
        if self._A[slot, slot]:
            self._diag_mass += delta
        self._active_weight = None
        self._drop_block()
        if old and not count:
            self._dead += 1
        elif count and not old:
            self._dead -= 1
        if size >= self.COMPACT_MIN_SIZE and self._dead * 2 > size:
            self._compact()

    def _compact(self) -> None:
        """Rebuild over live keys only, reclaiming dead slots.

        Keys whose count returned to 0 keep consuming matrix width until
        compaction; without it a long churny run minting transient keys
        would walk into :attr:`MATRIX_LIMIT` (and a spurious Python
        fallback) with only a handful of *live* keys.  Activity lookups
        are served from the caller's ``can_interaction_change`` cache, so
        the O(live^2) matrix rebuild is dict reads, not protocol calls.
        """
        live = [
            (key, int(self._c[slot]))
            for key, slot in self._slots.items()
            if self._c[slot]
        ]
        capacity = 64
        while capacity < max(len(live), 1):
            capacity *= 2
        self._keys = []
        self._slots = {}
        self._c = _np.zeros(capacity, dtype=_np.int64)
        self._A = _np.zeros((capacity, capacity), dtype=bool)
        self._s = _np.zeros(capacity, dtype=_np.int64)
        self._diag_mass = 0
        self._dead = 0
        self._active_weight = None
        self._drop_block()
        can_change = self._can_change
        for slot, (key, _count) in enumerate(live):
            self._keys.append(key)
            self._slots[key] = slot
            for other_slot in range(slot + 1):
                other_key = self._keys[other_slot]
                self._A[slot, other_slot] = bool(can_change(key, other_key))
                if other_slot != slot:
                    self._A[other_slot, slot] = bool(can_change(other_key, key))
        for key, count in live:
            slot = self._slots[key]
            self._c[slot] = count
            if self._A[slot, slot]:
                self._diag_mass += count
        size = len(live)
        if size:
            self._s[:size] = self._A[:size, :size] @ self._c[:size]

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
            size = self.size
            self._active_weight = int(
                _np.dot(self._c[:size], self._s[:size])
            ) - self._diag_mass
        return self._active_weight

    def pair_weight(self, key_a: Hashable, key_b: Hashable) -> int:
        """Implied weight of one ordered pair (differential-test hook)."""
        slot_a = self._slots.get(key_a)
        slot_b = self._slots.get(key_b)
        if slot_a is None or slot_b is None or not self._A[slot_a, slot_b]:
            return 0
        count_a = int(self._c[slot_a])
        if slot_a == slot_b:
            return count_a * (count_a - 1)
        return count_a * int(self._c[slot_b])

    def pair_weights(self) -> Dict[Tuple[Hashable, Hashable], int]:
        """The implied active-pair weight table (positive entries only)."""
        table: Dict[Tuple[Hashable, Hashable], int] = {}
        for key_a, slot_a in self._slots.items():
            if not self._c[slot_a]:
                continue
            for key_b, slot_b in self._slots.items():
                if not self._c[slot_b]:
                    continue
                weight = self.pair_weight(key_a, key_b)
                if weight > 0:
                    table[(key_a, key_b)] = weight
        return table

    # ----------------------------------------------------------------- draws
    def _drop_block(self) -> None:
        if self._skips is not None and self._skip_cursor < len(self._skips):
            self.invalidations += 1
            if self._skip_cursor * 4 < len(self._skips):
                self._block = max(self.MIN_BLOCK, self._block // 2)
        self._skips = None
        self._skip_cursor = 0
        self._rows = None
        self._row_cursor = 0
        self._row_cum = None
        self._partner_cum.clear()

    def _draw_block(self, ordered_pairs: int) -> None:
        weight = self.active_weight()
        generator = self._generator
        size = self._block
        if weight >= ordered_pairs:
            skips = _np.zeros(size, dtype=_np.int64)
        else:
            # Geometric(p) skips, p = W / T, via the inverse CDF on
            # uniform = 1 - u in (0, 1] — the Python path's formula,
            # vectorised.
            uniforms = 1.0 - generator.random(size)
            log_q = math.log1p(-weight / ordered_pairs)
            skips = (_np.log(uniforms) / log_q).astype(_np.int64)
        self._skips = skips
        self._skip_cursor = 0
        self._rows = None
        self._row_cursor = 0
        self.blocks += 1

    def _ensure_rows(self) -> None:
        if self._rows is not None and self._row_cursor < len(self._rows):
            return
        size = self.size
        if self._row_cum is None:
            proposal = self._c[:size] * self._s[:size]
            self._row_cum = _np.cumsum(proposal)
        cum = self._row_cum
        total = int(cum[-1])
        count = max(len(self._skips) if self._skips is not None else 0, self.MIN_BLOCK)
        targets = self._generator.random(count) * total
        rows = _np.searchsorted(cum, targets, side="right")
        _np.clip(rows, 0, size - 1, out=rows)
        self._rows = rows
        self._row_cursor = 0

    def _next_row(self) -> int:
        self._ensure_rows()
        cursor = self._row_cursor
        self._row_cursor = cursor + 1
        row = int(self._rows[cursor])
        # Float end-corner: walk back over zero-width row intervals.
        cum = self._row_cum
        while row > 0 and cum[row] == cum[row - 1]:
            row -= 1
        return row

    def _draw_partner(self, row: int) -> int:
        cum = self._partner_cum.get(row)
        if cum is None:
            size = self.size
            cum = _np.cumsum(self._c[:size] * self._A[row, :size])
            self._partner_cum[row] = cum
        total = int(cum[-1])
        target = self._generator.random() * total
        partner = int(_np.searchsorted(cum, target, side="right"))
        if partner >= len(cum):
            partner = len(cum) - 1
        while partner > 0 and cum[partner] == cum[partner - 1]:
            partner -= 1
        return partner

    def next_skip(self, ordered_pairs: int) -> int:
        """Number of configuration-preserving interactions before the event."""
        if self._skips is None or self._skip_cursor >= len(self._skips):
            if self._skips is not None:
                self._block = min(self.MAX_BLOCK, self._block * 2)
            self._draw_block(ordered_pairs)
        skip = int(self._skips[self._skip_cursor])
        self._skip_cursor += 1
        return skip

    def next_pair(self) -> Tuple[Hashable, Hashable]:
        """Sample one active ordered pair type from the factorised weights."""
        self.draws += 1
        c = self._c
        generator = self._generator
        while True:
            row = self._next_row()
            partner = self._draw_partner(row)
            if partner != row:
                break
            count = int(c[row])
            if count > 1 and generator.random() * count < count - 1:
                break
            # Rejected diagonal proposal: redraw the whole pair.
            self.rejections += 1
        return self._keys[row], self._keys[partner]

    def stats(self) -> Dict[str, Any]:
        return {
            "kernel": "factorised-pair",
            "block_size": self._block,
            "slots": self.size,
            "dead_slots": self._dead,
            "draws": self.draws,
            "updates": self.updates,
            "update_columns": self.update_columns,
            "blocks": self.blocks,
            "invalidations": self.invalidations,
            "rejections": self.rejections,
        }
