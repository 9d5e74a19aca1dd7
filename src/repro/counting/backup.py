"""Always-correct backup protocols — Appendix C.

The stable variants of `Approximate` and `CountExact` are hybrid protocols:
they run the fast (w.h.p.-correct) protocol and fall back to a slow protocol
that is correct with probability 1 whenever an error is detected.  Appendix C
defines the two backup protocols:

* **Approximate backup (C.1, Lemma 12)** — every agent starts with one token;
  two agents holding the *same* number of tokens merge them (one hands
  everything over), so piles always hold a power of two.  Eventually the pile
  sizes encode the binary representation of ``n``: level ``i`` holds exactly
  one pile iff bit ``i`` of ``n`` is set, the largest pile holds
  ``2^floor(log2 n)`` tokens, and a maximum broadcast spreads
  ``floor(log2 n)`` to everyone.  Stabilises in ``O(n^2 log^2 n)``
  interactions w.h.p. and uses ``O(log^2 n)`` states.
* **Exact backup (C.2, Lemma 13)** — every agent starts with one *counted*
  token; two agents that are both still "uncounted" merge their counts (one
  of them becomes counted), so eventually a single uncounted agent holds the
  exact total ``n``, which a maximum broadcast spreads.  Stabilises in
  ``O(n^2 log n)`` interactions w.h.p.

Both are exposed as component updates (with an *instance tag* so the hybrid
protocols can restart a fresh copy after an error without mixing tokens from
the aborted run) and as standalone protocols for experiment E11.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from ..engine.protocol import Protocol

__all__ = [
    "ApproximateBackupState",
    "approximate_backup_update",
    "ApproximateBackupProtocol",
    "ExactBackupState",
    "exact_backup_update",
    "ExactBackupProtocol",
]


# --------------------------------------------------------------------------
# Appendix C.1 — backup for approximate counting
# --------------------------------------------------------------------------


@dataclass(slots=True)
class ApproximateBackupState:
    """Per-agent state of the approximate-counting backup protocol.

    Attributes:
        k: ``log2`` of the number of tokens held (``-1`` = no tokens).
        k_max: Largest pile logarithm observed anywhere (maximum broadcast);
            the output of the protocol.
        instance: Incarnation tag.  The hybrid protocols restart the backup
            after an error; merges only happen between agents running the
            same incarnation so tokens from an aborted run are never mixed
            into the fresh one.
    """

    k: int = 0
    k_max: int = 0
    instance: int = 0

    def key(self) -> Hashable:
        return (self.k, self.k_max, self.instance)

    def restart(self) -> None:
        """Start a fresh incarnation with a single token (used after errors)."""
        self.k = 0
        self.k_max = 0
        self.instance += 1


def approximate_backup_update(u: ApproximateBackupState, v: ApproximateBackupState) -> None:
    """Apply one interaction of the approximate backup protocol (Equation (3)).

    If both agents hold the same (positive) number of tokens the initiator
    takes all of them; in every case both agents adopt the maximum pile
    logarithm seen so far.  Agents from different incarnations only exchange
    the broadcast value of the *newer* incarnation.
    """
    if u.instance != v.instance:
        # Different incarnations never merge; the newer incarnation's broadcast
        # value wins so late-restarting agents catch up once they restart.
        return
    if u.k == v.k and u.k >= 0:
        u.k += 1
        v.k = -1
    new_max = max(u.k_max, v.k_max, u.k, v.k)
    u.k_max = new_max
    v.k_max = new_max


class ApproximateBackupProtocol(Protocol[ApproximateBackupState]):
    """Standalone approximate backup protocol (Appendix C.1, Lemma 12).

    The output of an agent is ``k_max``, which stabilises to
    ``floor(log2 n)``.  The final configuration also encodes the binary
    representation of ``n`` in the multiset of ``k`` values, which the test
    suite checks explicitly.
    """

    name = "backup-approximate"
    pure_key_transitions = True

    def initial_state(self, agent_id: int) -> ApproximateBackupState:
        return ApproximateBackupState()

    def transition(
        self,
        initiator: ApproximateBackupState,
        responder: ApproximateBackupState,
        rng: random.Random,
    ) -> None:
        approximate_backup_update(initiator, responder)

    def output(self, state: ApproximateBackupState) -> int:
        return state.k_max

    def can_interaction_change(self, key_a: Hashable, key_b: Hashable) -> bool:
        k_a, kmax_a, inst_a = key_a  # type: ignore[misc]
        k_b, kmax_b, inst_b = key_b  # type: ignore[misc]
        if inst_a != inst_b:
            return False
        if k_a == k_b and k_a >= 0:
            return True
        return max(kmax_a, kmax_b, k_a, k_b) != kmax_a or max(kmax_a, kmax_b, k_a, k_b) != kmax_b

    # ------------------------------------------------- key-level transitions
    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        # Pure-key transcription of :func:`approximate_backup_update`.
        k_a, kmax_a, inst_a = key_a  # type: ignore[misc]
        k_b, kmax_b, inst_b = key_b  # type: ignore[misc]
        if inst_a != inst_b:
            return key_a, key_b
        if k_a == k_b and k_a >= 0:
            k_a += 1
            k_b = -1
        new_max = max(kmax_a, kmax_b, k_a, k_b)
        return (k_a, new_max, inst_a), (k_b, new_max, inst_b)

    def output_key(self, key: Hashable) -> int:
        _k, k_max, _instance = key  # type: ignore[misc]
        return k_max

    def initial_key_counts(self, n: int) -> Counter:
        return Counter({(0, 0, 0): n})


# --------------------------------------------------------------------------
# Appendix C.2 — backup for exact counting
# --------------------------------------------------------------------------


@dataclass(slots=True)
class ExactBackupState:
    """Per-agent state of the exact-counting backup protocol.

    Attributes:
        counted: Whether this agent's token has been absorbed by another agent.
        count: The largest partial count known to this agent; the output.
        instance: Incarnation tag (see :class:`ApproximateBackupState`).
    """

    counted: bool = False
    count: int = 1
    instance: int = 0

    def key(self) -> Hashable:
        return (self.counted, self.count, self.instance)

    def restart(self) -> None:
        """Start a fresh incarnation with a single uncounted token."""
        self.counted = False
        self.count = 1
        self.instance += 1


def exact_backup_update(u: ExactBackupState, v: ExactBackupState) -> None:
    """Apply one interaction of the exact backup protocol (Equation (4)).

    Two uncounted agents merge their counts (the responder becomes counted);
    otherwise every *counted* participant adopts the maximum count seen.
    An uncounted agent's count is its actual token pile — the quantity whose
    sum over uncounted agents is invariantly ``n`` — so only counted agents
    (whose count is pure broadcast state) may adopt larger observed values.
    Merge totals never exceed ``n``, so the unique surviving uncounted agent
    holds the true maximum and the broadcast stabilises to exactly ``n``.
    """
    if u.instance != v.instance:
        return
    if not u.counted and not v.counted:
        total = u.count + v.count
        u.count = total
        v.count = total
        v.counted = True
    else:
        best = max(u.count, v.count)
        if u.counted:
            u.count = best
        if v.counted:
            v.count = best


class ExactBackupProtocol(Protocol[ExactBackupState]):
    """Standalone exact backup protocol (Appendix C.2, Lemma 13).

    The output of an agent is its ``count``, which stabilises to the exact
    population size ``n`` after ``O(n^2 log n)`` interactions w.h.p.
    """

    name = "backup-exact"
    pure_key_transitions = True

    def initial_state(self, agent_id: int) -> ExactBackupState:
        return ExactBackupState()

    def transition(
        self,
        initiator: ExactBackupState,
        responder: ExactBackupState,
        rng: random.Random,
    ) -> None:
        exact_backup_update(initiator, responder)

    def output(self, state: ExactBackupState) -> int:
        return state.count

    def can_interaction_change(self, key_a: Hashable, key_b: Hashable) -> bool:
        counted_a, count_a, inst_a = key_a  # type: ignore[misc]
        counted_b, count_b, inst_b = key_b  # type: ignore[misc]
        if inst_a != inst_b:
            return False
        if not counted_a and not counted_b:
            return True
        # Only counted agents adopt the broadcast maximum.
        return (counted_a and count_b > count_a) or (counted_b and count_a > count_b)

    # ------------------------------------------------- key-level transitions
    def delta_key(
        self, key_a: Hashable, key_b: Hashable, rng: random.Random
    ) -> Tuple[Hashable, Hashable]:
        # Pure-key transcription of :func:`exact_backup_update`.
        counted_a, count_a, inst_a = key_a  # type: ignore[misc]
        counted_b, count_b, inst_b = key_b  # type: ignore[misc]
        if inst_a != inst_b:
            return key_a, key_b
        if not counted_a and not counted_b:
            total = count_a + count_b
            return (False, total, inst_a), (True, total, inst_b)
        best = max(count_a, count_b)
        return (
            (counted_a, best if counted_a else count_a, inst_a),
            (counted_b, best if counted_b else count_b, inst_b),
        )

    def output_key(self, key: Hashable) -> int:
        _counted, count, _instance = key  # type: ignore[misc]
        return count

    def initial_key_counts(self, n: int) -> Counter:
        return Counter({(False, 1, 0): n})
