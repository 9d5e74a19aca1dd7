"""Native key-level transitions of the counting stack (PR 2 tentpole).

The composed counting protocols historically went through the generic
``LiftedKeyTransitions`` adapter; they now decode states from their
(self-describing) keys.  These tests pin the exactness argument:

* ``delta_key`` agrees with the mutating ``transition`` on every key pair
  visited by a real run (randomness synchronised via twin RNGs);
* ``output_key`` / ``initial_key_counts`` agree with their state-level
  counterparts;
* ``state_from_key`` inverts ``state_key`` on every visited key, and the
  base ``delta_key`` gives the same keys on handed-over live states as on
  decoded ones, leaving the handed states post-interaction;
* ``CountExact``'s one-frame ``state_key`` is the composition of its
  components' ``key()``s and ``clock_key`` on every state a run reaches;
* a decoder plus ``output_key`` is a native key API; a protocol with
  neither is lifted;
* agent and batch backends reach the *exact same terminal histogram* for the
  deterministic backup protocols (their absorbing configuration is unique);
* agent and batch convergence-time distributions are statistically
  compatible for the randomised composed protocols (KS-style check);
* ``copy_state`` deep-copies nested component dataclasses (the regression
  that silently corrupted the lifted adapter's representatives).
"""

import math
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.counting.approximate import ApproximateProtocol
from repro.counting.backup import ApproximateBackupProtocol, ExactBackupProtocol
from repro.counting.count_exact import CountExactProtocol
from repro.counting.keys import PHASE_RESIDUE_MODULUS, clock_key, phase_distance
from repro.counting.search import SearchWithGivenLeader
from repro.counting.stable_approximate import StableApproximateProtocol
from repro.counting.stable_count_exact import StableCountExactProtocol
from repro.engine import Simulator, simulate
from repro.engine.backends import LiftedKeyTransitions
from repro.engine.protocol import Protocol
from repro.engine.rng import make_rng

COUNTING_PROTOCOLS = [
    ApproximateProtocol,
    CountExactProtocol,
    StableApproximateProtocol,
    StableCountExactProtocol,
    SearchWithGivenLeader,
    ApproximateBackupProtocol,
    ExactBackupProtocol,
]


@pytest.mark.parametrize("make_protocol", COUNTING_PROTOCOLS)
def test_counting_protocols_support_key_transitions(make_protocol):
    assert make_protocol().supports_key_transitions()


@pytest.mark.parametrize("make_protocol", COUNTING_PROTOCOLS)
def test_delta_key_matches_transition_along_agent_run(make_protocol):
    # Drive an agent-backend simulation and check at every step that the
    # key-level transition (on twin randomness) lands on the same key pair
    # as the mutating transition.
    protocol = make_protocol()
    n = 12
    simulator = Simulator(protocol, n, seed=17, backend="agent")
    for step in range(600):
        initiator, responder = simulator.scheduler.next_pair(
            n, simulator._scheduler_rng, simulator.interactions
        )
        state_a = simulator.states[initiator]
        state_b = simulator.states[responder]
        keys_before = (protocol.state_key(state_a), protocol.state_key(state_b))
        expected = protocol.delta_key(*keys_before, make_rng(step))
        protocol.transition(state_a, state_b, make_rng(step))
        observed = (protocol.state_key(state_a), protocol.state_key(state_b))
        assert observed == expected, (protocol.name, step, keys_before)


@pytest.mark.parametrize("make_protocol", COUNTING_PROTOCOLS)
def test_output_key_matches_output_on_visited_states(make_protocol):
    # Every state the run visits is compared, after the interaction that
    # produced it.  The run is long enough for `count-exact` to pass
    # through refinement (its first estimate appears near interaction
    # 2,550 at this seed), so Lemma 11's output formula is compared on
    # real loads, and every protocol's output must be numeric somewhere.
    protocol = make_protocol()
    n = 12
    simulator = Simulator(protocol, n, seed=3, backend="agent")
    numeric = 0
    for step in range(8_000):
        for agent in simulator.step():
            state = simulator.states[agent]
            output = protocol.output(state)
            assert protocol.output_key(protocol.state_key(state)) == output, (
                protocol.name, step,
            )
            numeric += output is not None
    assert numeric, protocol.name


@pytest.mark.parametrize("make_protocol", COUNTING_PROTOCOLS)
def test_initial_key_counts_match_per_agent_construction(make_protocol):
    protocol = make_protocol()
    n = 29
    explicit = Counter(
        protocol.state_key(protocol.initial_state(agent_id)) for agent_id in range(n)
    )
    assert protocol.initial_key_counts(n) == explicit


#: The protocols whose key-level API is a ``state_from_key`` decoder under
#: the base ``delta_key`` (the backups override ``delta_key`` instead).
DECODER_PROTOCOLS = [
    ApproximateProtocol,
    CountExactProtocol,
    StableApproximateProtocol,
    StableCountExactProtocol,
    SearchWithGivenLeader,
]


def _agent_run_steps(protocol, n, seed, steps):
    """Yield ``(state_a, state_b)`` of every interaction of an agent run, before it."""
    simulator = Simulator(protocol, n, seed=seed, backend="agent")
    for step in range(steps):
        initiator, responder = simulator.scheduler.next_pair(
            n, simulator._scheduler_rng, simulator.interactions
        )
        state_a = simulator.states[initiator]
        state_b = simulator.states[responder]
        yield step, state_a, state_b
        protocol.transition(state_a, state_b, make_rng(step))


@pytest.mark.parametrize("make_protocol", DECODER_PROTOCOLS)
def test_state_from_key_inverts_state_key_along_agent_run(make_protocol):
    protocol = make_protocol()
    assert type(protocol).delta_key is Protocol.delta_key
    visited = set()
    for _, state_a, state_b in _agent_run_steps(protocol, 12, 23, 600):
        visited.add(protocol.state_key(state_a))
        visited.add(protocol.state_key(state_b))
    assert len(visited) > 20
    for key in visited:
        assert protocol.state_key(protocol.state_from_key(key)) == key, protocol.name


@pytest.mark.parametrize("make_protocol", DECODER_PROTOCOLS)
def test_delta_key_on_handed_states_matches_decoding(make_protocol):
    # Hand over copies of the live agent states (raw phase counters, not
    # the key's residues): the keys must match decoding, and the handed
    # states must become the post-interaction states.
    protocol = make_protocol()
    for step, state_a, state_b in _agent_run_steps(protocol, 12, 31, 600):
        key_a, key_b = protocol.state_key(state_a), protocol.state_key(state_b)
        decoded = protocol.delta_key(key_a, key_b, make_rng(step))
        handed_a, handed_b = protocol.copy_state(state_a), protocol.copy_state(state_b)
        handed = protocol.delta_key(key_a, key_b, make_rng(step), handed_a, handed_b)
        assert handed == decoded, (protocol.name, step)
        assert (protocol.state_key(handed_a), protocol.state_key(handed_b)) == handed
        expected_a, expected_b = protocol.copy_state(state_a), protocol.copy_state(state_b)
        protocol.transition(expected_a, expected_b, make_rng(step))
        assert (handed_a, handed_b) == (expected_a, expected_b)


@pytest.mark.parametrize("seed", range(4))
def test_count_exact_state_key_composes_the_component_keys(seed):
    # Seeded agent runs to the predicate pass through all three stages.
    n = 12
    protocol = CountExactProtocol()
    simulator = Simulator(protocol, n, seed=seed, backend="agent", track_state_space=False)
    backend = simulator.backend
    predicate = protocol.convergence_predicate(n)
    reached = set()
    while not predicate(backend.outputs()):
        assert backend.interactions < 100_000
        for agent in backend.step():
            state = backend.states[agent]
            key = protocol.state_key(state)
            assert key == (
                state.junta.key(),
                clock_key(state.clock),
                state.election.key(),
                state.approximation.key(),
                state.refinement.key(),
            )
            reached.add(key)
    assert any(key[4][0] for key in reached)  # the refinement stage was entered
    assert len(reached) > 300


@dataclass
class _Level:
    value: int


class _MaxBroadcast(Protocol):
    """Agent 0 starts at level 1 and every interaction spreads the maximum."""

    pure_key_transitions = True

    def initial_state(self, agent_id):
        return _Level(1 if agent_id == 0 else 0)

    def transition(self, initiator, responder, rng):
        initiator.value = responder.value = max(initiator.value, responder.value)

    def output(self, state):
        return state.value


class _DecodedMaxBroadcast(_MaxBroadcast):
    """The key-level API as a decoder alone: no ``delta_key``."""

    def state_from_key(self, key):
        return _Level(*key)

    def output_key(self, key):
        return key[0]


def test_a_decoder_and_output_key_are_a_native_key_api():
    protocol = _DecodedMaxBroadcast()
    assert protocol.supports_key_transitions()
    n = 40
    simulator = Simulator(protocol, n, seed=6, backend="batch")
    result = simulator.run(max_interactions=20 * n * n)
    backend = simulator.backend
    assert backend._lifted is None and backend._decode is not None
    assert result.output_counts == Counter({1: n})
    assert backend.terminal


def test_a_protocol_without_key_api_is_lifted():
    protocol = _MaxBroadcast()
    assert not protocol.supports_key_transitions()
    n = 40
    simulator = Simulator(protocol, n, seed=6, backend="batch")
    result = simulator.run(max_interactions=20 * n * n)
    backend = simulator.backend
    assert isinstance(backend._lifted, LiftedKeyTransitions)
    assert backend._decode is None
    assert result.output_counts == Counter({1: n})


def test_relaxed_stable_approximate_declines_native_keys_but_stays_runnable():
    # The relaxed key drops the backup's k_max, which the output function
    # still reads for token-less agents — so the key is lossy w.r.t. the
    # output and the native path must be declined (lifted adapter instead).
    protocol = StableApproximateProtocol(relaxed_output=True)
    assert not protocol.supports_key_transitions()
    result = simulate(protocol, 16, seed=5, backend="batch", max_interactions=4000)
    assert result.extra["backend"] == "batch"
    assert sum(result.output_counts.values()) == 16
    # auto falls back to the faithful per-agent backend in relaxed mode.
    assert Simulator(protocol, 16, backend="auto").backend_name == "agent"


def test_native_keys_agree_with_fixed_lifted_adapter():
    # The lifted adapter (with the deep-copy fix) and the native decoders
    # must produce identical key-level transitions given twin randomness.
    protocol = CountExactProtocol()
    lifted = LiftedKeyTransitions(protocol)
    simulator = Simulator(protocol, 10, seed=2, backend="agent")
    simulator.run(max_interactions=400)
    keys = [lifted.register(state) for state in simulator.states]
    for index, key_a in enumerate(keys):
        key_b = keys[(index + 1) % len(keys)]
        native = protocol.delta_key(key_a, key_b, make_rng(index))
        adapted = lifted.delta_key(key_a, key_b, make_rng(index))
        assert native == adapted


def test_copy_state_deep_copies_nested_components():
    protocol = ApproximateProtocol()
    state = protocol.initial_state(0)
    copy = protocol.copy_state(state)
    assert copy is not state
    assert copy.junta is not state.junta
    assert copy.clock is not state.clock
    copy.junta.level = 7
    assert state.junta.level == 0


def test_phase_distance_is_circular():
    assert phase_distance(0, 1) == 1
    assert phase_distance(39, 0) == 1  # the wrap that abs() would call 39
    assert phase_distance(5, 5) == 0
    assert phase_distance(0, 20) == PHASE_RESIDUE_MODULUS // 2


@pytest.mark.parametrize(
    "make_protocol, n",
    [(ApproximateBackupProtocol, 22), (ExactBackupProtocol, 18)],
)
def test_backup_terminal_histograms_match_exactly(make_protocol, n):
    # The deterministic backup protocols have a *unique* absorbing
    # configuration (Lemmas 12-13: the pile multiset encodes n, resp. a
    # single uncounted agent holds n), so agent and batch runs must end in
    # the exact same state-key histogram even though their trajectories
    # differ.
    batch = Simulator(make_protocol(), n, seed=11, backend="batch")
    result = batch.run(max_interactions=600 * n * n)
    assert result.stopped_reason == "terminal"

    agent = Simulator(make_protocol(), n, seed=99, backend="agent")
    agent.run(max_interactions=600 * n * n)
    assert agent.is_stable_configuration()
    assert agent.state_key_counts() == batch.state_key_counts()

    counts = batch.state_key_counts()
    if make_protocol is ExactBackupProtocol:
        # Lemma 13: a single uncounted agent holds exactly n; everyone
        # broadcasts it.
        assert counts == Counter({(False, n, 0): 1, (True, n, 0): n - 1})
    else:
        # Lemma 12: the pile logarithms encode the binary representation of
        # n and k_max stabilises to floor(log2 n).
        k_max = int(math.floor(math.log2(n)))
        piles = sorted(k for (k, _k_max, _inst), count in counts.items() for _ in range(count) if k >= 0)
        assert sum(1 << k for k in piles) == n
        assert len(set(piles)) == len(piles)  # one pile per set bit
        assert all(key[1] == k_max for key in counts)


from repro.engine.stats import ks_statistic as _ks_statistic  # noqa: E402  (shared statistical harness)


@pytest.mark.stats
@pytest.mark.parametrize(
    "make_protocol, n, samples, budget_factor",
    [
        (StableApproximateProtocol, 32, 20, 400),
        (CountExactProtocol, 16, 20, 600),
    ],
)
def test_agent_batch_convergence_times_compatible(make_protocol, n, samples, budget_factor):
    # The batch backend simulates the same chain marginalised over agent
    # identities, so convergence-time distributions must be statistically
    # indistinguishable (KS-style tolerance; critical value for 20-vs-20 at
    # alpha = 0.01 is ~0.51).
    agent_times = []
    batch_times = []
    for seed in range(samples):
        for backend, times in (("agent", agent_times), ("batch", batch_times)):
            protocol = make_protocol()
            result = simulate(
                protocol,
                n,
                seed=derived_seed(backend, seed),
                backend=backend,
                convergence=protocol.convergence_predicate(n),
                max_interactions=budget_factor * n,
                check_interval=n,
                confirm_checks=2,
            )
            if result.converged:
                times.append(result.convergence_interaction)
    # Most runs must converge for the comparison to mean anything.
    assert len(agent_times) >= samples * 3 // 4, len(agent_times)
    assert len(batch_times) >= samples * 3 // 4, len(batch_times)
    statistic = _ks_statistic(agent_times, batch_times)
    assert statistic < 0.51, (statistic, agent_times, batch_times)


def derived_seed(backend: str, index: int) -> int:
    # Fixed per-backend offsets: str hash() is randomised per process and
    # would make failures irreproducible across pytest invocations.
    return {"agent": 0, "batch": 1_000_000}[backend] + index
