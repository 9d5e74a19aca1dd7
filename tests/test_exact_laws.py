"""Engine paths checked against exact laws, not only against each other.

The one-way epidemic's hitting time has a closed form: with ``k`` agents
informed, an interaction informs one more exactly when its initiator is
uninformed and its responder informed, ``k (n - k)`` of the ``n (n - 1)``
ordered pairs.  The time to inform everyone is therefore the sum of
independent geometrics with rates ``k (n - k) / (n (n - 1))``, ``k = 1 ..
n - 1``, whose CDF the test computes by convolution and compares with the
batch backend's pruning regime by a one-sample KS test.  This checks the
engine (skip law, pair law, histogram upkeep), not the protocol.

``backup-exact`` has no closed form at a useful size, so its batch run is
compared with the agent loop, the reference implementation, by a
two-sample KS test of convergence times.
"""

import random

import pytest

from repro.counting.backup import ExactBackupProtocol
from repro.engine import all_outputs_equal, simulate
from repro.engine.stats import (
    ks_one_sample_pvalue,
    ks_one_sample_statistic,
    ks_pvalue,
    ks_statistic,
)
from repro.primitives.epidemic import OneWayEpidemic

#: Generous significance threshold (see tests/test_samplers.py).
ALPHA = 1e-3


def _epidemic_hitting_cdf(n, horizon):
    """``P(T <= t)`` for ``t < horizon`` of the epidemic's hitting time ``T``.

    ``T`` is the sum of independent ``Geometric(p_k)`` on ``{1, 2, ...}``
    with ``p_k = k (n - k) / (n (n - 1))``.  Each convolution with a
    geometric pmf is evaluated by its recurrence ``new[t] = p old[t - 1] +
    (1 - p) new[t - 1]``; mass past ``horizon`` is dropped.
    """
    pmf = [1.0] + [0.0] * (horizon - 1)
    for k in range(1, n):
        p = k * (n - k) / (n * (n - 1))
        convolved = [0.0] * horizon
        for t in range(1, horizon):
            convolved[t] = p * pmf[t - 1] + (1.0 - p) * convolved[t - 1]
        pmf = convolved
    cdf = []
    total = 0.0
    for mass in pmf:
        total += mass
        cdf.append(total)
    return cdf


def test_one_sample_ks_accepts_the_law_and_rejects_a_shifted_one():
    # The harness itself, on exact geometric draws: the true law passes and
    # a law shifted by one step is rejected decisively.
    p = 0.2
    rng = random.Random(8)
    sample = []
    for _ in range(2_000):
        t = 1
        while rng.random() >= p:
            t += 1
        sample.append(t)

    def cdf(x, shift=0):
        x -= shift
        return 0.0 if x < 1 else 1.0 - (1.0 - p) ** x

    statistic = ks_one_sample_statistic(sample, cdf)
    assert ks_one_sample_pvalue(statistic, len(sample)) > ALPHA
    shifted = ks_one_sample_statistic(sample, lambda x: cdf(x, shift=1))
    assert ks_one_sample_pvalue(shifted, len(sample)) < 1e-12
    assert ks_one_sample_statistic([3, 3], lambda x: float(x >= 3)) == 0.0
    assert ks_one_sample_statistic([3], lambda x: float(x >= 4)) == 1.0


@pytest.mark.stats
def test_epidemic_hitting_time_follows_the_sum_of_geometrics():
    n = 16
    seeds = 1_000
    times = []
    for seed in range(seeds):
        result = simulate(
            OneWayEpidemic(source_count=1),
            n,
            seed=seed,
            backend="batch",
            convergence=all_outputs_equal(1),
            check_interval=1,
            confirm_checks=1,
        )
        assert result.converged, seed
        times.append(result.convergence_interaction)
    cdf = _epidemic_hitting_cdf(n, horizon=4_000)
    assert 1.0 - cdf[-1] < 1e-12
    assert max(times) < len(cdf)
    statistic = ks_one_sample_statistic(times, lambda x: cdf[x] if x >= 0 else 0.0)
    p_value = ks_one_sample_pvalue(statistic, seeds)
    assert p_value > ALPHA, (statistic, p_value)


@pytest.mark.stats
def test_backup_exact_convergence_law_matches_the_agent_loop():
    n = 96
    samples = 200

    def convergence_times(backend, offset):
        times = []
        for seed in range(samples):
            result = simulate(
                ExactBackupProtocol(),
                n,
                seed=offset + seed,
                backend=backend,
                convergence=all_outputs_equal(n),
                check_interval=n,
                confirm_checks=1,
                max_interactions=3_000_000,
            )
            assert result.converged, (backend, seed)
            times.append(result.convergence_interaction)
        return times

    agent_times = convergence_times("agent", 0)
    batch_times = convergence_times("batch", 10_000)
    statistic = ks_statistic(agent_times, batch_times)
    p_value = ks_pvalue(statistic, samples, samples)
    assert p_value > ALPHA, (statistic, p_value)
