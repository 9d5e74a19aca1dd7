"""Distribution-level test statistics (dependency-free).

Correct weighted sampling is the kind of claim that dies silently: a broken
sampler still produces plausible-looking runs, means stay reasonable, and
only the *distribution* drifts.  Following the Herman-protocol analysis
tradition of checking distributions rather than point estimates, this module
provides the two workhorses of the repository's statistical test harness —
the chi-square goodness-of-fit test (does a sampler draw from exactly the
weights it was given?) and the Kolmogorov–Smirnov test, two-sample (do two
execution strategies induce the same convergence-time law?) and one-sample
(does one strategy follow an exactly computed law?) — implemented in pure
Python so the core library stays dependency-free.

P-values are asymptotic (Numerical-Recipes-style regularized incomplete
gamma for chi-square, the Kolmogorov series for KS) and accurate far beyond
what the generous significance thresholds used in the tests require.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Mapping, Sequence, Tuple

from .errors import ConfigurationError

__all__ = [
    "chi_square_statistic",
    "chi_square_pvalue",
    "chi_square_gof",
    "ks_statistic",
    "ks_pvalue",
    "ks_one_sample_statistic",
    "ks_one_sample_pvalue",
    "regularized_gamma_q",
]

_MAX_ITERATIONS = 500
_EPSILON = 3.0e-15


def _lower_gamma_series(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) by series (x < s + 1)."""
    term = 1.0 / s
    total = term
    a = s
    for _ in range(_MAX_ITERATIONS):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * _EPSILON:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _upper_gamma_continued_fraction(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) by continued fraction (x >= s + 1)."""
    tiny = 1.0e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITERATIONS + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPSILON:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def regularized_gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma ``Q(s, x) = Γ(s, x) / Γ(s)``.

    The survival function of the ``Gamma(s, 1)`` law; ``Q(df / 2, x / 2)``
    is the chi-square p-value for statistic ``x`` at ``df`` degrees of
    freedom.
    """
    if s <= 0:
        raise ConfigurationError("gamma shape must be positive")
    if x < 0:
        raise ConfigurationError("gamma argument must be non-negative")
    if x == 0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _lower_gamma_series(s, x)
    return _upper_gamma_continued_fraction(s, x)


def chi_square_statistic(
    observed: Mapping[Hashable, int], expected: Mapping[Hashable, float]
) -> Tuple[float, int]:
    """Pearson chi-square statistic of ``observed`` counts against ``expected``.

    ``expected`` holds *weights* (any positive scale); they are normalised to
    the observed total.  Returns ``(statistic, degrees_of_freedom)`` with
    ``df = len(expected) - 1``.  Observations outside ``expected``'s support
    are impossible draws and raise.
    """
    if not expected:
        raise ConfigurationError("chi-square needs a non-empty expected distribution")
    unsupported = set(observed) - set(expected)
    if unsupported:
        raise ConfigurationError(
            f"observed values outside the expected support: {sorted(map(repr, unsupported))[:5]}"
        )
    total_weight = float(sum(expected.values()))
    if total_weight <= 0:
        raise ConfigurationError("expected weights must sum to a positive value")
    draws = sum(observed.values())
    statistic = 0.0
    for value, weight in expected.items():
        if weight < 0:
            raise ConfigurationError("expected weights must be non-negative")
        mean = draws * weight / total_weight
        count = observed.get(value, 0)
        if mean == 0:
            if count:
                raise ConfigurationError(
                    f"observed {count} draws of zero-probability value {value!r}"
                )
            continue
        statistic += (count - mean) ** 2 / mean
    support = sum(1 for weight in expected.values() if weight > 0)
    return statistic, max(1, support - 1)


def chi_square_pvalue(statistic: float, df: int) -> float:
    """Asymptotic chi-square p-value (survival function at ``statistic``)."""
    if df < 1:
        raise ConfigurationError("chi-square needs at least one degree of freedom")
    return regularized_gamma_q(df / 2.0, statistic / 2.0)


def chi_square_gof(
    observed: Mapping[Hashable, int], expected: Mapping[Hashable, float]
) -> float:
    """One-call goodness of fit: p-value of ``observed`` under ``expected``."""
    statistic, df = chi_square_statistic(observed, expected)
    return chi_square_pvalue(statistic, df)


def ks_statistic(first: Sequence[float], second: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (max empirical-CDF gap).

    The empirical CDFs are compared only *between* distinct values: on a
    tie, both pointers advance past every duplicate of the common value
    before the gap is measured (interaction counts tie often at small
    ``n``, and measuring mid-tie would inflate the statistic — identical
    samples must yield exactly 0).
    """
    if not first or not second:
        raise ConfigurationError("KS needs two non-empty samples")
    xs = sorted(first)
    ys = sorted(second)
    n, m = len(xs), len(ys)
    gap = 0.0
    i = j = 0
    while i < n and j < m:
        x, y = xs[i], ys[j]
        if x <= y:
            while i < n and xs[i] == x:
                i += 1
        if y <= x:
            while j < m and ys[j] == y:
                j += 1
        gap = max(gap, abs(i / n - j / m))
    return gap


def ks_pvalue(statistic: float, n: int, m: int) -> float:
    """Asymptotic two-sample KS p-value (Kolmogorov distribution).

    Uses the effective sample size ``n m / (n + m)`` with the standard
    small-sample correction; accurate enough for the generous thresholds the
    suite uses (sample sizes of a few dozen, alpha around 10^-3).
    """
    if n < 1 or m < 1:
        raise ConfigurationError("KS needs positive sample sizes")
    return _kolmogorov_pvalue(statistic, math.sqrt(n * m / (n + m)))


def ks_one_sample_statistic(
    sample: Sequence[int], cdf: Callable[[int], float]
) -> float:
    """One-sample KS statistic of integer ``sample`` against an exact CDF.

    ``cdf(x)`` is ``P(X <= x)`` of the hypothesised law over integer
    support.  Between two consecutive distinct sample values ``v < w`` the
    empirical CDF is constant and ``cdf`` is non-decreasing, so the largest
    gap there is at ``v`` or at ``w - 1``; below the smallest value the
    empirical CDF is 0 and the gap is largest just below it.
    """
    if not sample:
        raise ConfigurationError("KS needs a non-empty sample")
    values = sorted(sample)
    size = len(values)
    gap = cdf(values[0] - 1)
    index = 0
    while index < size:
        value = values[index]
        while index < size and values[index] == value:
            index += 1
        empirical = index / size
        gap = max(gap, abs(empirical - cdf(value)))
        if index < size:
            gap = max(gap, abs(empirical - cdf(values[index] - 1)))
    return gap


def ks_one_sample_pvalue(statistic: float, n: int) -> float:
    """Asymptotic one-sample KS p-value for a sample of size ``n``.

    The Kolmogorov law is that of a continuous hypothesis; against a
    discrete one the statistic is stochastically smaller, so this p-value
    is conservative (a valid test, with slightly less power).
    """
    if n < 1:
        raise ConfigurationError("KS needs a positive sample size")
    return _kolmogorov_pvalue(statistic, math.sqrt(n))


def _kolmogorov_pvalue(statistic: float, effective: float) -> float:
    """Kolmogorov survival at ``statistic`` for effective sample size ``effective**2``."""
    lam = (effective + 0.12 + 0.11 / effective) * statistic
    if lam <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1.0e-10:
            break
    return max(0.0, min(1.0, 2.0 * total))
