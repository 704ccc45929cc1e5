"""Closed-form predictions for envy statistics in random markets.

Under uniform random preferences, both deferred acceptance and serial
dictatorship leave H_n students unenvied in expectation, where H_n is the
n-th harmonic number; the equivalence with top trading cycles under random
endowments extends the value to TTC. The expected number of students who
envy nobody is (n+1)/2 under serial dictatorship (exact) and approximately
n/H_n under deferred acceptance (asymptotic, from a geometric rank law).

For n = 10,000 the asymptotic top-choice count is n/H_n = 1021.7; informal
round-number statements of "about 1,100" overshoot this by roughly 8%. The
functions here always report n/H_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MECHANISMS = ("da", "rsd", "ttc")


def harmonic(n: int) -> float:
    """H_n = sum of 1/k for k = 1..n: summed in doubles up to n = 2^20, then
    log n + gamma + 1/(2n) - 1/(12n^2), which is within an ulp of the sum there."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n <= 2**20:
        return float(np.add.reduce(1.0 / np.arange(1, n + 1)))
    return math.log(n) + np.euler_gamma + 1 / (2 * n) - 1 / (12 * n * n)


@dataclass(frozen=True)
class Prediction:
    """Expected envy statistics for one mechanism at one market size.

    The exactness flags distinguish finite-n closed forms from asymptotic
    approximations.
    """

    n: int
    mechanism: str
    unenvied_mean: float
    envy_nobody_mean: float
    unenvied_exact: bool
    envy_nobody_exact: bool


def predict(n: int, mechanism: str) -> Prediction:
    """Closed-form expectations for the two degree-zero counts.

    All three mechanisms leave H_n students unenvied in expectation. For
    serial dictatorship and TTC the top-choice count is exactly (n+1)/2;
    for deferred acceptance it is approximately n/H_n.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"mechanism must be one of {MECHANISMS}, got {mechanism!r}")
    h = harmonic(n)
    if mechanism == "da":
        return Prediction(n=n, mechanism=mechanism, unenvied_mean=h, envy_nobody_mean=n / h,
                          unenvied_exact=True, envy_nobody_exact=False)
    # rsd, and ttc by the distributional equivalence under random endowments
    return Prediction(n=n, mechanism=mechanism, unenvied_mean=h, envy_nobody_mean=(n + 1) / 2,
                      unenvied_exact=True, envy_nobody_exact=True)


def geometric_rank_pmf(k: int, n: int) -> float:
    """Approximate probability that a student is matched to her k-th choice
    under deferred acceptance, for large n:

        (1/H_n) * (1 - 1/H_n)^(k-1)

    The mass over k = 1..n sums to 1 - (1 - 1/H_n)^n, strictly below one
    for n >= 2; the truncated tail is left unnormalized on purpose.
    """
    if not 1 <= k <= n:
        raise ValueError(f"rank must be in 1..{n}, got {k}")
    p = 1.0 / harmonic(n)
    return p * (1.0 - p) ** (k - 1)


def rsd_position_unenvied_prob(k: int, n: int) -> float:
    """Probability that the k-th chooser in serial dictatorship is unenvied.

    Position k can only be envied by later choosers; the survival product
    over them telescopes to 1/(n-k+1). Summing over positions recovers H_n.
    """
    if not 1 <= k <= n:
        raise ValueError(f"position must be in 1..{n}, got {k}")
    return 1.0 / (n - k + 1)
