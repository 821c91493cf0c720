"""Closed-form analysis from the paper (Sections 2.3 and 3.2).

Every formula behind Figures 5-10, with the paper's symbols:

- ``P'`` — probability a requesting node receives a malicious beacon signal
  *and* the replay filters do not remove it:
  ``P' = (1 - p_n)(1 - p_w)(1 - p_l)``.
- ``P_r`` — probability a benign detecting node (with ``m`` detecting IDs)
  detects a given malicious beacon: ``P_r = 1 - (1 - P')^m``.
- ``P_a`` — per requesting node, the probability the base station receives
  an alert about a given malicious beacon:
  ``P_a = (N_b - N_a) P_r / N``.
- ``P_d`` — probability a malicious beacon is revoked, given ``N_c``
  requesting nodes: ``P_d = P[Binomial(N_c, P_a) > tau_alert]``.
- ``P''`` — residual acceptance probability after revocation:
  ``P'' = P' (1 - P_d)``.
- ``N'`` — expected number of affected non-beacon nodes:
  ``N' = P'' N_c (N - N_b) / N``.
- ``N_f`` — worst-case benign beacons revoked (false positives):
  ``N_f = (2 (1 - p_d) N_w + N_a (tau_report + 1)) / (tau_alert + 1)``.
- ``P_o`` — probability a benign beacon's report counter exceeds
  ``tau_report`` (threshold-selection analysis, Figure 10).

The default population matches the reconstructed paper settings: 10% of
sensor nodes are benign beacon nodes (``(N_b - N_a) / N = 0.1``).

Paper section: §2.3 and §3.2 (closed-form analysis, Figures 5-10)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.utils.stats import binomial_pmf, binomial_sf
from repro.utils.validation import (
    check_int_in_range,
    check_probability,
)


@dataclass(frozen=True)
class Population:
    """Network-size parameters shared by the Section 3 analysis.

    Attributes:
        n_total: total sensor nodes ``N``.
        n_beacons: beacon nodes ``N_b`` (benign + malicious).
        n_malicious: compromised beacon nodes ``N_a``.
    """

    n_total: int = 10_000
    n_beacons: int = 1_010
    n_malicious: int = 10

    def __post_init__(self) -> None:
        check_int_in_range(self.n_total, "n_total", 1)
        check_int_in_range(self.n_beacons, "n_beacons", 0, self.n_total)
        check_int_in_range(self.n_malicious, "n_malicious", 0, self.n_beacons)

    @property
    def n_benign_beacons(self) -> int:
        """``N_b - N_a``."""
        return self.n_beacons - self.n_malicious

    @property
    def n_non_beacons(self) -> int:
        """``N - N_b``."""
        return self.n_total - self.n_beacons

    @property
    def benign_beacon_fraction(self) -> float:
        """``(N_b - N_a) / N`` — 0.1 in the paper's figures."""
        return self.n_benign_beacons / self.n_total


#: The paper's default population (10% benign beacons).
PAPER_POPULATION = Population()


# ----------------------------------------------------------------------
# Section 2.3 — the detector
# ----------------------------------------------------------------------
def p_effective(p_n: float, p_w: float, p_l: float) -> float:
    """``P' = (1 - p_n)(1 - p_w)(1 - p_l)``."""
    check_probability(p_n, "p_n")
    check_probability(p_w, "p_w")
    check_probability(p_l, "p_l")
    return (1.0 - p_n) * (1.0 - p_w) * (1.0 - p_l)


def detection_rate_pr(p_prime: float, m: int) -> float:
    """``P_r = 1 - (1 - P')^m`` — Figure 5.

    Args:
        p_prime: the attacker's effective maliciousness ``P'``.
        m: detecting IDs per beacon node.
    """
    check_probability(p_prime, "p_prime")
    check_int_in_range(m, "m", 1)
    return 1.0 - (1.0 - p_prime) ** m


def benign_false_alert_probability(p_d: float, has_wormhole: bool) -> float:
    """P[a benign detector alerts on a benign target] (Section 2.3).

    At most ``1 - p_d`` when a wormhole connects them, 0 otherwise.
    """
    check_probability(p_d, "p_d")
    return (1.0 - p_d) if has_wormhole else 0.0


# ----------------------------------------------------------------------
# Section 3.2 — revocation
# ----------------------------------------------------------------------
def alert_probability(
    p_prime: float, m: int, population: Population = PAPER_POPULATION
) -> float:
    """``P_a = (N_b - N_a) P_r / N`` — per-requesting-node alert probability."""
    p_r = detection_rate_pr(p_prime, m)
    return population.n_benign_beacons * p_r / population.n_total


def revocation_detection_rate(
    p_prime: float,
    m: int,
    tau_alert: int,
    n_c: int,
    population: Population = PAPER_POPULATION,
) -> float:
    """``P_d = P[Binomial(N_c, P_a) > tau_alert]`` — Figures 6 and 7.

    Args:
        p_prime: the attacker's ``P'``.
        m: detecting IDs per beacon.
        tau_alert: revocation threshold (alerts needed exceeds this).
        n_c: requesting nodes contacting the malicious beacon.
    """
    check_int_in_range(tau_alert, "tau_alert", 0)
    check_int_in_range(n_c, "n_c", 0)
    p_a = alert_probability(p_prime, m, population)
    return binomial_sf(tau_alert, n_c, p_a)


def residual_acceptance(
    p_prime: float,
    m: int,
    tau_alert: int,
    n_c: int,
    population: Population = PAPER_POPULATION,
) -> float:
    """``P'' = P' (1 - P_d)`` — acceptance probability after revocation."""
    p_d = revocation_detection_rate(p_prime, m, tau_alert, n_c, population)
    return p_prime * (1.0 - p_d)


def affected_non_beacons(
    p_prime: float,
    m: int,
    tau_alert: int,
    n_c: int,
    population: Population = PAPER_POPULATION,
) -> float:
    """``N' = P'' N_c (N - N_b) / N`` — Figure 8.

    The expected number of non-beacon requesters that accept a malicious
    signal from one malicious beacon after all revocations.
    """
    p_pp = residual_acceptance(p_prime, m, tau_alert, n_c, population)
    return p_pp * n_c * population.n_non_beacons / population.n_total


def worst_case_affected(
    m: int,
    tau_alert: int,
    n_c: int,
    population: Population = PAPER_POPULATION,
    *,
    grid: int = 1000,
) -> Tuple[float, float]:
    """Adversarially chosen ``P'`` maximizing ``N'`` — Figure 9.

    Returns:
        ``(best_p_prime, max_n_affected)``.
    """
    check_int_in_range(grid, "grid", 1)
    best_p = 0.0
    best_n = 0.0
    for i in range(1, grid + 1):
        p = i / grid
        n = affected_non_beacons(p, m, tau_alert, n_c, population)
        if n > best_n:
            best_n = n
            best_p = p
    return best_p, best_n


def false_positives_nf(
    n_wormholes: int,
    p_d: float,
    tau_report: int,
    tau_alert: int,
    population: Population = PAPER_POPULATION,
) -> float:
    """``N_f = (2 (1-p_d) N_w + N_a (tau_report + 1)) / (tau_alert + 1)``.

    Worst-case benign beacons revoked: undetected wormholes generate
    ``2 (1 - p_d) N_w`` cross-benign alerts (either endpoint may report
    the other), colluding malicious beacons spend their full quota, and
    revoking one benign beacon costs ``tau_alert + 1`` accepted alerts.
    """
    check_int_in_range(n_wormholes, "n_wormholes", 0)
    check_probability(p_d, "p_d")
    check_int_in_range(tau_report, "tau_report", 0)
    check_int_in_range(tau_alert, "tau_alert", 0)
    benign_alerts = 2.0 * (1.0 - p_d) * n_wormholes
    collusion_alerts = population.n_malicious * (tau_report + 1)
    return (benign_alerts + collusion_alerts) / (tau_alert + 1)


def report_counter_overflow(
    tau_report: int,
    *,
    n_c: int,
    m: int,
    p_prime: float,
    tau_alert: int,
    n_wormholes: int,
    p_d: float,
    population: Population = PAPER_POPULATION,
) -> float:
    """``P_o`` — probability a benign beacon's report counter exceeds
    ``tau_report`` (Figure 10).

    A benign beacon u's counter increments once per malicious beacon it
    detects (prob ``P_1`` each) and once per undetected wormhole it sits on
    (prob ``P_2`` each); the overflow probability is the tail of the sum of
    the two binomials.
    """
    check_int_in_range(tau_report, "tau_report", 0)
    check_int_in_range(n_c, "n_c", 0)
    check_int_in_range(n_wormholes, "n_wormholes", 0)
    check_probability(p_d, "p_d")

    p_r = detection_rate_pr(p_prime, m)
    p_detect = revocation_detection_rate(p_prime, m, tau_alert, n_c, population)
    # P_1: u is one of the malicious node's N_c requesters (n_c / N), it
    # reports (P_r), and the target was not already revoked (1 - P_d).
    p1 = min(1.0, p_r * n_c * (1.0 - p_detect) / population.n_total)

    n_f = false_positives_nf(n_wormholes, p_d, tau_report, tau_alert, population)
    n_benign = population.n_benign_beacons
    if n_benign > 0:
        # P_2: u is an endpoint of a given wormhole (2 / (N_b - N_a)), the
        # wormhole goes undetected so u reports (1 - p_d), and the peer is
        # not already revoked ((N_b - N_a - N_f) / (N_b - N_a)).
        p2 = (
            2.0
            * (1.0 - p_d)
            * max(0.0, n_benign - n_f)
            / (n_benign * n_benign)
        )
        p2 = min(1.0, p2)
    else:
        p2 = 0.0

    n_a = population.n_malicious
    # P[X + Y <= tau_report], X ~ Bin(N_a, P1), Y ~ Bin(N_w, P2).
    prob_le = 0.0
    for i in range(tau_report + 1):
        for j in range(i + 1):
            k = i - j
            prob_le += binomial_pmf(j, n_a, p1) * binomial_pmf(k, n_wormholes, p2)
    return max(0.0, 1.0 - prob_le)


def collusion_revocations(
    tau_report: int, tau_alert: int, population: Population = PAPER_POPULATION
) -> float:
    """Benign beacons colluders can revoke: ``N_a (tau'+1) / (tau+1)``."""
    check_int_in_range(tau_report, "tau_report", 0)
    check_int_in_range(tau_alert, "tau_alert", 0)
    return population.n_malicious * (tau_report + 1) / (tau_alert + 1)
