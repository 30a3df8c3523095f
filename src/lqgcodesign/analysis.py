"""Near-optimality certificates for the greedy selections.

The guarantees hinge on the supermodularity ratio of the sensing
objective: the worst-case ratio between the objective drop a sensor gives
on a small set and the drop it gives on a larger one.  A ratio of 1 is
classic supermodularity; anything positive still yields multiplicative
guarantees.

Provided here:

* the exact ratio by enumeration over nested set pairs (exponential, so
  capped by ground-set size), with the witnessing triple;
* a spectral lower bound on the ratio computable from two covariance
  propagations, valid under three explicitly flagged hypotheses;
* certificate evaluation for both problems: the budget guarantee compares
  the achieved cost reduction against ``max(gamma/2 (1 - e^-gamma),
  1 - e^{-gamma c/b})``, and the cost-capped guarantee bounds the greedy
  set's cost by a multiple of the cheapest feasible cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import symmetrize
from .kalman import ObjectiveCache
from .model import Scenario
from .riccati import RiccatiSolution
from .selection import SelectionReport

_ZERO = 1e-12
_PASS_TOL = 1e-9
_PD_TOL = 1e-9
RATIO_CAP = 8


@dataclass(frozen=True)
class RatioWitness:
    """Nested pair and sensor attaining the minimum marginal-gain ratio."""

    subset: tuple[int, ...]
    superset: tuple[int, ...]
    sensor: int
    subset_gain: float
    superset_gain: float
    ratio: float


@dataclass(frozen=True)
class BoundHypotheses:
    """Applicability flags of the spectral ratio bound."""

    theta_sum_pd: bool
    normalized_sensors: bool
    trace_dominated: bool

    @property
    def applicable(self) -> bool:
        return self.theta_sum_pd and self.normalized_sensors and self.trace_dominated


@dataclass(frozen=True)
class RatioReport:
    """Exact ratio (when enumerable), spectral bound, and its hypotheses."""

    exact: float | None
    witness: RatioWitness | None
    lower_bound: float | None
    hypotheses: BoundHypotheses | None


@dataclass(frozen=True)
class CertificateRecord:
    """Evaluated guarantee for one selection report.

    ``passed`` is None when the certificate is undefined for the instance
    (no optimum supplied, or a zero ratio in the cost-capped case); that is
    reported, not treated as a failure.
    """

    kind: str
    gamma: float
    lhs: float | None
    rhs: float | None
    passed: bool | None
    cap_satisfied: bool | None = None
    note: str | None = None


def exact_supermodularity_ratio(
    scenario: Scenario, sol: RiccatiSolution,
    cache: ObjectiveCache | None = None, max_sensors: int = RATIO_CAP,
) -> tuple[float, RatioWitness | None]:
    """Minimum marginal-gain ratio over all nested pairs, with its witness.

    Enumerates every subset pair A within B and outside sensor x; both
    gains vanishing (below 1e-12) contributes nothing, a vanishing
    denominator alone can never be the minimum, and a vanishing numerator
    alone pins the ratio at 0.  The result is clamped to [0, 1].  With no
    informative triple at all the objective is vacuously supermodular and
    the ratio is 1.
    """
    count = len(scenario.suite)
    if count > max_sensors:
        raise ValueError(
            f"exact ratio over {count} sensors exceeds the enumeration cap "
            f"{max_sensors}; raise max_sensors explicitly to override"
        )
    cache = cache or ObjectiveCache(scenario, sol)
    values = cache.f_many(tuple(i for i in range(count) if mask >> i & 1)
                          for mask in range(1 << count))
    best_ratio = None
    best_witness = None
    for bmask in range(1 << count):
        for x in range(count):
            bit = 1 << x
            if bmask & bit:
                continue
            den = values[bmask] - values[bmask | bit]
            sub = bmask
            while True:
                num = values[sub] - values[sub | bit]
                ratio = None
                if num < _ZERO and den < _ZERO:
                    pass
                elif den < _ZERO:
                    pass
                elif num < _ZERO:
                    ratio = 0.0
                else:
                    ratio = num / den
                if ratio is not None and (best_ratio is None or ratio < best_ratio):
                    best_ratio = ratio
                    best_witness = RatioWitness(
                        subset=tuple(i for i in range(count) if sub >> i & 1),
                        superset=tuple(i for i in range(count) if bmask >> i & 1),
                        sensor=x,
                        subset_gain=num,
                        superset_gain=den,
                        ratio=ratio,
                    )
                if sub == 0:
                    break
                sub = (sub - 1) & bmask
    if best_ratio is None:
        return 1.0, None
    return min(max(best_ratio, 0.0), 1.0), best_witness


def ratio_lower_bound(
    scenario: Scenario, sol: RiccatiSolution, cache: ObjectiveCache | None = None,
) -> tuple[float | None, BoundHypotheses]:
    """Spectral lower bound on the supermodularity ratio.

    Needs only the covariance trajectories of the full and the empty
    selection.  The value is trustworthy only under three hypotheses,
    returned as flags: the summed error weights are positive definite,
    every whitened sensor carries unit total gain (trace of Cbar Cbar' is
    1), and each no-sensing covariance has trace at most the square of its
    largest eigenvalue.
    """
    cache = cache or ObjectiveCache(scenario, sol)
    suite = scenario.suite
    theta_sum = symmetrize(sum(sol.theta[t] for t in range(sol.horizon)))
    theta_eigs = np.linalg.eigvalsh(theta_sum)
    theta_lo, theta_hi = float(theta_eigs[0]), float(theta_eigs[-1])
    flag_theta = theta_lo > _PD_TOL

    flag_norm = True
    for s in suite:
        for m in cache.whitened(s.id):
            if abs(float(np.sum(m * m)) - 1.0) > _PASS_TOL:
                flag_norm = False
                break
        if not flag_norm:
            break

    full = cache.trajectory(suite.ids)
    empty = cache.trajectory(())
    flag_trace = True
    empty_hi = []
    for post in empty.posteriors:
        eigs = np.linalg.eigvalsh(post)
        hi = float(eigs[-1])
        empty_hi.append(hi)
        if float(np.trace(post)) > hi * hi + _PASS_TOL:
            flag_trace = False
    hypotheses = BoundHypotheses(
        theta_sum_pd=flag_theta,
        normalized_sensors=flag_norm,
        trace_dominated=flag_trace,
    )
    if len(suite) == 0 or theta_hi <= 0.0:
        return None, hypotheses

    full_lo = min(float(np.linalg.eigvalsh(post)[0]) for post in full.posteriors)
    empty_peak = max(empty_hi)
    if empty_peak <= 0.0:
        return None, hypotheses

    sensed_lo = math.inf
    sensed_hi = -math.inf
    for s in suite:
        mats = cache.whitened(s.id)
        for t in range(scenario.horizon):
            m = mats[t]
            on_full = symmetrize(m @ full.posteriors[t] @ m.T)
            on_empty = symmetrize(m @ empty.posteriors[t] @ m.T)
            sensed_lo = min(sensed_lo, float(np.linalg.eigvalsh(on_full)[0]))
            sensed_hi = max(sensed_hi, float(np.linalg.eigvalsh(on_empty)[-1]))

    value = (theta_lo / theta_hi)
    value *= (full_lo * full_lo) / (empty_peak * empty_peak)
    value *= (1.0 + sensed_lo) / (2.0 + sensed_hi)
    return min(max(value, 0.0), 1.0), hypotheses


def ratio_report(
    scenario: Scenario, sol: RiccatiSolution,
    cache: ObjectiveCache | None = None, max_sensors: int = RATIO_CAP,
) -> RatioReport:
    """Exact ratio when the ground set is enumerable, plus the spectral bound."""
    cache = cache or ObjectiveCache(scenario, sol)
    if len(scenario.suite) <= max_sensors:
        exact, witness = exact_supermodularity_ratio(scenario, sol, cache, max_sensors)
    else:
        exact, witness = None, None
    bound, hypotheses = ratio_lower_bound(scenario, sol, cache)
    return RatioReport(exact=exact, witness=witness, lower_bound=bound, hypotheses=hypotheses)


def budget_certificate(
    report: SelectionReport, gamma: float, g_empty: float, g_star: float | None = None,
) -> CertificateRecord:
    """Multiplicative near-optimality certificate for a budget selection.

    Compares the achieved share of the best possible cost reduction (left
    side, computable only when the true optimum ``g_star`` is supplied)
    against the ratio-driven guarantee.  A degenerate instance where doing
    nothing is already optimal certifies trivially with a left side of 1.
    """
    if report.budget is None:
        raise ValueError("report carries no budget; certificate applies to budget selections")
    budget = report.budget
    share = report.cost / budget if budget > 0.0 else 1.0
    rhs = max(
        0.5 * gamma * (1.0 - math.exp(-gamma)),
        1.0 - math.exp(-gamma * share),
    )
    lhs = None
    passed = None
    if g_star is not None:
        denom = g_empty - g_star
        lhs = 1.0 if abs(denom) < _ZERO else (g_empty - report.lqg_cost_g) / denom
        passed = lhs >= rhs - _PASS_TOL
    return CertificateRecord(kind="budget", gamma=gamma, lhs=lhs, rhs=rhs, passed=passed)


def mincost_certificate(
    report: SelectionReport, gamma: float, g_empty: float, b_star: float | None = None,
) -> CertificateRecord:
    """Cost-cap feasibility plus the multiplicative cost bound.

    Always checks that the chosen set meets the LQG cap.  Given the
    cheapest feasible cost ``b_star``, additionally bounds the greedy cost
    by the last added sensor's cost plus a logarithmic multiple of
    ``b_star``; a zero ratio leaves that bound undefined, which is reported
    rather than failed.  An empty selection certifies trivially.
    """
    if report.kappa is None:
        raise ValueError("report carries no kappa; certificate applies to cost-capped selections")
    kappa = report.kappa
    cap_ok = report.lqg_cost_g <= kappa + _PASS_TOL
    lhs = report.cost
    if not report.chosen:
        return CertificateRecord(
            kind="mincost", gamma=gamma, lhs=lhs, rhs=None, passed=True,
            cap_satisfied=cap_ok, note="empty selection meets the cap outright",
        )
    if b_star is None:
        return CertificateRecord(
            kind="mincost", gamma=gamma, lhs=lhs, rhs=None, passed=None,
            cap_satisfied=cap_ok, note="no reference optimum supplied",
        )
    if gamma <= 0.0:
        return CertificateRecord(
            kind="mincost", gamma=gamma, lhs=lhs, rhs=None, passed=None,
            cap_satisfied=cap_ok, note="zero supermodularity ratio leaves the bound undefined",
        )
    if not report.iterations or report.prefix_f is None:
        return CertificateRecord(
            kind="mincost", gamma=gamma, lhs=lhs, rhs=None, passed=None,
            cap_satisfied=cap_ok, note="report lacks sweep records for the cost bound",
        )
    last = report.iterations[-1]
    before_last = report.iterations[-2].cumulative_cost if len(report.iterations) > 1 else 0.0
    last_cost = last.cumulative_cost - before_last
    offset = report.lqg_cost_g - report.objective_f
    g_prefix = report.prefix_f + offset
    num = g_empty - kappa
    den = g_prefix - kappa
    if num <= 0.0:
        return CertificateRecord(
            kind="mincost", gamma=gamma, lhs=lhs, rhs=None, passed=None,
            cap_satisfied=cap_ok, note="cap already met with no sensors; bound undefined",
        )
    rhs_log = math.inf if den <= 0.0 else math.log(num / den)
    rhs = last_cost + (rhs_log / gamma) * b_star
    passed = cap_ok and (lhs <= rhs + _PASS_TOL)
    return CertificateRecord(
        kind="mincost", gamma=gamma, lhs=lhs, rhs=rhs, passed=passed,
        cap_satisfied=cap_ok,
    )
