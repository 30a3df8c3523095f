"""Near-optimality certificates for the greedy selections.

The guarantees hinge on the supermodularity ratio of the sensing
objective: the worst-case ratio between the objective drop a sensor gives
on a small set and the drop it gives on a larger one.  A ratio of 1 is
classic supermodularity; anything positive still yields multiplicative
guarantees.

Provided here:

* the exact ratio over all nested set pairs, with the witnessing triple:
  the objective of all 2^n sensor sets (exponential, so capped by
  ground-set size) reduced by one O(n 2^n) subset-minimum transform per
  sensor, so the value table is the whole cost;
* a spectral lower bound on the ratio computable from two covariance
  propagations, valid under three explicitly flagged hypotheses;
* certificate evaluation for both problems: the budget guarantee compares
  the achieved cost reduction against ``max(gamma/2 (1 - e^-gamma),
  1 - e^{-gamma c/b})``, and the cost-capped guarantee bounds the greedy
  set's cost by a multiple of the cheapest feasible cost.

The ratio routines read no constraint, so they take the ``ObjectiveCache``
alone: its scenario, its Riccati solution (theta) and its memo.  ``certify``
reads the constraint off the greedy report it certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import symmetrize
from .kalman import ObjectiveCache, _mask_ids
from .riccati import _theta_sum_spectrum
from .selection import (ORACLE_CAP, SelectionReport, _require_enumerable, oracle_budget,
                        oracle_mincost)

_ZERO = 1e-12
_PASS_TOL = 1e-9
RATIO_CAP = 8


@dataclass(frozen=True)
class RatioWitness:
    """Nested pair and sensor attaining the minimum marginal-gain ratio.

    Its fields are the keys of ``witness`` in the ``ratio`` command's JSON.
    """

    subset: tuple[int, ...]
    superset: tuple[int, ...]
    sensor: int
    subset_gain: float
    superset_gain: float
    ratio: float


@dataclass(frozen=True)
class BoundHypotheses:
    """Applicability flags of the spectral ratio bound.

    Its fields, plus ``applicable``, are the keys of ``hypotheses`` in the
    ``ratio`` command's JSON.
    """

    theta_sum_pd: bool
    normalized_sensors: bool
    trace_dominated: bool

    @property
    def applicable(self) -> bool:
        return self.theta_sum_pd and self.normalized_sensors and self.trace_dominated


@dataclass(frozen=True)
class RatioReport:
    """Exact ratio (when enumerable), spectral bound, and its hypotheses.

    Its fields are the keys of the ``ratio`` command's JSON document.
    """

    exact: float | None
    witness: RatioWitness | None
    lower_bound: float | None
    hypotheses: BoundHypotheses

    @property
    def gamma_bound(self) -> float | None:
        """``lower_bound`` when its hypotheses hold, else None: the bound a certificate may use."""
        return self.lower_bound if self.hypotheses.applicable else None


@dataclass(frozen=True)
class CertificateRecord:
    """Evaluated guarantee for one selection report.

    ``passed`` is None when the certificate is undefined for the instance
    (no optimum supplied, or a zero ratio in the cost-capped case); that is
    reported, not treated as a failure.  Its fields are the keys of
    ``certificate`` in the ``bound`` command's JSON.
    """

    kind: str
    gamma: float
    lhs: float | None
    rhs: float | None
    passed: bool | None
    cap_satisfied: bool | None = None
    note: str | None = None


def exact_supermodularity_ratio(cache: ObjectiveCache,
                                max_sensors: int = RATIO_CAP) -> tuple[float, RatioWitness | None]:
    """Minimum marginal-gain ratio over all nested pairs, with its witness.

    Fetches the objective of all 2^n sensor sets and reduces that table with
    ``_ratio_from_table``: O(n 2^n) vectorized array work per sensor, so
    building the 2^n value table is the whole cost.
    """
    count = _require_enumerable(cache, max_sensors, "exact ratio")
    return _ratio_from_table(cache.f_many(range(1 << count)), count)


def _ratio_from_table(values, count: int) -> tuple[float, RatioWitness | None]:
    """Minimum of (f(A) - f(A|x)) / (f(B) - f(B|x)) over A within B, x outside B.

    ``values[mask]`` is f of the sensor set with bit mask ``mask``.  A gain at
    most 1e-12 times the table's largest magnitude is zero, so scaling f keeps
    the ratio: a pair whose superset gain is zero contributes nothing, and a
    zero subset gain pins the ratio at 0.  The result is clamped to [0, 1];
    with no informative triple at all the objective is vacuously
    supermodular and the ratio is 1.

    For each sensor x the minimum over A within B is a subset-minimum
    (zeta) transform of the clamped subset gains: n - 1 in-place
    ``np.minimum`` passes over the 2^(n-1) sets without x.  Dividing by a
    positive gain is monotone under round-to-nearest, so min(num) / den is
    min(num / den) exactly.  The witness is the first minimizing triple in
    the order superset mask ascending, then x ascending, then subset mask
    descending from the superset, the order of the plain enumeration.
    """
    table = np.asarray(values, dtype=float)
    zero = _ZERO * float(np.abs(table).max())
    best = np.full(1 << count, np.inf)
    best_x = np.zeros(1 << count, dtype=int)
    for x in range(count):
        view = table.reshape(-1, 2, 1 << x)
        # gain[B] = f(B) - f(B|x), indexed by the mask of B with bit x dropped
        gain = view[:, 0, :] - view[:, 1, :]
        least = np.where(gain <= zero, 0.0, gain).reshape(-1)
        for j in range(count - 1):
            pairs = least.reshape(-1, 2, 1 << j)
            np.minimum(pairs[:, 1, :], pairs[:, 0, :], out=pairs[:, 1, :])
        # A = B is among the subsets, so an informative ratio is at most 1
        ratio = np.full_like(gain, np.inf)
        np.divide(least.reshape(gain.shape), gain, out=ratio, where=gain > zero)
        slot = best.reshape(-1, 2, 1 << x)[:, 0, :]
        slot_x = best_x.reshape(-1, 2, 1 << x)[:, 0, :]
        better = ratio < slot
        slot[better] = ratio[better]
        slot_x[better] = x
    bmask = int(np.argmin(best))
    low = best[bmask]
    if low == np.inf:
        return 1.0, None
    x = int(best_x[bmask])
    bit = 1 << x
    den = float(table[bmask] - table[bmask | bit])
    sub = bmask
    while True:
        num = float(table[sub] - table[sub | bit])
        ratio = 0.0 if num <= zero else num / den
        if ratio == low:
            break
        sub = (sub - 1) & bmask
    witness = RatioWitness(subset=_mask_ids(sub), superset=_mask_ids(bmask), sensor=x,
                           subset_gain=num, superset_gain=den, ratio=ratio)
    return min(max(float(low), 0.0), 1.0), witness


def ratio_lower_bound(cache: ObjectiveCache) -> tuple[float | None, BoundHypotheses]:
    """Spectral lower bound on the supermodularity ratio.

    Needs only the covariance trajectories of the full and the empty
    selection.  The value is trustworthy only under three hypotheses,
    returned as flags: the summed error weights are positive definite,
    every whitened sensor carries unit total gain (trace of Cbar Cbar' is
    1), and each no-sensing covariance has trace at most the square of its
    largest eigenvalue.
    """
    suite = cache.scenario.suite
    flag_theta, theta_eigs = _theta_sum_spectrum(cache.sol)
    theta_lo, theta_hi = float(theta_eigs[0]), float(theta_eigs[-1])

    flag_norm = not any(
        (np.abs(np.sum(cache.whitened(s.id) ** 2, axis=(1, 2)) - 1.0) > _PASS_TOL).any()
        for s in suite
    )

    full = cache.trajectory(suite.ids)
    empty = cache.trajectory(())
    empty_hi = np.linalg.eigvalsh(empty.posteriors)[:, -1]
    empty_trace = np.trace(empty.posteriors, axis1=1, axis2=2)
    hypotheses = BoundHypotheses(
        theta_sum_pd=flag_theta,
        normalized_sensors=flag_norm,
        trace_dominated=not (empty_trace > empty_hi * empty_hi + _PASS_TOL).any(),
    )
    if len(suite) == 0 or theta_hi <= 0.0:
        return None, hypotheses

    full_lo = float(np.linalg.eigvalsh(full.posteriors)[:, 0].min())
    empty_peak = float(empty_hi.max())
    if empty_peak <= 0.0:
        return None, hypotheses

    # each sensor's whitened information seen through the full and the empty
    # posteriors, one (T, p, p) stack per sensor
    sensed_lo = math.inf
    sensed_hi = -math.inf
    for s in suite:
        m = cache.whitened(s.id)
        mt = np.swapaxes(m, -1, -2)
        on_full = np.linalg.eigvalsh(symmetrize(m @ full.posteriors @ mt))
        on_empty = np.linalg.eigvalsh(symmetrize(m @ empty.posteriors @ mt))
        sensed_lo = min(sensed_lo, float(on_full[:, 0].min()))
        sensed_hi = max(sensed_hi, float(on_empty[:, -1].max()))

    value = (theta_lo / theta_hi)
    value *= (full_lo * full_lo) / (empty_peak * empty_peak)
    value *= (1.0 + sensed_lo) / (2.0 + sensed_hi)
    return min(max(value, 0.0), 1.0), hypotheses


def ratio_report(cache: ObjectiveCache, max_sensors: int = RATIO_CAP) -> RatioReport:
    """Exact ratio when the ground set is enumerable, plus the spectral bound.

    ``exact`` and ``witness`` are None above ``max_sensors``, and
    ``lower_bound`` holds only when ``hypotheses.applicable``; ``certify``
    picks the ratio a certificate uses.
    """
    if len(cache.scenario.suite) <= max_sensors:
        exact, witness = exact_supermodularity_ratio(cache, max_sensors)
    else:
        exact, witness = None, None
    bound, hypotheses = ratio_lower_bound(cache)
    return RatioReport(exact=exact, witness=witness, lower_bound=bound, hypotheses=hypotheses)


def budget_certificate(
    report: SelectionReport, gamma: float, f_empty: float, f_star: float | None = None,
) -> CertificateRecord:
    """Multiplicative near-optimality certificate for a budget selection.

    Compares the achieved share of the best possible reduction of f (left
    side, computable only when the optimum's ``f_star`` is supplied; formed
    from f, not g, so the cost offset cancels no digits) against the
    ratio-driven guarantee.  A degenerate instance where doing nothing is
    already optimal certifies trivially with a left side of 1.
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
    if f_star is not None:
        denom = f_empty - f_star
        lhs = 1.0 if abs(denom) < _ZERO else (f_empty - report.objective_f) / denom
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

    def without_bound(note: str, passed: bool | None = None) -> CertificateRecord:
        return CertificateRecord(kind="mincost", gamma=gamma, lhs=lhs, rhs=None,
                                 passed=passed, cap_satisfied=cap_ok, note=note)

    if not report.chosen:
        return without_bound("empty selection meets the cap outright", passed=True)
    if b_star is None:
        return without_bound("no reference optimum supplied")
    if gamma <= 0.0:
        return without_bound("zero supermodularity ratio leaves the bound undefined")
    if not report.iterations or report.prefix_f is None:
        return without_bound("report lacks sweep records for the cost bound")
    last = report.iterations[-1]
    before_last = report.iterations[-2].cumulative_cost if len(report.iterations) > 1 else 0.0
    last_cost = last.cumulative_cost - before_last
    offset = report.lqg_cost_g - report.objective_f
    g_prefix = report.prefix_f + offset
    num = g_empty - kappa
    den = g_prefix - kappa
    if num <= 0.0:
        return without_bound("cap already met with no sensors; bound undefined")
    rhs_log = math.inf if den <= 0.0 else math.log(num / den)
    rhs = last_cost + (rhs_log / gamma) * b_star
    passed = cap_ok and (lhs <= rhs + _PASS_TOL)
    return CertificateRecord(
        kind="mincost", gamma=gamma, lhs=lhs, rhs=rhs, passed=passed,
        cap_satisfied=cap_ok,
    )


def certify(cache: ObjectiveCache, report: SelectionReport, ratio: RatioReport,
            oracle_cap: int = ORACLE_CAP) -> CertificateRecord | None:
    """The certificate of a greedy ``report`` by the exact ratio, else ``ratio.gamma_bound``.

    None when neither exists.  Only an exact gamma is checked against the
    brute-force optimum under the report's constraint, on a suite within ``oracle_cap``.
    A report with a budget gets ``budget_certificate``, else ``mincost_certificate``.
    """
    gamma = ratio.exact if ratio.exact is not None else ratio.gamma_bound
    if gamma is None:
        return None
    checked = ratio.exact is not None and len(cache.scenario.suite) <= oracle_cap
    if report.budget is not None:
        f_star = oracle_budget(cache, report.budget, oracle_cap).objective_f if checked else None
        return budget_certificate(report, gamma, cache.f(()), f_star)
    b_star = oracle_mincost(cache, report.kappa, oracle_cap).cost if checked else None
    return mincost_certificate(report, gamma, cache.g(()), b_star)
