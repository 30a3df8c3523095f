"""Backward Riccati recursion for the finite-horizon LQG regulator.

The recursion runs over t = horizon-1 .. 0 with zero terminal weight:

    S[t]     = Q[t] + N[t+1]                      (N[horizon] = 0)
    M[t]     = B[t]' S[t] B[t] + R[t]
    K[t]     = -inv(M[t]) B[t]' S[t] A[t]
    theta[t] = K[t]' M[t] K[t]
    N[t]     = A[t]' S[t] A[t] - theta[t]

The last line is the matrix-inversion-lemma form of the usual
A' inv(inv(S) + B inv(R) B') A update; it needs no inverse of S and is
valid when S is singular but positive semidefinite.  S, N, and theta are
re-symmetrized after every step so roundoff cannot accumulate skewness.

The recursion depends only on the plant and the weights, never on the
sensor set: the optimal gains are the same no matter which measurements
feed the state estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import NumericalError, frozen, symmetrize
from .model import LqgWeights, LtvSystem

_COND_LIMIT = 1e12
_PD_TOL = 1e-9


@dataclass(frozen=True)
class RiccatiSolution:
    """Per-step matrices of the regulator recursion, indexed 0..horizon-1.

    ``K[t]`` is the feedback gain applied to the filtered state estimate;
    ``theta[t]`` weights the estimation error's contribution to the cost.
    ``S``, ``N`` and ``theta`` are read-only (T, n, n) stacks; ``M`` and ``K``
    are sized by the input m_t, which may change with t, so they stay tuples.
    """

    horizon: int
    S: np.ndarray = field(repr=False)
    N: np.ndarray = field(repr=False)
    M: tuple[np.ndarray, ...] = field(repr=False)
    K: tuple[np.ndarray, ...] = field(repr=False)
    theta: np.ndarray = field(repr=False)


def _require_finite(t: int, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(
            f"regulator matrices not finite at time index {t}; the Riccati recursion overflowed"
        )


@np.errstate(over="ignore", invalid="ignore")
def solve_riccati(system: LtvSystem, weights: LqgWeights) -> RiccatiSolution:
    """Run the backward recursion and return all per-step matrices.

    Raises ``NumericalError`` naming the first time index, in recursion
    order (from the horizon back), at which a matrix is not finite.
    """
    if weights.horizon != system.horizon:
        raise ValueError(
            f"weights horizon {weights.horizon} does not match system horizon {system.horizon}"
        )
    T, n = system.horizon, system.state_dim
    S, N, theta = np.empty((T, n, n)), np.empty((T, n, n)), np.empty((T, n, n))
    M: list[np.ndarray | None] = [None] * T
    K: list[np.ndarray | None] = [None] * T
    n_next = np.zeros((n, n))
    for t in range(T - 1, -1, -1):
        A, B = system.A[t], system.B[t]
        s_t = symmetrize(weights.Q[t] + n_next)
        m_t = symmetrize(B.T @ s_t @ B + weights.R[t])
        _require_finite(t, s_t, m_t)
        eigs = np.linalg.eigvalsh(m_t)
        if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > _COND_LIMIT:
            raise NumericalError(
                f"input-cost matrix M numerically singular at time index {t}"
            )
        k_t = -np.linalg.solve(m_t, B.T @ s_t @ A)
        theta_t = symmetrize(k_t.T @ m_t @ k_t)
        n_t = symmetrize(A.T @ s_t @ A - theta_t)
        _require_finite(t, k_t, theta_t, n_t)
        S[t], M[t], K[t], theta[t], N[t] = s_t, m_t, k_t, theta_t, n_t
        n_next = n_t
    return RiccatiSolution(
        horizon=T, S=frozen(S), N=frozen(N), M=tuple(M), K=tuple(K), theta=frozen(theta)
    )


def _theta_sum_spectrum(sol: RiccatiSolution) -> tuple[bool, np.ndarray]:
    """Whether sum_t theta[t] is positive definite (eigenvalues above 1e-9), and its eigenvalues."""
    eigs = np.linalg.eigvalsh(symmetrize(_step_sums(sol.theta)[-1]))
    return bool(eigs[0] > _PD_TOL), eigs


def theta_sum_positive_definite(sol: RiccatiSolution) -> tuple[bool, float]:
    """Smallest eigenvalue of sum_t theta[t] and whether it clears 1e-9.

    A positive-definite sum means every direction of estimation error is
    eventually penalized by the regulator, the condition under which
    applying no control at all is strictly suboptimal.
    """
    positive, eigs = _theta_sum_spectrum(sol)
    return positive, float(eigs[0])


@np.errstate(over="ignore", invalid="ignore")
def _state_maps(system: LtvSystem) -> np.ndarray:
    """Open-loop maps U[t] = A[t-1] ... A[0], U[0] = I, as one (T + 1, n, n) stack."""
    maps = np.empty((system.horizon + 1, system.state_dim, system.state_dim))
    maps[0] = np.eye(system.state_dim)
    for t, A in enumerate(system.A):
        maps[t + 1] = A @ maps[t]
    return maps


def _step_sums(stack: np.ndarray) -> np.ndarray:
    """Running sums of stack[t] in step order from +0.0, as by a loop; ``np.sum`` may pair terms."""
    return np.cumsum(stack, axis=0) + 0.0


@np.errstate(over="ignore", invalid="ignore")
def _pulled_back(maps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_t maps[t]' weights[t] maps[t], symmetrized; raises if a running sum is not finite."""
    sums = _step_sums(np.swapaxes(maps, -1, -2) @ weights @ maps)
    finite = np.isfinite(sums).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(f"open-loop cost not finite at time index {int(np.argmin(finite))}; "
                             "the pulled-back weights overflowed")
    return symmetrize(sums[-1])


def zero_control_suboptimal(
    system: LtvSystem, weights: LqgWeights, sol: RiccatiSolution
) -> bool:
    """Whether sum_t P[t]' Q[t] P[t] - N[0] is positive definite.

    ``P[t]`` is the open-loop state map A[t]...A[0]; the difference is the
    cost saved by the optimal regulator relative to applying zero input.
    Requires every A[t] to be invertible (condition number below 1e12).
    """
    svals = np.linalg.svd(system.A, compute_uv=False)
    lo = svals[:, -1]
    cond = np.divide(svals[:, 0], lo, out=np.full(len(lo), np.inf), where=lo > 0.0)
    if (cond > _COND_LIMIT).any():
        t = int(np.argmax(cond > _COND_LIMIT))
        raise NumericalError(f"state matrix A numerically singular at time index {t}")
    gap = _pulled_back(_state_maps(system)[1:], weights.Q) - sol.N[0]
    return float(np.linalg.eigvalsh(symmetrize(gap))[0]) > _PD_TOL


def cascade_identity_residual(
    system: LtvSystem, weights: LqgWeights, sol: RiccatiSolution
) -> float:
    """Frobenius gap of the telescoped regulator identity.

    Pulling every theta[t] back to the initial step through the open-loop
    maps U[t] = A[t-1]...A[0] (U[0] = I) must reproduce the zero-control
    cost gap exactly:

        sum_t U[t]' theta[t] U[t]  =  sum_t P[t]' Q[t] P[t] - N[0]

    The return value is the Frobenius norm of the difference; it is pure
    algebra, so anything above roundoff indicates a recursion bug.
    """
    maps = _state_maps(system)
    gap = _pulled_back(maps[1:], weights.Q) - sol.N[0]
    return float(np.linalg.norm(_pulled_back(maps[:-1], sol.theta) - gap, ord="fro"))
