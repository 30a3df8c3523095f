"""Independent reference evaluator for the sensing objective and the LQG cost.

Reads a scenario JSON file itself and recomputes, with plain numpy and none
of the package's code:

* the regulator recursion in the classic Riccati form
  ``N[t] = A' (S - S B inv(B' S B + R) B' S) A`` with ``S = Q + N[t+1]``,
  giving the estimation-error weights ``theta[t] = A' S B inv(M) B' S A``;
* the filtering covariances of a sensor set with the covariance-form Kalman
  recursion (stacked measurement, gain ``K = P C' inv(C P C' + V)``,
  Joseph-form update);
* ``f(S) = sum_t tr(theta[t] post[t])`` and ``g(S) = f(S) + offset``.

The package propagates in information form with whitened sensors, so the two
agree only to roundoff; the checks compare them with a relative tolerance.
"""

from __future__ import annotations

import json

import numpy as np


def _sequence(value, horizon: int) -> list[np.ndarray]:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 2:
        return [arr] * horizon
    if arr.ndim != 3 or arr.shape[0] != horizon:
        raise ValueError(f"matrix sequence of shape {arr.shape} does not fit horizon {horizon}")
    return list(arr)


class ReferenceModel:
    """Covariance-form recomputation of f and g for one scenario file."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        T = int(data["horizon"])
        n = int(data["state_dim"])
        self.horizon = T
        self.A = _sequence(data["A"], T)
        self.B = _sequence(data["B"], T)
        self.W = _sequence(data["W"], T)
        Q = _sequence(data["Q"], T)
        R = _sequence(data["R"], T)
        self.sigma_init = np.asarray(data["sigma_init"], dtype=float)
        self.x1_mean = np.asarray(data.get("x1_mean", np.zeros(n)), dtype=float)
        self.sensors = {
            int(s["id"]): (_sequence(s["C"], T), _sequence(s["V"], T), float(s["cost"]))
            for s in data["sensors"]
        }
        self.theta = [None] * T
        S = [None] * T
        n_next = np.zeros((n, n))
        for t in range(T - 1, -1, -1):
            A, B = self.A[t], self.B[t]
            s_t = Q[t] + n_next
            m_t = B.T @ s_t @ B + R[t]
            bsa = B.T @ s_t @ A
            theta_t = bsa.T @ np.linalg.solve(m_t, bsa)
            S[t] = s_t
            self.theta[t] = 0.5 * (theta_t + theta_t.T)
            n_t = A.T @ s_t @ A - theta_t
            n_next = 0.5 * (n_t + n_t.T)
        n0 = n_next
        self.offset = float(self.x1_mean @ n0 @ self.x1_mean)
        self.offset += float(np.trace(n0 @ self.sigma_init))
        self.offset += sum(float(np.trace(self.W[t] @ S[t])) for t in range(T))

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.sensors))

    def cost(self, ids) -> float:
        """Selection cost, summed in ascending id order."""
        return float(sum(self.sensors[i][2] for i in sorted(set(ids))))

    def f(self, ids) -> float:
        """Sensing objective of the set by the covariance-form filter."""
        chosen = sorted(set(int(i) for i in ids))
        prior = self.sigma_init
        total = 0.0
        for t in range(self.horizon):
            if chosen:
                C = np.vstack([self.sensors[i][0][t] for i in chosen])
                sizes = [self.sensors[i][1][t].shape[0] for i in chosen]
                V = np.zeros((sum(sizes), sum(sizes)))
                ofs = 0
                for i, k in zip(chosen, sizes):
                    V[ofs:ofs + k, ofs:ofs + k] = self.sensors[i][1][t]
                    ofs += k
                innovation = C @ prior @ C.T + V
                gain = np.linalg.solve(innovation, C @ prior).T
                keep = np.eye(prior.shape[0]) - gain @ C
                post = keep @ prior @ keep.T + gain @ V @ gain.T
            else:
                post = prior
            total += float(np.trace(self.theta[t] @ post))
            prior = self.A[t] @ post @ self.A[t].T + self.W[t]
        return total

    def g(self, ids) -> float:
        """Full expected LQG cost of the set."""
        return self.f(ids) + self.offset
