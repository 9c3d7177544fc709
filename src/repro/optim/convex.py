"""Constrained smooth minimisation via quadratic penalties.

The Zafar and Celis in-processing approaches solve problems of the form

    minimise  L(θ)   subject to  g_i(θ) ≤ 0

where ``L`` and the ``g_i`` are smooth in the classifier parameters.
The original implementations use cvxpy/DCCP; here we use the classic
quadratic-penalty method: minimise ``L(θ) + μ Σ max(0, g_i(θ))²`` for an
increasing schedule of μ, with L-BFGS-B (scipy) as the inner solver.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]
"""Returns ``(value, gradient)`` at a parameter vector."""


@dataclass(frozen=True)
class PenaltyResult:
    """Outcome of a penalty-method solve."""

    theta: np.ndarray
    objective: float
    max_violation: float
    n_outer: int


def minimize_penalty(loss: Objective,
                     constraints: Sequence[Objective],
                     theta0: np.ndarray,
                     mu0: float = 1.0,
                     mu_growth: float = 10.0,
                     n_outer: int = 6,
                     tol: float = 1e-6,
                     inner_maxiter: int = 200) -> PenaltyResult:
    """Minimise ``loss`` subject to ``g_i(θ) ≤ 0`` for each constraint.

    Parameters
    ----------
    loss, constraints:
        Smooth functions returning ``(value, gradient)``.
    theta0:
        Starting parameters.
    mu0, mu_growth, n_outer:
        Penalty schedule: μ starts at ``mu0`` and multiplies by
        ``mu_growth`` each outer round.
    tol:
        Constraint-violation target; outer loop stops early below it.
    """
    from scipy import optimize

    theta = np.asarray(theta0, dtype=float).copy()
    mu = mu0
    outer_done = 0
    for _ in range(n_outer):
        outer_done += 1

        def penalised(t: np.ndarray) -> tuple[float, np.ndarray]:
            value, grad = loss(t)
            total = value
            total_grad = grad.copy()
            for g in constraints:
                gv, ggrad = g(t)
                if gv > 0:
                    total += mu * gv * gv
                    total_grad += 2 * mu * gv * ggrad
            return total, total_grad

        result = optimize.minimize(
            penalised, theta, jac=True, method="L-BFGS-B",
            options={"maxiter": inner_maxiter})
        theta = result.x
        violation = max((g(theta)[0] for g in constraints), default=0.0)
        if violation <= tol:
            break
        mu *= mu_growth

    final_loss, _ = loss(theta)
    final_violation = max((g(theta)[0] for g in constraints), default=0.0)
    return PenaltyResult(theta=theta, objective=float(final_loss),
                         max_violation=float(max(final_violation, 0.0)),
                         n_outer=outer_done)


def projected_gradient(grad: Callable[[np.ndarray], np.ndarray],
                       project: Callable[[np.ndarray], np.ndarray],
                       x0: np.ndarray, step: float = 0.1,
                       n_iter: int = 500, tol: float = 1e-8) -> np.ndarray:
    """Minimise a smooth function over a convex set by projected GD.

    Used by the Calmon distribution repair, whose feasible region is a
    product of probability simplices.
    """
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(n_iter):
        new = project(x - step * grad(x))
        if np.max(np.abs(new - x)) < tol:
            return new
        x = new
    return x


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("project_simplex expects a vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.flatnonzero(u - css / (np.arange(len(v)) + 1) > 0)[-1]
    tau = css[rho] / (rho + 1)
    return np.maximum(v - tau, 0.0)
