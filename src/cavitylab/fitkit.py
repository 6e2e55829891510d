"""Nonlinear fits by Levenberg-Marquardt under each model's noise policy.

The engine uses the analytic Jacobians from :mod:`cavitylab.models`, a
multiplicative damping schedule, and projected steps for box constraints
(step clamped into the box, then re-damped if the cost did not drop). A
``gaussian`` model minimises the weighted squared residual; a ``poisson``
model minimises the deviance (Cash 1979) by Fisher scoring in the same loop,
with weights 1/sqrt(mu) at the current point. A trial point whose cost is
not finite is a rejected step. The objective never increases across
accepted steps; ``FitResult.cost_trace`` records it for inspection.

Covariance is the inverse of the Gauss-Newton (for counts, Fisher) normal
matrix scaled by the reduced Pearson chi-square, matching the convention of
relative weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import models
from .dataio import digest_arrays
from .errors import (
    DataError,
    InsufficientDataError,
    RankDeficiencyError,
    ValidationError,
)

__all__ = [
    "FitOptions",
    "FitProblem",
    "FitResult",
    "bootstrap_uncertainty",
    "fit",
    "weighted_linear_fit",
]

_COST_SLACK = 1e-12  # relative slack: fp-equal costs count as accepted


@dataclass(frozen=True)
class FitProblem:
    """One fit problem for a registered model.

    ``weights`` are 1/sigma per point (uniform when omitted); a Poisson model
    takes none, as its likelihood sets them. ``bounds`` is a
    sequence of (lo, hi) pairs per parameter; use +-inf for free parameters.
    Without it the model's bounds apply. A heuristic start is clipped into
    the bounds; explicit ``initial_params`` must lie within them.
    """

    model_id: str
    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None = None
    initial_params: np.ndarray | None = None
    bounds: tuple | None = None

    def __post_init__(self):
        model = models.get_model(self.model_id)
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise ValidationError("x and y must be 1-D arrays of equal length")
        if x.size < model.n_params:
            raise InsufficientDataError(
                f"{x.size} points cannot constrain {model.n_params} parameters"
            )
        for name, arr in (("x", x), ("y", y)):
            bad = np.nonzero(~np.isfinite(arr))[0]
            if bad.size:
                raise DataError(f"non-finite {name} at index {int(bad[0])}", index=int(bad[0]))
        if self.weights is not None and model.noise == "poisson":
            raise ValidationError(f"model {self.model_id} has Poisson noise and takes no weights")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != x.shape:
                raise ValidationError("weights must match data length")
            bad = np.nonzero(~(w > 0) | ~np.isfinite(w))[0]
            if bad.size:
                raise DataError(
                    f"weights must be positive and finite (index {int(bad[0])})",
                    index=int(bad[0]),
                )
            object.__setattr__(self, "weights", w)
        p0 = (
            models.initial_params(self.model_id, x, y)
            if self.initial_params is None
            else np.asarray(self.initial_params, dtype=float)
        )
        if p0.size != model.n_params:
            raise ValidationError(
                f"initial_params must have {model.n_params} entries, got {p0.size}"
            )
        bounds = self.bounds if self.bounds is not None else model.bounds
        if bounds is not None:
            lo, hi = _split_bounds(bounds, model.n_params)
            if self.initial_params is None:
                p0 = np.clip(p0, lo, hi)
            elif np.any(p0 < lo) or np.any(p0 > hi):
                raise ValidationError("initial_params must lie within bounds")
            object.__setattr__(self, "bounds", (lo, hi))
        object.__setattr__(self, "initial_params", p0)

    @property
    def param_names(self) -> tuple[str, ...]:
        return models.param_names(self.model_id)

    def effective_weights(self) -> np.ndarray:
        return self.weights if self.weights is not None else np.ones_like(self.y)

    def data_digest(self) -> str:
        return digest_arrays(self.x, self.y, self.effective_weights())


def _split_bounds(bounds, n) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(bounds)
    if len(pairs) != n:
        raise ValidationError(f"bounds must have {n} (lo, hi) pairs")
    lo = np.array([-np.inf if b[0] is None else float(b[0]) for b in pairs])
    hi = np.array([np.inf if b[1] is None else float(b[1]) for b in pairs])
    if np.any(lo >= hi):
        raise ValidationError("each bound must satisfy lo < hi")
    return lo, hi


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 200
    param_tol: float = 1e-10
    damping_init: float = 1e-3


@dataclass(frozen=True)
class FitResult:
    model_id: str
    params: np.ndarray
    covariance: np.ndarray
    reduced_chi2: float
    iterations: int
    converged: bool
    cost_trace: tuple[float, ...] = field(default=(), repr=False)

    @property
    def sigmas(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))

    def to_report_step(self, problem: FitProblem | None = None) -> dict:
        outputs = {
            "params": dict(zip(models.param_names(self.model_id), self.params.tolist())),
            "sigmas": dict(zip(models.param_names(self.model_id), self.sigmas.tolist())),
            "covariance": self.covariance.tolist(),
            "reduced_chi2": self.reduced_chi2,
            "iterations": self.iterations,
            "converged": self.converged,
        }
        if problem is not None:
            outputs["data_digest"] = problem.data_digest()
        return {"name": "fit", "params": {"model_id": self.model_id}, "outputs": outputs}


def _rank_check(H: np.ndarray, names: Sequence[str]):
    # catch genuine singularity (dead or exactly dependent columns) on the
    # scale-free correlation form; near-singular but healthy systems are the
    # damping schedule's job
    d = np.sqrt(np.diag(H))
    dead = [n for n, v in zip(names, d) if v == 0.0 or not np.isfinite(v)]
    if dead:
        raise RankDeficiencyError(
            "singular normal matrix: parameters "
            + ", ".join(dead)
            + " have no effect on the residual (zero Jacobian column)",
            parameters=dead,
        )
    C = H / np.outer(d, d)
    vals, vecs = np.linalg.eigh(C)
    if vals[0] <= vals[-1] * 1e-12:
        v = vecs[:, 0]
        involved = [n for n, c in zip(names, np.abs(v)) if c >= 0.4 * np.max(np.abs(v))]
        raise RankDeficiencyError(
            "singular normal matrix: parameters "
            + ", ".join(involved)
            + " are not independently identifiable",
            parameters=involved,
        )


@np.errstate(all="ignore")
def fit(problem: FitProblem, options: FitOptions | None = None) -> FitResult:
    """Minimize the objective of ``problem`` under its model's noise policy.

    Converged means the relative parameter step of the last accepted
    iteration fell below ``options.param_tol`` before ``max_iter``.
    """
    opts = options or FitOptions()
    model = models.get_model(problem.model_id)
    x, y = problem.x, problem.y
    lo, hi = problem.bounds if problem.bounds is not None else (None, None)

    if model.noise == "poisson":
        ylogy = y * np.log(np.where(y > 0, y, 1.0))  # y ln y, 0 where y <= 0

        def objective(p):
            # Fisher weights 1/sqrt(mu), Pearson residuals and the deviance
            mu = model.fn(x, p)
            w = 1.0 / np.sqrt(mu)
            cost = 2.0 * float(np.sum(ylogy - y * np.log(mu) - y + mu))
            return w, w * (y - mu), cost if mu.min() > 0 else math.nan
    else:
        w = problem.effective_weights()

        def objective(p):
            r = w * (y - model.fn(x, p))
            return w, r, float(r @ r)

    # a trial point off the model's domain has a non-finite cost and is
    # rejected like any uphill step, without a warning (see the errstate);
    # only a bad start point is a data error
    p = problem.initial_params.copy()
    w, r, cost = objective(p)
    if not math.isfinite(cost):
        idx = int(np.argmin(np.isfinite(r)))
        raise DataError(f"non-finite residual at index {idx} of the start point", index=idx)
    cost_trace = [cost]
    lam = float(opts.damping_init)
    converged = False
    iterations = 0

    for iterations in range(1, opts.max_iter + 1):
        J = w[:, None] * model.jac(x, p)
        H = J.T @ J
        g = J.T @ r
        if iterations == 1:
            _rank_check(H, model.params)
        diag = np.maximum(np.diag(H), 1e-300)

        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(H + lam * np.diag(diag), g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + step
            if lo is not None:
                p_new = np.clip(p_new, lo, hi)
            w_new, r_new, cost_new = objective(p_new)
            if cost_new <= cost * (1.0 + _COST_SLACK) + _COST_SLACK:
                rel_step = float(np.max(np.abs(p_new - p) / (np.abs(p) + 1e-300)))
                p, w, r, cost = p_new, w_new, r_new, min(cost_new, cost)
                cost_trace.append(cost)
                lam = max(lam * 0.25, 1e-14)
                accepted = True
                converged = rel_step < opts.param_tol
                break
            lam *= 8.0
        if not accepted or converged:
            break

    # canonical representation (positive widths, ordered rates); same curve
    p_canon = np.asarray(model.canonical(p.copy()), dtype=float)
    if lo is None or (np.all(p_canon >= lo) and np.all(p_canon <= hi)):
        p = p_canon

    # covariance: reduced (Pearson) chi-square times the inverse normal matrix
    J = w[:, None] * model.jac(x, p)
    H = J.T @ J
    reduced_chi2 = float(r @ r) / max(x.size - model.n_params, 1)
    try:
        H_inv = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        H_inv = np.linalg.pinv(H)
    covariance = reduced_chi2 * H_inv

    return FitResult(
        model_id=problem.model_id,
        params=p,
        covariance=covariance,
        reduced_chi2=reduced_chi2,
        iterations=iterations,
        converged=converged,
        cost_trace=tuple(cost_trace),
    )


def bootstrap_uncertainty(
    problem: FitProblem,
    result: FitResult,
    n_resamples: int = 200,
    seed: int = 0,
    options: FitOptions | None = None,
) -> np.ndarray:
    """Residual-resampling bootstrap standard deviation per parameter.

    Resamples the unweighted residuals with replacement, refits from the
    converged parameters, and returns the sample standard deviation of the
    refitted parameters. Agrees with the covariance-based sigma within ~30%
    on well-conditioned problems.
    """
    if not result.converged:
        raise ValidationError("bootstrap requires a converged fit result")
    if n_resamples < 2:
        raise ValidationError("n_resamples must be at least 2")
    model = models.get_model(problem.model_id)
    y_hat = model.fn(problem.x, result.params)
    residuals = problem.y - y_hat
    rng = np.random.Generator(np.random.Philox(seed))
    samples = np.empty((n_resamples, model.n_params))
    n = problem.x.size
    for k in range(n_resamples):
        resampled = y_hat + residuals[rng.integers(0, n, n)]
        prob_k = FitProblem(
            model_id=problem.model_id,
            x=problem.x,
            y=resampled,
            weights=problem.weights,
            initial_params=result.params,
            bounds=None if problem.bounds is None else list(zip(*problem.bounds)),
        )
        samples[k] = fit(prob_k, options).params
    return samples.std(axis=0, ddof=1)


def weighted_linear_fit(x, y, weights=None):
    """Closed-form weighted straight-line fit.

    Returns
    -------
    (slope, intercept), covariance : tuple of ndarray
        Covariance carries the same reduced-chi-square scaling as :func:`fit`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise InsufficientDataError("need at least two points for a line")
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    X = np.column_stack([x, np.ones_like(x)])
    Xw = w[:, None] * X
    H = Xw.T @ Xw
    if np.linalg.det(H) == 0 or np.linalg.cond(H) > 1e13:
        raise RankDeficiencyError(
            "singular normal matrix: slope and intercept are not independently "
            "identifiable (all x identical?)",
            parameters=("slope", "intercept"),
        )
    beta = np.linalg.solve(H, Xw.T @ (w * y))
    r = w * (y - X @ beta)
    dof = max(x.size - 2, 1)
    covariance = float(r @ r) / dof * np.linalg.inv(H)
    return beta, covariance
