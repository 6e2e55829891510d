"""Nonlinear fits by Levenberg-Marquardt under each model's noise policy.

One engine fits every problem, straight lines included: :func:`fit_many`
advances K problems in lockstep, and :func:`fit` is its batch of one. The
problems are grouped by model and length, never padded; each group's
Jacobians, normal matrices, damped solves, rank checks and covariance
inverses are stacked (K, n, p) and (K, p, p) calls whose rows are the
per-problem calls, so every result is bit for bit the one the problem gives
fitted alone. Each problem keeps its own damping, step acceptance,
iteration count and convergence, and one problem's failure changes no
other result.

The model registry is the engine's only configuration:
:mod:`cavitylab.models` gives each model its analytic Jacobian, start
values, bounds and noise policy. The engine has no options: at most 200
iterations, convergence at a scaled parameter step below 1e-10 of the
scaled parameter norm (Moré 1978), and a multiplicative damping schedule
starting at 1e-3. A model's bounds are kept
by projected steps (step clamped into the box, then re-damped if the cost
did not drop). A ``gaussian`` model minimises the weighted squared residual;
a ``poisson`` model minimises the deviance (Cash 1979) by Fisher scoring in
the same loop, with weights 1/sqrt(mu) at the current point. A trial point
whose cost is not finite is a rejected step. The objective never increases
across accepted steps; ``FitResult.cost_trace`` records it for inspection.

Covariance is the inverse of the Gauss-Newton (for counts, Fisher) normal
matrix scaled by the reduced Pearson chi-square, matching the convention of
relative weights. :func:`bootstrap_uncertainty` draws its resamples from the
model's noise: Poisson counts around the fitted curve, or resampled residuals
for a Gaussian model.
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

__all__ = ["FitProblem", "FitResult", "bootstrap_uncertainty", "fit", "fit_many"]

_MAX_ITER = 200
_STEP_TOL = 1e-10  # bound on the scaled step norm over the scaled parameter norm
_DAMPING_INIT = 1e-3
_COST_SLACK = 1e-12  # relative slack: fp-equal costs count as accepted


@dataclass(frozen=True)
class FitProblem:
    """One fit problem for a registered model.

    ``weights`` are 1/sigma per point (uniform when omitted); a Poisson model
    takes none, as its likelihood sets them, and refuses negative counts.
    Bounds come from the registered model only: a heuristic start is clipped
    into them; explicit ``initial_params`` must lie within them.
    """

    model_id: str
    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None = None
    initial_params: np.ndarray | None = None

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
        if model.noise == "poisson":
            if self.weights is not None:
                raise ValidationError(f"model {self.model_id} has Poisson noise and takes no weights")
            bad = np.nonzero(y < 0)[0]
            if bad.size:
                raise DataError(
                    f"negative count at index {int(bad[0])}: model {self.model_id} "
                    "has Poisson noise", index=int(bad[0]),
                )
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
        if self.initial_params is not None and not np.all(np.isfinite(p0)):
            i = int(np.argmin(np.isfinite(p0)))
            raise ValidationError(f"initial value of {model.params[i]} must be finite, got {p0[i]}")
        if model.bounds is not None:
            lo, hi = model.bounds
            if self.initial_params is None:
                p0 = np.clip(p0, lo, hi)
            elif np.any(p0 < lo) or np.any(p0 > hi):
                raise ValidationError("initial_params must lie within bounds")
        object.__setattr__(self, "initial_params", p0)

    def effective_weights(self) -> np.ndarray:
        return self.weights if self.weights is not None else np.ones_like(self.y)

    def data_digest(self) -> str:
        return digest_arrays(self.x, self.y, self.effective_weights())


@dataclass(frozen=True)
class FitResult:
    """A fitted problem. ``termination`` says why the LM loop stopped:
    ``step_tolerance`` (the scaled step fell below ``_STEP_TOL``),
    ``max_iter`` (``_MAX_ITER`` iterations without that) or ``no_descent``
    (every damping try of an iteration was rejected, or the damping shrank
    the step after a rejected try to exactly zero)."""

    model_id: str
    params: np.ndarray
    covariance: np.ndarray
    reduced_chi2: float
    iterations: int
    termination: str
    cost_trace: tuple[float, ...] = field(default=(), repr=False)

    @property
    def converged(self) -> bool:
        return self.termination == "step_tolerance"

    @property
    def sigmas(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))

    def to_report_step(self, problem: FitProblem | None = None) -> dict:
        """The fit as a report step, with the model's derived outputs;
        raises the model's ``FitQualityError`` for a result it cannot
        interpret."""
        outputs = {
            "params": dict(zip(models.param_names(self.model_id), self.params.tolist())),
            "sigmas": dict(zip(models.param_names(self.model_id), self.sigmas.tolist())),
            "covariance": self.covariance.tolist(),
            "reduced_chi2": self.reduced_chi2,
            "iterations": self.iterations,
            "converged": self.converged,
            **models.get_model(self.model_id).derived(self.params),
        }
        if problem is not None:
            outputs["data_digest"] = problem.data_digest()
        return {"name": "fit", "params": {"model_id": self.model_id}, "outputs": outputs}


def _rank_deficiency(H: np.ndarray, names: Sequence[str]) -> list:
    """The rank check of each normal matrix of a (K, p, p) stack: None where
    it passes, else the RankDeficiencyError of that problem."""
    # catch genuine singularity (dead or exactly dependent columns) on the
    # scale-free correlation form; near-singular but healthy systems are the
    # damping schedule's job
    d = np.sqrt(np.diagonal(H, axis1=1, axis2=2))
    alive = np.all((d != 0.0) & np.isfinite(d), axis=1)
    errors = [None] * len(H)
    for k in np.nonzero(~alive)[0]:
        dead = [n for n, v in zip(names, d[k]) if v == 0.0 or not np.isfinite(v)]
        errors[k] = RankDeficiencyError(
            "singular normal matrix: parameters "
            + ", ".join(dead)
            + " have no effect on the residual (zero Jacobian column)",
            parameters=dead,
        )
    live = np.nonzero(alive)[0]
    C = H[live] / (d[live, :, None] * d[live, None, :])
    vals, vecs = np.linalg.eigh(C)
    for j in np.nonzero(vals[:, 0] <= vals[:, -1] * 1e-12)[0]:
        v = np.abs(vecs[j, :, 0])
        involved = [n for n, c in zip(names, v) if c >= 0.4 * np.max(v)]
        errors[live[j]] = RankDeficiencyError(
            "singular normal matrix: parameters "
            + ", ".join(involved)
            + " are not independently identifiable",
            parameters=involved,
        )
    return errors


def _normal_equations(model, x, w, p, r):
    """Stacked Gauss-Newton (for counts, Fisher) normal matrix and gradient."""
    J = model.jac(x, p)
    J *= w[:, :, None]
    Jt = J.transpose(0, 2, 1)
    return Jt @ J, (Jt @ r[:, :, None])[:, :, 0]


def _row_dots(r: np.ndarray) -> np.ndarray:
    # each row's r @ r, by the same dot product as the 1-D call
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _solve_rows(A: np.ndarray, b: np.ndarray):
    """Solve each system of a stack, as a solve of that system alone would;
    a singular system gives a NaN row and a True flag."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0], np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        out, singular = np.full_like(b, np.nan), np.zeros(len(A), dtype=bool)
        for k in range(len(A)):
            try:
                out[k] = np.linalg.solve(A[k:k + 1], b[k:k + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                singular[k] = True
        return out, singular


def _inverse_rows(H: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(H)
    except np.linalg.LinAlgError:
        out = np.empty_like(H)
        for k in range(len(H)):
            try:
                out[k] = np.linalg.inv(H[k:k + 1])[0]
            except np.linalg.LinAlgError:
                out[k] = np.linalg.pinv(H[k])
        return out


def _take(keep, *arrays):
    return tuple(a[keep] for a in arrays)


@np.errstate(all="ignore")
def _fit_group(model: models.Model, problems: Sequence[FitProblem]) -> list:
    """The LM loop: K problems of one model and one length in lockstep.

    Returns one entry per problem, its FitResult or the error it failed
    with. Every step is a stacked call whose rows are the per-problem calls,
    and a problem that fails or stops leaves the stack, so no problem's
    result depends on the others.
    """
    n_params = model.n_params
    x = np.stack([q.x for q in problems])
    y = np.stack([q.y for q in problems])
    # the given weights; a count model's likelihood sets its own
    aux = np.stack([q.effective_weights() for q in problems])
    lo, hi = model.bounds or (None, None)

    if model.noise == "poisson":

        def objective(x, y, _, p):
            # Fisher weights 1/sqrt(mu), Pearson residuals and the deviance;
            # each term y ln(y/mu) - (y - mu) is taken through log1p, which
            # keeps it free of the cancellation of y ln y - y ln mu at high
            # counts, and is mu where y = 0
            mu = model.fn(x, p)
            w = 1.0 / np.sqrt(mu)
            d = y - mu
            cost = 2.0 * np.sum(np.where(y > 0, y * np.log1p(d / mu) - d, mu), axis=1)
            cost[~(mu.min(axis=1) > 0)] = math.nan
            return w, w * d, cost
    else:

        def objective(x, y, w, p):
            r = w * (y - model.fn(x, p))
            return w, r, _row_dots(r)

    # a trial point off the model's domain has a non-finite cost and is
    # rejected like any uphill step, without a warning (see the errstate);
    # only a bad start point is a data error
    outcome: list = [None] * len(problems)
    p = np.stack([q.initial_params for q in problems])
    w, r, cost = objective(x, y, aux, p)
    for k in np.nonzero(~np.isfinite(cost))[0]:
        idx = int(np.argmin(np.isfinite(r[k])))
        outcome[k] = DataError(f"non-finite residual at index {idx} of the start point", index=idx)
    traces = [[c] for c in cost.tolist()]
    termination = np.empty(len(problems), dtype=object)
    iterations = np.zeros(len(problems), dtype=int)
    w, r = w.copy(), r.copy()  # rows are overwritten by each problem's final state

    # the problems still iterating, stacked in the upper-case arrays (data,
    # weights, then the state); ``ids`` maps their rows to problems
    ids = np.nonzero(np.isfinite(cost))[0]
    X, Y, A, P, W, R, C = _take(ids, x, y, aux, p, w, r, cost)
    lam, conv = np.full(ids.size, _DAMPING_INIT), np.zeros(ids.size, dtype=bool)
    diagonal = (slice(None),) + np.diag_indices(n_params)
    for it in range(1, _MAX_ITER + 1):
        if not ids.size:
            break
        H, g = _normal_equations(model, X, W, P, R)
        if it == 1:
            errors = _rank_deficiency(H, model.params)
            for k, e in zip(ids, errors):
                outcome[k] = e
            keep = np.array([e is None for e in errors], dtype=bool)
            ids, X, Y, A, P, W, R, C, lam, conv, H, g = _take(
                keep, ids, X, Y, A, P, W, R, C, lam, conv, H, g)
        # D^2 = diag(H): Moré's scaling, the squared column norms of the
        # weighted Jacobian, for the damping and for the step test
        scale = np.diagonal(H, axis1=1, axis2=2)
        damping = np.zeros_like(H)
        damping[diagonal] = np.maximum(scale, 1e-300)

        # each try solves the damped system of every row not yet accepted;
        # a singular system is a NaN step, rejected, with a larger damping
        accepted = np.zeros(ids.size, dtype=bool)
        rows = slice(None)
        for attempt in range(60):
            step, singular = _solve_rows(H[rows] + lam[rows, None, None] * damping[rows], g[rows])
            p_new = P[rows] + step
            if lo is not None:
                p_new = np.clip(p_new, lo, hi)
            w_new, r_new, cost_new = objective(X[rows], Y[rows], A[rows], p_new)
            ok = cost_new <= C[rows] * (1.0 + _COST_SLACK) + _COST_SLACK
            if attempt:
                # a row tried again had a trial rejected: once the damping
                # has shrunk its step to exactly zero it found no descent,
                # and it stops unaccepted
                stuck = np.all(p_new == P[rows], axis=1)
                ok &= ~stuck
            tried = np.arange(ids.size)[rows]
            acc, rej = tried[ok], tried[~ok]
            # Moré's scaled step test ||D dp|| < tol ||D p||, free of the
            # parameters' units and of a parameter whose value is 0
            d = np.sqrt(scale[acc])
            step_norm = np.sqrt(_row_dots(d * (p_new[ok] - P[acc])))
            size = np.sqrt(_row_dots(d * P[acc]))
            P[acc], W[acc], R[acc] = p_new[ok], w_new[ok], r_new[ok]
            C[acc] = np.minimum(cost_new[ok], C[acc])
            for k, c in zip(ids[acc], C[acc].tolist()):
                traces[k].append(c)
            lam[acc] = np.maximum(lam[acc] * 0.25, 1e-14)
            conv[acc] = step_norm < _STEP_TOL * size
            accepted[acc] = True
            lam[rej] *= np.where(singular[~ok], 10.0, 8.0)
            rows = rej[~stuck[~ok]] if attempt else rej
            if not rows.size:
                break

        stop = ~accepted | conv | (it == _MAX_ITER)
        if stop.any():
            done = ids[stop]
            p[done], w[done], r[done] = P[stop], W[stop], R[stop]
            iterations[done] = it
            termination[done] = np.where(
                conv, "step_tolerance", np.where(accepted, "max_iter", "no_descent"))[stop]
            ids, X, Y, A, P, W, R, C, lam, conv = _take(
                ~stop, ids, X, Y, A, P, W, R, C, lam, conv)

    fitted = np.array([o is None for o in outcome], dtype=bool)
    # canonical representation (positive widths, ordered rates); same curve
    for k in np.nonzero(fitted)[0]:
        p_canon = np.asarray(model.canonical(p[k].copy()), dtype=float)
        if lo is None or (np.all(p_canon >= lo) and np.all(p_canon <= hi)):
            p[k] = p_canon

    # covariance: reduced (Pearson) chi-square times the inverse normal matrix
    H, _ = _normal_equations(model, x[fitted], w[fitted], p[fitted], r[fitted])
    reduced_chi2 = _row_dots(r[fitted]) / max(x.shape[1] - n_params, 1)
    covariance = reduced_chi2[:, None, None] * _inverse_rows(H)
    for j, k in enumerate(np.nonzero(fitted)[0]):
        outcome[k] = FitResult(
            model_id=model.name,
            params=p[k],
            covariance=covariance[j],
            reduced_chi2=float(reduced_chi2[j]),
            iterations=int(iterations[k]),
            termination=str(termination[k]),
            cost_trace=tuple(traces[k]),
        )
    return outcome


def fit_many(problems: Sequence[FitProblem]) -> list[FitResult]:
    """Minimize the objective of every problem under its model's noise policy.

    Problems of one model and one length advance in lockstep, each with its
    own damping, step acceptance, iteration count and convergence; a result
    is bit for bit what the problem gives fitted alone. Converged means that
    within ``_MAX_ITER`` iterations an accepted step dp fell below the scaled
    test ||D dp|| < ``_STEP_TOL`` ||D p|| (Moré 1978, MINPACK's ``xtol``),
    D = sqrt(diag(H)) of the normal matrix H at the step's start point p;
    ``FitResult.termination`` names the reason the loop stopped.

    A problem that fails (non-finite start, singular normal matrix) changes
    no other problem's result. If any fails, the error of the first failing
    problem in input order is raised, with ``problem_index`` set to its
    position and ``results`` to the list of results (None where a problem
    failed).
    """
    groups: dict[tuple, list[int]] = {}
    for i, q in enumerate(problems):
        groups.setdefault((q.model_id, q.x.size), []).append(i)
    outcome: list = [None] * len(problems)
    for (model_id, _), idx in groups.items():
        found = _fit_group(models.get_model(model_id), [problems[i] for i in idx])
        for i, o in zip(idx, found):
            outcome[i] = o
    failed = [i for i, o in enumerate(outcome) if isinstance(o, Exception)]
    if failed:
        error = outcome[failed[0]]
        error.problem_index = failed[0]
        error.results = [None if isinstance(o, Exception) else o for o in outcome]
        raise error
    return outcome


def fit(problem: FitProblem) -> FitResult:
    """Fit one problem: :func:`fit_many` of a batch of one."""
    return fit_many([problem])[0]


# resamples refitted per fit_many batch: memory stays that of one batch
# whatever the count; the draws keep their order and a fit_many result does
# not depend on its batch, so the sigmas do not depend on this size
_RESAMPLE_BATCH = 200


def bootstrap_uncertainty(
    problem: FitProblem, result: FitResult, n_resamples: int = 200, seed: int = 0
) -> np.ndarray:
    """Parametric bootstrap standard deviation per parameter.

    Each resample is drawn from the model's noise around the fitted curve:
    Poisson counts for a ``poisson`` model, the fitted curve plus residuals
    resampled with replacement for a ``gaussian`` one. They are refitted from
    the converged parameters in batches of ``_RESAMPLE_BATCH``; the result is
    the sample standard deviation of the refitted parameters. Agrees with the
    covariance-based sigma within ~30% on well-conditioned problems.
    """
    if not result.converged:
        raise ValidationError("bootstrap requires a converged fit result")
    if n_resamples < 2:
        raise ValidationError("n_resamples must be at least 2")
    model = models.get_model(problem.model_id)
    y_hat = model.fn(problem.x, result.params)
    residuals = problem.y - y_hat
    rng = np.random.Generator(np.random.Philox(seed))
    n = problem.x.size

    def resample():
        if model.noise == "poisson":
            return rng.poisson(y_hat).astype(float)
        return y_hat + residuals[rng.integers(0, n, n)]

    samples = []
    for start in range(0, n_resamples, _RESAMPLE_BATCH):
        batch = [
            FitProblem(
                model_id=problem.model_id,
                x=problem.x,
                y=resample(),
                weights=problem.weights,
                initial_params=result.params,
            )
            for _ in range(min(_RESAMPLE_BATCH, n_resamples - start))
        ]
        samples.extend(r.params for r in fit_many(batch))
    return np.array(samples).std(axis=0, ddof=1)
