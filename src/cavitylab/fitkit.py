"""Nonlinear fits by Levenberg-Marquardt under each model's noise policy.

One engine fits every problem, straight lines included: :func:`fit_many`
advances K problems in lockstep, and :func:`fit` is its batch of one. There
is one loop per model, in length blocks, never padded: the model, the
objective and the normal matrices are stacked (K_b, n_b, p) calls per block
of one length, the damped solves, step tests, rank checks and covariance
inverses stacked (K, p, p) calls over the rows of every block. Each call's
rows are the per-problem calls, so every result is bit for bit the one the
problem gives fitted alone. A loop holds at most 2**15 points
(``_MAX_STACK_POINTS``; a single longer problem is a loop of its own): a
model's larger batch is cut greedily into the fewest loops within that
bound, so the engine's memory does not grow with the number of problems.
Each problem keeps its own damping, step acceptance, iteration count and
convergence, and one problem's failure changes no other result.
Callers that hold stacks of one model and one length (peak windows,
bootstrap resamples) hand them to the loop as they are, checked as wholes.

The model registry is the engine's only configuration:
:mod:`cavitylab.models` gives each model its analytic Jacobian, start
values, bounds and noise policy. The engine has no options: at most 200
iterations, convergence at a scaled parameter step below 1e-10 of the
scaled parameter norm (Moré 1978), and a multiplicative damping schedule
starting at 1e-3. A model's bounds are kept
by projected steps (step clamped into the box, then re-damped if the cost
did not drop). A ``gaussian`` model minimises the weighted squared residual;
a ``poisson`` model minimises the deviance (Cash 1979) by Fisher scoring in
the same loop, with weights 1/sqrt(mu) at the current point, computing the
weights, deviance terms and Pearson residuals in place, to the bits of their
plain expressions. A trial point whose cost is not finite is a rejected
step. The objective never increases across accepted steps;
``FitResult.cost_trace`` records it for inspection.

Covariance is the inverse of the Gauss-Newton (for counts, Fisher) normal
matrix at the fitted point, scaled by the reduced Pearson chi-square,
matching the convention of relative weights. The inverse is the damped
steps' solve against the identity, bit for bit ``np.linalg.inv``; a normal
matrix singular there gives a NaN covariance, not a pseudo-inverse, and
:meth:`FitResult.to_report_step` refuses it. An LM loop's covariances are
computed together on the first read of any, so a caller that reads none
pays for none. :func:`bootstrap_uncertainty` draws its resamples from the
model's noise: Poisson counts around the fitted curve, or for a Gaussian
model weighted residuals resampled and rescaled to the weight of the point
they land on.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import models
from .dataio import digest_arrays
from .errors import (
    DataError,
    FitQualityError,
    InsufficientDataError,
    RankDeficiencyError,
    ValidationError,
    check_domain,
)

__all__ = ["FitProblem", "FitResult", "bootstrap_uncertainty", "fit", "fit_many"]

_MAX_ITER = 200
_STEP_TOL = 1e-10  # bound on the scaled step norm over the scaled parameter norm
_DAMPING_INIT = 1e-3
_COST_SLACK = 1e-12  # relative slack: fp-equal costs count as accepted
_TERMINATIONS = ("step_tolerance", "max_iter", "no_descent")


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
        # the checks of a stack, on a stack of one
        x, y, w, p0 = _validated(
            models.get_model(self.model_id),
            np.asarray(self.x, dtype=float)[None],
            np.asarray(self.y, dtype=float)[None],
            None if self.weights is None else np.asarray(self.weights, dtype=float)[None],
            None if self.initial_params is None
            else np.asarray(self.initial_params, dtype=float).reshape(1, -1),
        )
        for name, value in zip(("x", "y", "weights", "initial_params"),
                               (x[0], y[0], None if w is None else w[0], p0[0])):
            object.__setattr__(self, name, value)

    def effective_weights(self) -> np.ndarray:
        return self.weights if self.weights is not None else np.ones_like(self.y)

    def data_digest(self) -> str:
        return digest_arrays(self.x, self.y, self.effective_weights())


def _first_flagged(n_rows: int, checks) -> tuple:
    """The first row that any of ``checks`` flags, and the refusal of the
    first check in order that flags that row. A check is a pair (flags,
    refuse): flags a mask over the points of each row, or a bool for every
    row; ``refuse(k, i)`` the refusal of row k at its first flagged point i.
    Returns (n_rows, None) when nothing is flagged."""
    row, refusal = n_rows, None
    for flags, refuse in checks:
        if np.ndim(flags) == 0:
            if flags:
                return (0, refuse(0, 0)) if row else (row, refusal)
            continue
        hit = np.flatnonzero(flags[:row].any(axis=1))
        if hit.size:
            row = int(hit[0])
            refusal = refuse(row, int(flags[row].argmax()))
    return row, refusal


def _data_refusal(model, x, y, w) -> tuple:
    """The first row of a (K, n) stack whose data FitProblem refuses, and
    the refusal that row alone meets; (K, None) when every row passes."""
    n = y.shape[1]
    checks = [
        (n < model.n_params, lambda k, i: InsufficientDataError(
            f"{n} points cannot constrain {model.n_params} parameters")),
        (~np.isfinite(x), lambda k, i: DataError(f"non-finite x at index {i}", index=i)),
        (~np.isfinite(y), lambda k, i: DataError(f"non-finite y at index {i}", index=i)),
    ]
    if model.noise == "poisson":
        checks += [
            (w is not None, lambda k, i: ValidationError(
                f"model {model.name} has Poisson noise and takes no weights")),
            (y < 0, lambda k, i: DataError(
                f"negative count at index {i}: model {model.name} has Poisson noise", index=i)),
        ]
    if w is not None and w.shape != y.shape:
        checks.append((True, lambda k, i: ValidationError("weights must match data length")))
    elif w is not None:
        checks.append((~(w > 0) | ~np.isfinite(w), lambda k, i: DataError(
            f"weights must be positive and finite (index {i})", index=i)))
    return _first_flagged(len(y), checks)


def _validated(model, x, y, w, p0) -> tuple:
    """FitProblem's checks over a stack of K problems of one length: ``x``,
    ``y`` and ``w`` (or None) of shape (K, n), ``p0`` of shape (K, P) or None
    for the model's heuristic starts. Returns (x, y, w, p0), a heuristic
    start clipped into the model's bounds. The first row in order that a
    problem built from it alone would refuse raises that refusal, with
    ``problem_index`` set to the row."""
    if y.ndim != 2 or x.shape != y.shape:
        raise ValidationError("x and y must be 1-D arrays of equal length")
    row, refusal = _data_refusal(model, x, y, w)
    if row:
        # the start values of the rows before it, each checked as its row's
        given = p0 is not None
        p0 = p0[:row] if given else models.initial_params(model.name, x[:row], y[:row])
        lo, hi = model.bounds or (None, None)
        checks = []
        if p0.shape != (row, model.n_params):
            checks.append((True, lambda k, i: ValidationError(
                f"initial_params must have {model.n_params} entries, got {p0[0].size}")))
        elif given:
            checks.append((~np.isfinite(p0), lambda k, i: ValidationError(
                f"initial value of {model.params[i]} must be finite, got {p0[k, i]}")))
            if lo is not None:
                checks.append(((p0 < lo) | (p0 > hi), lambda k, i: ValidationError(
                    "initial_params must lie within bounds")))
        elif lo is not None:
            p0 = np.clip(p0, lo, hi)
        start_row, start_refusal = _first_flagged(row, checks)
        if start_refusal is not None:
            row, refusal = start_row, start_refusal
    if refusal is not None:
        refusal.problem_index = row
        raise refusal
    return x, y, w, p0


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

    def __getattr__(self, name):
        # a result of the engine holds its loop's covariances and its row
        # there instead of a covariance, which its first read takes from them
        held = self.__dict__
        if name != "covariance" or "_loop" not in held:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        held["covariance"] = held["_loop"].covariances()[held["_row"]]
        return held["covariance"]

    @property
    def converged(self) -> bool:
        return self.termination == "step_tolerance"

    def require_converged(self, name: str) -> None:
        """Raise ``FitQualityError`` naming ``name`` unless the fit converged."""
        if not self.converged:
            raise FitQualityError(
                f"{name} did not converge: {self.termination} after {self.iterations} iterations")

    @property
    def sigmas(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))

    def to_report_step(self, problem: FitProblem) -> dict:
        """The fit of ``problem`` as a report step, with the model's derived
        outputs; raises the model's ``FitQualityError`` for a result it
        cannot interpret, and ``FitQualityError`` for a covariance that is
        not finite (a normal matrix singular at the fitted point)."""
        derived = models.get_model(self.model_id).derived(self.params)
        if not np.isfinite(self.covariance).all():
            raise FitQualityError(
                "singular normal matrix at the fitted point: the covariance is undefined")
        outputs = {
            "params": dict(zip(models.param_names(self.model_id), self.params.tolist())),
            "sigmas": dict(zip(models.param_names(self.model_id), self.sigmas.tolist())),
            "covariance": self.covariance.tolist(),
            "reduced_chi2": self.reduced_chi2,
            "iterations": self.iterations,
            "converged": self.converged,
            **derived,
            "data_digest": problem.data_digest(),
        }
        return {"name": "fit", "params": {"model_id": self.model_id}, "outputs": outputs}


def _rank_deficiency(H: np.ndarray, names: Sequence[str]) -> dict:
    """The rank check of each normal matrix of a (K, p, p) stack: the
    RankDeficiencyError of each row that fails it, by row."""
    # catch genuine singularity (dead or exactly dependent columns) on the
    # scale-free correlation form; near-singular but healthy systems are the
    # damping schedule's job
    d = np.sqrt(np.diagonal(H, axis1=1, axis2=2))
    alive = np.all((d != 0.0) & np.isfinite(d), axis=1)
    errors = {}
    for k in np.flatnonzero(~alive).tolist():
        dead = [n for n, v in zip(names, d[k]) if v == 0.0 or not np.isfinite(v)]
        errors[k] = RankDeficiencyError(
            "singular normal matrix: parameters "
            + ", ".join(dead)
            + " have no effect on the residual (zero Jacobian column)",
            parameters=dead,
        )
    live = _rows(alive)
    C = H[live] / (d[live, :, None] * d[live, None, :])
    try:
        # a Cholesky factor of C - 1e-6 I proves lambda_min(C) > 1e-6 up to
        # rounding, far above 1e-12 lambda_max (at most p, the trace): every
        # row passes the eigenvalue test, which then need not run
        np.linalg.cholesky(C - 1e-6 * np.eye(len(names)))
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(C)
        for j in np.flatnonzero(vals[:, 0] <= vals[:, -1] * 1e-12).tolist():
            v = np.abs(vecs[j, :, 0])
            involved = [n for n, c in zip(names, v) if c >= 0.4 * np.max(v)]
            errors[int(np.flatnonzero(alive)[j])] = RankDeficiencyError(
                "singular normal matrix: parameters "
                + ", ".join(involved)
                + " are not independently identifiable",
                parameters=involved,
            )
    return errors


def _normal_equations(model, x, w, p, r=None):
    """Stacked Gauss-Newton (for counts, Fisher) normal matrix and, given the
    residuals ``r``, the gradient with it; ``w`` None for unit weights."""
    J = model.jac(x, p)
    if w is not None:
        for column in J.transpose(2, 0, 1):  # one column at a time: faster than broadcast
            column *= w
    Jt = J.transpose(0, 2, 1)
    return Jt @ J if r is None else (Jt @ J, (Jt @ r[:, :, None])[:, :, 0])


def _row_dots(r: np.ndarray) -> np.ndarray:
    # each row's r @ r, summed by numpy over that row alone: a stacked BLAS
    # product's bits can depend on the rows beside it (batch = solo)
    return np.add.reduce(r * r, axis=1)


def _solve_rows(A: np.ndarray, b: np.ndarray):
    """Solve each system of a (K, p, p) stack for its right-hand side, of a
    (K, p, m) ``b`` or one (p, m) ``b`` for all, as a solve of that system
    alone would; against the identity that is, bit for bit,
    ``np.linalg.inv``. A singular system gives a NaN row and a True flag."""
    try:
        return np.linalg.solve(A, b), np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        b = np.broadcast_to(b, (len(A), *b.shape[-2:]))
        out, singular = np.full(b.shape, np.nan), np.zeros(len(A), dtype=bool)
        for k in range(len(A)):
            try:
                out[k] = np.linalg.solve(A[k:k + 1], b[k:k + 1])[0]
            except np.linalg.LinAlgError:
                singular[k] = True
        return out, singular


def _rows(mask: np.ndarray, among=slice(None)):
    """The rows of a stack where ``mask`` holds, as an index: with ``among``
    (the index that picked the rows the mask covers) the rows of the
    stack behind it. When the mask holds everywhere the index is ``among``
    itself, a slice while every row is in, so taking the rows is a view and
    writing them one block copy."""
    if mask.all():
        return among
    picked = np.flatnonzero(mask)
    return picked if isinstance(among, slice) else among[picked]


def _picks(index: np.ndarray, starts):
    """The rows that ``index`` (ascending row numbers) picks of a stack of
    blocks whose rows begin at ``starts`` (the stack's length last): the
    picked rows of each block, as an index into that block (a slice when it
    picks them all), and where each block's picked rows begin among all the
    picked rows."""
    at = np.searchsorted(index, starts).tolist()
    return [
        slice(None) if e - a == t - s else index[a:e] - s
        for a, e, s, t in zip(at, at[1:], starts, starts[1:])
    ], at


class _LoopCovariances:
    """An LM loop's covariances, all computed on the first read of any and
    then kept alone: reduced chi-square times the inverse normal matrix of
    each block's fitted x and weight rows (or None) at rows a:e of ``p``."""

    def __init__(self, model, blocks, p, reduced_chi2):
        self._held = (model, blocks, p, reduced_chi2)

    @np.errstate(all="ignore")
    def covariances(self) -> np.ndarray:
        if isinstance(held := self._held, tuple):  # one read: a racing read gets equal bits
            model, blocks, p, reduced_chi2 = held
            H = np.concatenate([_normal_equations(model, x, w, p[a:e]) for x, w, a, e in blocks])
            self._held = reduced_chi2[:, None, None] * _solve_rows(H, np.eye(model.n_params))[0]
        return self._held


@np.errstate(all="ignore")
def _fit_group(model: models.Model, blocks: Sequence[tuple]) -> list:
    """The LM loop: K problems of one model in lockstep, in length blocks.

    ``blocks`` are checked stacks (x, y, w or None, p0) of one length each,
    taken as they are. Returns one entry per row of the blocks in order, its
    FitResult or the error it failed with (:func:`_fit_stacks` gives a loop
    one block a length). What depends on the length (the model, the
    objective and its row sums, the normal equations) is a stacked call per
    block, over the block's rows still iterating; the steps in parameter
    space (the damped solves, clips, acceptance and step tests, the rank
    check and the covariance inverse) are each one stacked call over the
    rows of every block. Every such call's rows are the per-problem calls,
    and a problem that fails or stops leaves the stack, so no problem's
    result depends on the others. A damping try covers the rows not yet
    accepted: every row on the first try, the rejected ones of every block
    after it. A normal matrix singular at the fitted point gives a NaN
    covariance.
    """
    n_params, fisher = model.n_params, model.noise == "poisson"
    # the weights of the Jacobian rows: the given ones (None for unit
    # weights, as a factor of 1 changes no bit) or, for a count model (given
    # none), the Fisher weights at each problem's current point
    x, y, w, p0 = zip(*blocks)
    # block b holds problems cuts[b] to cuts[b + 1]
    cuts = list(itertools.accumulate((len(yb) for yb in y), initial=0))
    lo, hi = model.bounds or (None, None)

    if fisher:

        def objective(x, y, _, p):
            # Fisher weights 1/sqrt(mu), Pearson residuals and the deviance;
            # each term y ln(y/mu) - (y - mu) is taken through log1p, which
            # keeps it free of the cancellation of y ln y - y ln mu at high
            # counts, and is mu where y = 0; every step in w, d or t
            mu = model.fn(x, p)
            w = np.sqrt(mu)
            np.divide(1.0, w, out=w)
            d = y - mu
            t = d / mu
            np.log1p(t, out=t)
            t *= y
            t -= d
            np.copyto(t, mu, where=~(y > 0))
            cost = 2.0 * np.sum(t, axis=1)
            cost[~(mu.min(axis=1) > 0)] = math.nan
            d *= w
            return w, d, cost
    else:

        def objective(x, y, w, p):
            r = y - model.fn(x, p)
            if w is not None:
                r *= w
            return w, r, _row_dots(r)

    # a trial point off the model's domain has a non-finite cost and is
    # rejected like any uphill step, without a warning (see the errstate);
    # only a bad start point is a data error
    outcome: list = [None] * cuts[-1]
    p = np.concatenate(p0)
    # each block's weights and residuals at its problems' current points,
    # which every accepted step overwrites in place
    w, r, cost = map(list, zip(*(
        objective(xb, yb, wb, p[a:e])
        for xb, yb, wb, a, e in zip(x, y, w, cuts[:-1], cuts[1:]))))
    cost = np.concatenate(cost)
    failed = ~np.isfinite(cost)
    for k in np.flatnonzero(failed).tolist():
        b = bisect.bisect_right(cuts, k) - 1
        idx = int(np.argmin(np.isfinite(r[b][k - cuts[b]])))
        outcome[k] = DataError(f"non-finite residual at index {idx} of the start point", index=idx)
    # why each problem stopped, as an index into _TERMINATIONS
    termination = np.zeros(cuts[-1], dtype=int)
    iterations = np.zeros(cuts[-1], dtype=int)
    # the objective after each iteration, by problem: a problem's cost
    # trace is its start and one entry per accepted step
    history = [cost.copy()]

    # the problems still iterating: their parameter-space state stacked in
    # the upper-case arrays, with ``ids`` mapping the rows to problems, and
    # each block's rows among them, which begin at ``at`` among the stacked
    # rows
    ids = np.flatnonzero(~failed)
    live, at = _picks(ids, cuts)
    P, C = p[ids], cost[ids]
    lam, conv = np.full(ids.size, _DAMPING_INIT), np.zeros(ids.size, dtype=bool)
    for it in range(1, _MAX_ITER + 1):
        if not ids.size:
            break
        H, g = map(np.concatenate, zip(*(
            _normal_equations(model, xb[k], None if wb is None else wb[k], P[a:e], rb[k])
            for xb, wb, rb, k, a, e in zip(x, w, r, live, at[:-1], at[1:]) if e > a)))
        # D^2 = diag(H): Moré's scaling, the squared column norms of the
        # weighted Jacobian, for the damping and for the step test
        scale = np.diagonal(H, axis1=1, axis2=2)
        damping = np.zeros_like(H)
        damping.reshape(-1, n_params * n_params)[:, ::n_params + 1] = np.maximum(scale, 1e-300)

        # each try solves the damped system of every row not yet accepted;
        # a singular system is a NaN step, rejected, with a larger damping.
        # A row that fails the rank check tries no step: it stops unaccepted
        accepted = np.zeros(ids.size, dtype=bool)
        rows = slice(None)
        if it == 1:
            errors = _rank_deficiency(H, model.params)
            for j, error in errors.items():
                outcome[ids[j]] = error
            failed[ids[list(errors)]] = True
            if failed.all():
                break
            rows = _rows(~failed[ids])
        for attempt in range(60):
            step, singular = _solve_rows(
                H[rows] + lam[rows, None, None] * damping[rows], g[rows, :, None])
            p_new = P[rows] + step[:, :, 0]
            if lo is not None:
                p_new = np.clip(p_new, lo, hi)
            # each block's trial points, through that block's objective
            picks, begins = (live, at) if isinstance(rows, slice) else _picks(ids[rows], cuts)
            trials = []
            for b, (pick, a, e) in enumerate(zip(picks, begins[:-1], begins[1:])):
                if e > a:
                    trials.append((b, pick, a, e, *objective(
                        x[b][pick], y[b][pick], None if w[b] is None else w[b][pick], p_new[a:e])))
            cost_new = np.concatenate([trial[-1] for trial in trials])
            ok = cost_new <= C[rows] * (1.0 + _COST_SLACK) + _COST_SLACK
            if attempt:
                # a row tried again had a trial rejected: once the damping
                # has shrunk its step to exactly zero it found no descent,
                # and it stops unaccepted
                stuck = np.all(p_new == P[rows], axis=1)
                ok &= ~stuck
            new, acc = _rows(ok), _rows(ok, rows)
            # Moré's scaled step test ||D dp|| < tol ||D p||, free of the
            # parameters' units and of a parameter whose value is 0
            d = np.sqrt(scale[acc])
            step_norm = np.sqrt(_row_dots(d * (p_new[new] - P[acc])))
            size = np.sqrt(_row_dots(d * P[acc]))
            P[acc] = p_new[new]
            for b, pick, a, e, w_new, r_new, _ in trials:
                good = ok[a:e]
                new_b, acc_b = _rows(good), _rows(good, pick)
                if isinstance(acc_b, slice):  # the whole block: keep the trial's arrays
                    r[b], w[b] = r_new, w_new  # (a Gaussian model's w_new is w[b])
                    continue
                r[b][acc_b] = r_new[new_b]
                if fisher:
                    w[b][acc_b] = w_new[new_b]
            C[acc] = np.minimum(cost_new[new], C[acc])
            lam[acc] = np.maximum(lam[acc] * 0.25, 1e-14)
            conv[acc] = step_norm < _STEP_TOL * size
            accepted[acc] = True
            if ok.all():
                break
            lam[_rows(~ok, rows)] *= np.where(singular[~ok], 10.0, 8.0)
            again = ~ok & ~stuck if attempt else ~ok
            if not again.any():
                break
            rows = _rows(again, rows)

        history.append(history[-1].copy())
        history[-1][ids] = C
        stop = ~accepted | conv | (it == _MAX_ITER)
        if stop.any():
            # the one site where rows leave the stack
            out = _rows(stop)
            done = ids[out]
            p[done] = P[out]
            iterations[done] = it
            termination[done] = np.where(conv, 0, np.where(accepted, 1, 2))[out]
            if stop.all():
                break
            ids, P, C, lam, conv = (v[~stop] for v in (ids, P, C, lam, conv))
            live, at = _picks(ids, cuts)

    fitted = np.flatnonzero(~failed)
    # canonical representation (positive widths, ordered rates) where it
    # lies within the bounds; the same curve
    p_fit = p[fitted]
    p_canon = model.canonical(p_fit)
    inside = True if lo is None else np.all((p_canon >= lo) & (p_canon <= hi), axis=1)[:, None]
    p_fit = np.where(inside, p_canon, p_fit)

    # each block's reduced (Pearson) chi-square now, its covariances on first
    # read at a copy of p_fit, whose rows the results' params are
    kept, fits_at = _picks(fitted, cuts)
    reduced_chi2 = np.concatenate([
        _row_dots(rb[k]) / max(rb.shape[1] - n_params, 1) for rb, k in zip(r, kept)])
    loop = _LoopCovariances(model, [
        (xb[k], None if wb is None else wb[k], a, e)
        for xb, wb, k, a, e in zip(x, w, kept, fits_at[:-1], fits_at[1:])
    ], p_fit.copy(), reduced_chi2)
    ends = [_TERMINATIONS[t] for t in termination[fitted].tolist()]
    counts = iterations[fitted].tolist()
    traces = np.array(history)[:, fitted].T.tolist()
    for j, (k, chi2, n, end, trace) in enumerate(
            zip(fitted.tolist(), reduced_chi2.tolist(), counts, ends, traces)):
        # built without __init__'s checks; the cost trace is the start and
        # one entry per iteration, less the last when it accepted nothing
        outcome[k] = result = object.__new__(FitResult)
        result.__dict__.update(
            model_id=model.name, params=p_fit[j], reduced_chi2=chi2, iterations=n,
            termination=end, cost_trace=tuple(trace[:n + (end != "no_descent")]),
            _loop=loop, _row=j)
    return outcome


# the points of one LM loop: a larger group of problems of one model is
# fitted in several loops within it, so a loop's memory does not grow with
# the number of problems
_MAX_STACK_POINTS = 2**15


def _loops(sizes: Sequence[int]) -> list[range]:
    """Runs of consecutive problems, of ``sizes`` points in order, one LM
    loop each: the fewest runs of at most ``_MAX_STACK_POINTS`` points (a
    single larger problem is a run of its own), each run taking the
    problems that follow while it holds at most that many points."""
    points = list(itertools.accumulate(sizes, initial=0))  # before each problem
    ends = [0]
    while ends[-1] < len(sizes):
        last = bisect.bisect_right(points, points[ends[-1]] + _MAX_STACK_POINTS) - 1
        ends.append(max(last, ends[-1] + 1))
    return [range(a, e) for a, e in zip(ends, ends[1:])]


def fit_many(problems: Sequence[FitProblem]) -> list[FitResult]:
    """Minimize the objective of every problem under its model's noise policy.

    The problems of one model are stacked, one array a length, and advance
    in one lockstep loop in those blocks (a model's problems of more than
    ``_MAX_STACK_POINTS`` points in all run in the fewest loops within that
    bound, each filled in order up to it), each problem with its own
    damping, step acceptance, iteration count and convergence; a result is
    bit for bit what the problem gives fitted alone. Converged
    means that within ``_MAX_ITER`` iterations an accepted step dp fell
    below the scaled test ||D dp|| < ``_STEP_TOL`` ||D p|| (Moré 1978,
    MINPACK's ``xtol``), D = sqrt(diag(H)) of the normal matrix H at the
    step's start point p; ``FitResult.termination`` names the reason the
    loop stopped.

    A problem that fails (non-finite start, singular normal matrix at the
    start) changes no other problem's result; a normal matrix singular at
    the fitted point gives a NaN covariance. If any fails, the error of the first failing
    problem in input order is raised, with ``problem_index`` set to its
    position and ``results`` to the list of results (None where a problem
    failed).
    """
    return _fit_stacks([
        (models.get_model(q.model_id), np.array([i]), q.x[None], q.y[None],
         None if q.weights is None else q.weights[None], q.initial_params[None])
        for i, q in enumerate(problems)])


def _merged(stacks: list) -> tuple:
    # stacks of one model and one length as one, rows in order of position
    index = np.concatenate([stack[1] for stack in stacks])
    order = np.argsort(index)
    if any(stack[4] is not None for stack in stacks):
        stacks = [(*s[:4], np.ones_like(s[3]) if s[4] is None else s[4], s[5]) for s in stacks]
    return (stacks[0][0], index[order], *(None if v[0] is None else np.concatenate(v)[order]
                                          for v in zip(*(stack[2:] for stack in stacks))))


def _fit_stacks(stacks: Sequence[tuple]) -> list[FitResult]:
    """:func:`fit_many` of the problems in stacks (model, index, x, y, w, p0)
    that :func:`_validated` checked, ascending ``index`` arrays numbering
    them from 0: a model's ``_loops`` runs, in order of position, are its
    loops, a block a length, a view of one stack where one holds it."""
    outcome: list = [None] * sum(len(stack[1]) for stack in stacks)
    by_model: dict[str, dict] = {}
    for stack in stacks:
        by_model.setdefault(stack[0].name, {}).setdefault(stack[3].shape[1], []).append(stack)
    for lengths in by_model.values():
        group = [s[0] if len(s) == 1 else _merged(s) for _, s in sorted(lengths.items())]
        positions = np.concatenate([stack[1] for stack in group])
        sizes = np.repeat([stack[3].shape[1] for stack in group], [len(s[1]) for s in group])
        order = np.argsort(positions)
        positions = positions[order]
        for run in _loops(sizes[order].tolist()):
            bounds = positions[run.start], positions[run.stop - 1] + 1
            rows, blocks = [], []
            for _, index, *arrays in group:
                a, e = np.searchsorted(index, bounds).tolist()
                if e > a:
                    rows.append(index[a:e])
                    blocks.append([None if v is None else v[a:e] for v in arrays])
            for i, o in zip(np.concatenate(rows).tolist(), _fit_group(group[0][0], blocks)):
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


def bootstrap_uncertainty(
    problem: FitProblem, result: FitResult, n_resamples: int = 200, seed: int = 0
) -> np.ndarray:
    """Parametric bootstrap standard deviation per parameter.

    Each resample is drawn from the model's noise around the fitted curve:
    Poisson counts for a ``poisson`` model; for a ``gaussian`` one, the
    fitted curve plus weighted residuals w_i r_i resampled with replacement
    and rescaled to the point they land on, y*_j = y_hat_j + w_i r_i / w_j
    (plain residuals when the problem has no weights). All resamples are
    drawn in one generator call, in the order of one draw per resample,
    checked as one stack and refitted from the converged parameters, the LM
    loop taking views of one ``_loops`` run (about 2**15 points) at a time,
    each loop freed once its parameters are read: the memory is that of the
    resamples plus one loop. The result is the sample standard deviation of
    the refitted parameters; a spread that is not finite raises
    ``FitQualityError`` naming its parameters.
    Agrees with the covariance-based sigma within ~30% on well-conditioned
    problems.
    """
    if not result.converged:
        raise ValidationError("bootstrap requires a converged fit result")
    check_domain("an integer >= 2", n_resamples=n_resamples)
    check_domain("an integer >= 0", seed=seed)
    model = models.get_model(problem.model_id)
    y_hat = model.fn(problem.x, result.params)
    rng = np.random.Generator(np.random.Philox(seed))
    shape = (n_resamples, problem.x.size)
    if model.noise == "poisson":
        y = rng.poisson(np.broadcast_to(y_hat, shape)).astype(float)
    else:
        # without weights, w = 1.0 multiplies and divides exactly: the plain
        # residuals' bits
        w = 1.0 if problem.weights is None else problem.weights
        y = y_hat + (w * (problem.y - y_hat))[rng.integers(0, shape[1], shape)] / w
    resamples = _validated(
        model, np.broadcast_to(problem.x, shape), y,
        None if problem.weights is None else np.broadcast_to(problem.weights, shape),
        np.broadcast_to(result.params, (n_resamples, result.params.size)))
    # _fit_stacks would fit the same runs, but its results would hold every
    # run's weights, through their unread covariances, to the end
    params = np.concatenate([
        [r.params for r in _fit_stacks([(model, np.arange(len(run)), *(
            None if v is None else v[run.start:run.stop] for v in resamples))])]
        for run in _loops([shape[1]] * n_resamples)])
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = params.std(axis=0, ddof=1)
    if spread := [name for name, s in zip(model.params, sigma.tolist()) if not math.isfinite(s)]:
        raise FitQualityError(
            f"bootstrap spread of {', '.join(spread)} over {n_resamples} resamples is not finite")
    return sigma
