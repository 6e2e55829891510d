import dataclasses
import gc
import hashlib
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import model_grid, perturb_params, random_params

from cavitylab import fitkit, models, optics, synthlab
from cavitylab.errors import (
    DataError,
    FitQualityError,
    InsufficientDataError,
    RankDeficiencyError,
    ValidationError,
)
from cavitylab.optics import C_NM_GHZ


def _lorentzian_data(center=618.6, fwhm_nm=0.268, amplitude=1000.0, offset=20.0,
                     noise_sigma=0.0, seed=0):
    x = np.linspace(center - 4.0, center + 4.0, 801)
    y = models.evaluate("lorentzian", [amplitude, center, fwhm_nm, offset], x)
    if noise_sigma:
        rng = np.random.Generator(np.random.Philox(seed))
        y = y + rng.normal(0.0, noise_sigma, x.size)
    return x, y


def test_noiseless_exact_start_converges_immediately():
    # the gradient is zero at the truth: the first try's step is exactly
    # zero, accepted with no rejection, and the fit converges there
    truth = [1000.0, 618.6, 0.268, 20.0]
    x, y = _lorentzian_data()
    problem = fitkit.FitProblem(model_id="lorentzian", x=x, y=y, initial_params=truth)
    result = fitkit.fit(problem)
    assert (result.termination, result.iterations) == ("step_tolerance", 1)
    assert np.array_equal(result.params, truth)
    assert result.reduced_chi2 < 1e-18


def test_lorentzian_recovery_with_noise():
    # emission-line scale: FWHM equivalent to 210 GHz at 618.6 nm
    x, y = _lorentzian_data(noise_sigma=10.0, seed=3)
    result = fitkit.fit(fitkit.FitProblem(model_id="lorentzian", x=x, y=y))
    assert result.converged
    center, fwhm = result.params[1], result.params[2]
    assert abs(center - 618.6) < 0.1
    fwhm_ghz = C_NM_GHZ * fwhm / center**2
    assert abs(fwhm_ghz - 210.0) < 20.0


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_noiseless_roundtrip_from_perturbed_start(model_id):
    # zero-noise data refit from a +-10% start recovers truth to 1e-8 relative
    rng = np.random.Generator(np.random.Philox(23))
    x = model_grid(model_id)
    for _ in range(5):
        truth = random_params(model_id, rng)
        y = models.evaluate(model_id, truth, x)
        start = perturb_params(model_id, truth, rng)
        result = fitkit.fit(
            fitkit.FitProblem(model_id=model_id, x=x, y=y, initial_params=start)
        )
        assert result.converged
        scale = np.abs(truth) + 1e-12
        assert np.max(np.abs(result.params - truth) / scale) < 1e-8


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_objective_non_increasing(model_id):
    # noisy data from random starts: Poisson draws for count models, else
    # Gaussian noise at 5% of the curve's span
    rng = np.random.Generator(np.random.Philox(11))
    x = model_grid(model_id)
    for _ in range(5):
        truth = random_params(model_id, rng)
        y = models.evaluate(model_id, truth, x)
        if models.get_model(model_id).noise == "poisson":
            y = rng.poisson(y).astype(float)
        else:
            y = y + rng.normal(0.0, 0.05 * np.ptp(y), x.size)
        start = perturb_params(model_id, truth, rng)
        result = fitkit.fit(
            fitkit.FitProblem(model_id=model_id, x=x, y=y, initial_params=start)
        )
        trace = np.array(result.cost_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) <= 1e-9 * trace[:-1] + 1e-12)


def test_objective_non_increasing_from_a_far_start():
    x, y = _lorentzian_data(noise_sigma=25.0, seed=11)
    start = [600.0, 619.5, 0.6, 0.0]  # center 3.4 line widths off
    result = fitkit.fit(
        fitkit.FitProblem(model_id="lorentzian", x=x, y=y, initial_params=start)
    )
    trace = np.array(result.cost_trace)
    assert np.all(np.diff(trace) <= 1e-9 * trace[:-1] + 1e-12)


def test_poisson_fit_maximizes_the_likelihood():
    # the Poisson score sum((y - mu) / mu * dmu/dp) vanishes at the maximum;
    # least-squares fits of these counts leave it at 0.2 (unweighted) and
    # 3 (Neyman weights) in units of the Fisher sigma
    t = model_grid("exponential_decay")
    rng = np.random.Generator(np.random.Philox(4))
    y = rng.poisson(models.evaluate("exponential_decay", [500.0, 12.2], t)).astype(float)
    result = fitkit.fit(fitkit.FitProblem(model_id="exponential_decay", x=t, y=y))
    assert result.converged
    mu = models.evaluate("exponential_decay", result.params, t)
    J = models.jacobian_matrix("exponential_decay", result.params, t)
    score = J.T @ ((y - mu) / mu)
    fisher_sigma = np.sqrt(np.diag(J.T @ (J / mu[:, None])))
    assert np.all(np.abs(score) / fisher_sigma < 1e-6)


def test_fit_invariant_under_data_reordering():
    x, y = _lorentzian_data(noise_sigma=15.0, seed=7)
    rng = np.random.Generator(np.random.Philox(8))
    perm = rng.permutation(x.size)
    r1 = fitkit.fit(fitkit.FitProblem(model_id="lorentzian", x=x, y=y))
    r2 = fitkit.fit(fitkit.FitProblem(model_id="lorentzian", x=x[perm], y=y[perm]))
    assert np.allclose(r1.params, r2.params, rtol=1e-7)


def test_affine_reparameterization():
    k = 3.7
    x, y = _lorentzian_data(noise_sigma=5.0, seed=5)
    base = fitkit.fit(fitkit.FitProblem(model_id="lorentzian", x=x, y=y)).params
    scaled = fitkit.fit(fitkit.FitProblem(model_id="lorentzian", x=k * x, y=y)).params
    assert scaled[1] == pytest.approx(k * base[1], rel=1e-6)
    assert scaled[2] == pytest.approx(k * base[2], rel=1e-4)

    t = np.linspace(0.0, 60.0, 301)
    y = models.evaluate("exponential_decay", [500.0, 12.2], t)
    tau = fitkit.fit(fitkit.FitProblem(model_id="exponential_decay", x=k * t, y=y)).params[1]
    assert tau == pytest.approx(k * 12.2, rel=1e-8)


def _bits(result):
    return (
        result.params.tobytes(),
        np.ascontiguousarray(result.covariance).tobytes(),
        np.float64(result.reduced_chi2).tobytes(),
        result.iterations,
        result.termination,
        np.array(result.cost_trace).tobytes(),
    )


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_fit_many_matches_each_problem_fitted_alone(model_id):
    # six noisy problems of two lengths, plus a rank-deficient one (constant
    # abscissa: every Jacobian column is constant) and one whose finite start
    # overflows the cost; the batch runs in lockstep per (model, length) group
    rng = np.random.Generator(np.random.Philox(31))
    x = model_grid(model_id)
    poisson = models.get_model(model_id).noise == "poisson"
    problems = []
    for k in range(8):
        truth = random_params(model_id, rng)
        y = models.evaluate(model_id, truth, x)
        y = rng.poisson(y).astype(float) if poisson else y + rng.normal(0.0, 0.05 * np.ptp(y), x.size)
        n = x.size - 9 * (k % 2)
        start = perturb_params(model_id, truth, rng)
        if k == 2:
            xk = np.full(n, x[n // 2])
            problems.append(fitkit.FitProblem(
                model_id=model_id, x=xk, y=models.evaluate(model_id, truth, xk),
                initial_params=truth,
            ))
            continue
        if k == 5:
            start[0] = np.finfo(float).max
        problems.append(
            fitkit.FitProblem(model_id=model_id, x=x[:n], y=y[:n], initial_params=start)
        )
    with pytest.raises(RankDeficiencyError):
        fitkit.fit(problems[2])
    with pytest.raises(DataError, match="non-finite residual .* start point"):
        fitkit.fit(problems[5])
    alone = {i: _bits(fitkit.fit(q)) for i, q in enumerate(problems) if i not in (2, 5)}

    with pytest.raises(RankDeficiencyError) as err:
        fitkit.fit_many(problems)
    assert err.value.problem_index == 2
    results = err.value.results
    assert results[2] is None and results[5] is None
    assert {i: _bits(r) for i, r in enumerate(results) if r is not None} == alone

    good = [q for i, q in enumerate(problems) if i in alone]
    assert [_bits(r) for r in fitkit.fit_many(good)] == list(alone.values())
    with pytest.raises(DataError) as err:
        fitkit.fit_many(good[:3] + [problems[5], problems[2]])
    assert err.value.problem_index == 3


def test_fit_many_bookkeeping_matches_each_problem_fitted_alone(monkeypatch):
    # one batch of a weighted lorentzian group of 40 040 points, above the
    # stack bound, and a Poisson g2 group, from starts far enough off that
    # in some iterations rows accepted on the first try sit beside rows
    # rejected and retried, and the rows stop at different iterations
    rng = np.random.Generator(np.random.Philox(41))
    problems = []
    x = np.linspace(-8.0, 8.0, 1001)
    for k in range(40):
        truth = random_params("lorentzian", rng)
        y = models.evaluate("lorentzian", truth, x) + rng.normal(0.0, 0.5, x.size)
        weights = rng.uniform(0.5, 2.0, x.size) if k % 4 else None
        start = perturb_params("lorentzian", truth, rng, frac=0.5)
        problems.append(fitkit.FitProblem("lorentzian", x, y, weights, start))
    t = model_grid("g2_three_level")
    for _ in range(12):
        truth = random_params("g2_three_level", rng)
        y = rng.poisson(models.evaluate("g2_three_level", truth, t)).astype(float)
        start = perturb_params("g2_three_level", truth, rng, frac=0.3)
        problems.append(fitkit.FitProblem("g2_three_level", t, y, initial_params=start))
    alone = [_bits(fitkit.fit(q)) for q in problems]

    # the rows each damping try solves, per iteration of each stack
    stacks, tries = [], []
    fit_group, normal_equations, solve_rows = (
        fitkit._fit_group, fitkit._normal_equations, fitkit._solve_rows)

    def probe_group(model, blocks):
        stacks.append((model.name, sum(len(y) for _, y, _, _ in blocks)))
        return fit_group(model, blocks)

    def probe_iteration(*args):
        tries.append((stacks[-1][0], []))
        return normal_equations(*args)

    def probe_try(A, b):
        tries[-1][1].append(len(A))
        return solve_rows(A, b)

    monkeypatch.setattr(fitkit, "_fit_group", probe_group)
    monkeypatch.setattr(fitkit, "_normal_equations", probe_iteration)
    monkeypatch.setattr(fitkit, "_solve_rows", probe_try)
    assert [_bits(r) for r in fitkit.fit_many(problems)] == alone
    assert stacks == [("lorentzian", 32), ("lorentzian", 8), ("g2_three_level", 12)]
    for name in ("lorentzian", "g2_three_level"):
        mixed = [n for model, n in tries if model == name and len(n) > 1 and 0 < n[1] < n[0]]
        assert mixed, name
    for group in (alone[:40], alone[40:]):
        assert len({iterations for *_, iterations, _, _ in group}) > 1


def test_fit_many_in_length_blocks_matches_each_problem_fitted_alone(monkeypatch):
    # one batch of two models, each with four window lengths in interleaved
    # order, so each model runs one loop of four length blocks; the starts
    # are far enough off that rows of several blocks are rejected and tried
    # again in one iteration, the rows stop at different iterations, and one
    # row of each model fails: a rank-deficient lorentzian (constant
    # abscissa) and a g2 start whose cost overflows
    rng = np.random.Generator(np.random.Philox(43))
    problems, failing = [], {}
    for model_id, frac in (("lorentzian", 0.5), ("g2_three_level", 0.3)):
        x = model_grid(model_id)
        poisson = models.get_model(model_id).noise == "poisson"
        for k in range(24):
            n = x.size - 7 * (k % 4)
            truth = random_params(model_id, rng)
            y = models.evaluate(model_id, truth, x[:n])
            y = rng.poisson(y).astype(float) if poisson else y + rng.normal(0.0, 0.05 * np.ptp(y), n)
            start = perturb_params(model_id, truth, rng, frac=frac)
            xk = x[:n]
            if k == 9 and not poisson:
                xk, failing[len(problems)] = np.full(n, x[n // 2]), RankDeficiencyError
            if k == 14 and poisson:
                start[0], failing[len(problems)] = np.finfo(float).max, DataError
            problems.append(fitkit.FitProblem(model_id, xk, y, initial_params=start))
    alone = {}
    for i, q in enumerate(problems):
        if i in failing:
            with pytest.raises(failing[i]):
                fitkit.fit(q)
        else:
            alone[i] = _bits(fitkit.fit(q))

    # the lengths of each loop, and the blocks each damping try after the
    # first holds rows of: the rows a try picks of each block right after
    # its solve (the first try of an iteration with every row in reuses the
    # rows still iterating, which are picked only when rows stop)
    loops, retried, tries = [], [], []
    fit_group, picks, normal_equations, solve_rows = (
        fitkit._fit_group, fitkit._picks, fitkit._normal_equations, fitkit._solve_rows)

    def probe_group(model, blocks):
        loops.append((model.name, sorted({x.shape[1] for x, _, _, _ in blocks})))
        return fit_group(model, blocks)

    def probe_iteration(*args):
        tries.clear()
        return normal_equations(*args)

    def probe_try(A, b):
        tries.append(True)
        return solve_rows(A, b)

    def probe_picks(index, starts):
        if len(tries) > 1 and tries[-1]:
            tries[-1] = False
            blocks = np.diff(np.searchsorted(index, starts))
            retried.append((loops[-1][0], int(np.count_nonzero(blocks))))
        return picks(index, starts)

    monkeypatch.setattr(fitkit, "_fit_group", probe_group)
    monkeypatch.setattr(fitkit, "_normal_equations", probe_iteration)
    monkeypatch.setattr(fitkit, "_solve_rows", probe_try)
    monkeypatch.setattr(fitkit, "_picks", probe_picks)
    with pytest.raises(RankDeficiencyError) as err:
        fitkit.fit_many(problems)
    assert err.value.problem_index == min(failing)
    results = err.value.results
    assert [i for i, r in enumerate(results) if r is None] == sorted(failing)
    assert {i: _bits(r) for i, r in enumerate(results) if r is not None} == alone
    assert [(name, len(lengths)) for name, lengths in loops] == [
        ("lorentzian", 4), ("g2_three_level", 4)]
    for name in ("lorentzian", "g2_three_level"):
        assert max(n for model, n in retried if model == name) > 1, name
    for first in (0, 24):
        assert len({alone[i][3] for i in range(first, first + 24) if i in alone}) > 1

    # without the failing rows the batch raises nothing, and with only the
    # g2 one it raises that row's error at its position
    good = [q for i, q in enumerate(problems) if i in alone]
    assert [_bits(r) for r in fitkit.fit_many(good)] == list(alone.values())
    g2 = max(failing)
    with pytest.raises(DataError) as err:
        fitkit.fit_many(good[:30] + [problems[g2]] + good[30:])
    assert err.value.problem_index == 30
    assert [_bits(r) for r in err.value.results if r is not None] == list(alone.values())


def test_loops_are_the_fewest_runs_within_the_stack_bound():
    # mixed lengths, some above the bound on their own: every problem in one
    # run, in order; a run of more than one problem within the bound; and as
    # few runs as filling each run to the bound gives
    rng = np.random.Generator(np.random.Philox(7))
    bound = fitkit._MAX_STACK_POINTS
    for _ in range(300):
        sizes = rng.integers(2, 3000, rng.integers(1, 80)).tolist()
        if rng.random() < 0.2:
            sizes[rng.integers(len(sizes))] = bound + 1
        runs = fitkit._loops(sizes)
        assert [i for run in runs for i in run] == list(range(len(sizes)))
        assert all(len(run) == 1 or sum(sizes[i] for i in run) <= bound for run in runs)
        filled, points = 1, 0
        for n in sizes:
            if points and points + n > bound:
                filled, points = filled + 1, 0
            points += n
        assert len(runs) == filled


def test_singular_system_in_a_stack_leaves_the_other_rows_solved():
    # one singular system makes the stacked solve raise; the per-row
    # fallback must still solve every other system as it would alone, for
    # a vector right-hand side and for the identity, where each row is bit
    # for bit that matrix's own np.linalg.inv
    rng = np.random.Generator(np.random.Philox(5))
    A, b = rng.normal(size=(5, 3, 3)), rng.normal(size=(5, 3, 1))
    A[2] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
    for rhs, alone in ((b, lambda k: np.linalg.solve(A[k], b[k])),
                       (np.eye(3), lambda k: np.linalg.inv(A[k]))):
        out, singular = fitkit._solve_rows(A, rhs)
        assert out.shape == (5, 3, rhs.shape[-1])
        assert singular.tolist() == [False, False, True, False, False]
        assert np.all(np.isnan(out[2]))
        for k in (0, 1, 3, 4):
            assert np.array_equal(out[k], alone(k)), k


def test_identity_solve_is_the_inverse_bit_for_bit():
    # the covariance is the solve against the identity: on stacks of every
    # parameter count of the registry, each row equals np.linalg.inv of
    # that matrix alone, as a stack and one by one
    rng = np.random.Generator(np.random.Philox(11))
    for n_params in range(2, 7):
        for _ in range(40):
            J = rng.normal(size=(8, 3 * n_params, n_params)) * rng.uniform(1e-3, 1e3, n_params)
            H = J.transpose(0, 2, 1) @ J
            out, singular = fitkit._solve_rows(H, np.eye(n_params))
            assert not singular.any()
            assert np.array_equal(out, np.linalg.inv(H))
            for k in range(len(H)):
                assert np.array_equal(out[k], np.linalg.inv(H[k])), (n_params, k)


def test_singular_normal_matrix_at_the_fitted_point_gives_a_nan_covariance():
    # lifetime counts fitted with the g2 model converge where the normal
    # matrix is exactly singular: its covariance is NaN, not a pseudo-inverse
    # with a negative eigenvalue (the iteration count, 34 to 64, depends on
    # the BLAS kernel's JtJ bits)
    ds = synthlab.generate(synthlab.preset("lifetime_4k", seed=0))
    result = fitkit.fit(fitkit.FitProblem("g2_three_level", ds.x, ds.y))
    assert result.converged
    assert np.isnan(result.covariance).all()

    # a report step refuses a NaN covariance as a fit quality failure (exit
    # 3), before the report's JSON would refuse the NaN as invalid (exit 2)
    x, y = _lorentzian_data(noise_sigma=10.0, seed=3)
    problem = fitkit.FitProblem(model_id="lorentzian", x=x, y=y)
    fitted = fitkit.fit(problem)
    assert fitted.to_report_step(problem)["outputs"]["data_digest"] == problem.data_digest()
    singular = dataclasses.replace(fitted, covariance=np.full((4, 4), np.nan))
    with pytest.raises(FitQualityError, match="singular normal matrix"):
        singular.to_report_step(problem)


def test_g2_fit_from_relabelled_start_reports_ordered_rates():
    # (c, beta, g1, g2) and (-c, 1-beta, g2, g1) are the same curve; the
    # result is relabelled to gamma1 > gamma2 and keeps the same g2(0)
    ds = synthlab.generate(synthlab.preset("g2_dip", seed=7))
    default = fitkit.FitProblem(model_id="g2_three_level", x=ds.x, y=ds.y)
    c, beta, g1, g2, t0, plateau = default.initial_params
    relabelled = fitkit.FitProblem(
        model_id="g2_three_level", x=ds.x, y=ds.y,
        initial_params=[-c, 1.0 - beta, g2, g1, t0, plateau],
    )
    expected, result = fitkit.fit(default), fitkit.fit(relabelled)
    assert result.converged
    assert result.params[2] > result.params[3]
    derived = models.get_model("g2_three_level").derived
    assert derived(result.params)["g2_at_t0"] == pytest.approx(
        derived(expected.params)["g2_at_t0"], rel=1e-9
    )


def test_rank_deficiency_names_parameters():
    x = np.full(10, 2.0)
    y = np.linspace(0.0, 1.0, 10)
    with pytest.raises(RankDeficiencyError) as err:
        fitkit.fit(fitkit.FitProblem(model_id="linear", x=x, y=y))
    assert "slope" in str(err.value) or "intercept" in str(err.value)
    assert err.value.parameters


def test_nonfinite_data_rejected_with_index():
    y = np.ones(10)
    y[4] = np.nan
    with pytest.raises(DataError) as err:
        fitkit.FitProblem(model_id="linear", x=np.arange(10.0), y=y)
    assert err.value.index == 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_start_refused_with_parameter_name(bad):
    with pytest.raises(ValidationError, match="initial value of tau must be finite") as err:
        fitkit.FitProblem(
            model_id="exponential_decay", x=[0.0, 1.0, 2.0], y=[9.0, 4.0, 2.0],
            initial_params=[9.0, bad],
        )
    assert not isinstance(err.value, DataError)


def test_problem_validation():
    with pytest.raises(InsufficientDataError):
        fitkit.FitProblem(model_id="lorentzian", x=[1.0, 2.0], y=[1.0, 2.0])
    with pytest.raises(DataError):
        fitkit.FitProblem(
            model_id="linear", x=[1.0, 2.0], y=[1.0, 2.0], weights=[1.0, -1.0]
        )
    with pytest.raises(ValidationError, match="Poisson"):  # the likelihood sets them
        fitkit.FitProblem(
            model_id="exponential_decay", x=[0.0, 1.0, 2.0], y=[9.0, 4.0, 2.0],
            weights=[1.0, 1.0, 1.0],
        )
    with pytest.raises(DataError, match="negative count at index 2") as err:
        fitkit.FitProblem(
            model_id="exponential_decay", x=[0.0, 1.0, 2.0], y=[9.0, 4.0, -2.0]
        )
    assert err.value.index == 2


def _stack_rows(model_id, n=12, rows=5):
    # (x, y, weights, starts) of a stack of good rows, the starts given
    rng = np.random.Generator(np.random.Philox(3))
    grid = model_grid(model_id)[:n]
    x, y, starts = np.tile(grid, (rows, 1)), [], []
    for _ in range(rows):
        truth = random_params(model_id, rng)
        y.append(models.evaluate(model_id, truth, grid))
        starts.append(perturb_params(model_id, truth, rng))
    return x, np.array(y), rng.uniform(0.5, 2.0, x.shape), np.array(starts)


def _spoil(kind, j):
    """(model_id, x, y, weights, starts) of a stack whose row j has the
    fault ``kind``, or every row for a fault of the whole stack."""
    model_id = {"negative count": "exponential_decay", "weights on a Poisson model":
                "exponential_decay", "start out of bounds": "saturation"}.get(kind, "lorentzian")
    x, y, w, p0 = _stack_rows(model_id, n=3 if kind == "too few points" else 12)
    if kind not in ("weights on a Poisson model", "bad weights", "weights of another length"):
        w = None
    if kind == "non-finite x":
        x[j, 7] = np.nan
    elif kind == "non-finite y":
        y[j, 4] = -np.inf
    elif kind == "negative count":
        y[j, 9] = -1.0
    elif kind == "bad weights":
        w[j, 5] = 0.0
    elif kind == "weights of another length":
        w = w[:, :-1]
    elif kind == "wrong start size":
        p0 = p0[:, :-1]
    elif kind == "non-finite start":
        p0[j, 2] = np.inf
    elif kind == "start out of bounds":
        p0[j, 1] = -1.0
    elif kind == "non-finite y, heuristic starts":
        y[j, 0] = np.nan
        p0 = None
    return model_id, x, y, w, p0


def _stacked(model_id, x, y, w=None, p0=None):
    # the problems of a checked stack, one a row, as FitProblem fields
    x, y, w, p0 = fitkit._validated(models.get_model(model_id), x, y, w, p0)
    return [SimpleNamespace(x=x[k], y=y[k], weights=None if w is None else w[k],
                            initial_params=p0[k]) for k in range(len(y))]


def _refusal(build):
    # what a build raises: class, message, point index and row
    with pytest.raises(ValidationError) as err:
        build()
    error = err.value
    return type(error), str(error), getattr(error, "index", None), error.problem_index


@pytest.mark.parametrize("j", [0, 2, 4])
@pytest.mark.parametrize("kind", [
    "too few points", "non-finite x", "non-finite y", "negative count",
    "weights on a Poisson model", "bad weights", "weights of another length",
    "wrong start size", "non-finite start", "start out of bounds",
    "non-finite y, heuristic starts"])
def test_stacked_build_refuses_as_its_first_bad_row_alone(kind, j):
    # a fault of the whole stack is a fault of its row 0
    model_id, x, y, w, p0 = _spoil(kind, j)
    whole = kind in ("too few points", "weights on a Poisson model",
                     "weights of another length", "wrong start size")
    row = 0 if whole else j
    *alone, _ = _refusal(lambda: fitkit.FitProblem(
        model_id, x[row], y[row], None if w is None else w[row],
        None if p0 is None else p0[row]))
    assert _refusal(lambda: _stacked(model_id, x, y, w, p0)) == (*alone, row)


def test_stacked_build_reports_the_first_row_in_order():
    # a start fault in row 1 comes before a data fault in row 3; within
    # row 2 a data fault comes before its start fault, as alone
    x, y, _, p0 = _stack_rows("saturation")
    y[3, 2], p0[1, 0] = np.nan, -1.0
    with pytest.raises(ValidationError, match="within bounds") as err:
        _stacked("saturation", x, y, p0=p0)
    assert err.value.problem_index == 1
    p0[1, 0], y[2, 6], p0[2, 1] = 1.0, np.inf, np.nan
    with pytest.raises(DataError, match="non-finite y at index 6") as err:
        _stacked("saturation", x, y, p0=p0)
    assert (err.value.problem_index, err.value.index) == (2, 6)
    # the x check flags row 1 before the y check flags rows 2 and 3
    x[1, 4] = np.nan
    with pytest.raises(DataError, match="non-finite x at index 4") as err:
        _stacked("saturation", x, y, p0=p0)
    assert (err.value.problem_index, err.value.index) == (1, 4)


def test_stacked_build_names_the_row_its_start_rule_refuses():
    # a rising window has no decay to start from: its row is named, as in
    # every other refusal of a stack, and its message is the one it meets alone
    t = np.linspace(0.0, 20.0, 40)
    y = np.tile(np.rint(500.0 * np.exp(-t / 4.0)), (4, 1))
    y[2] = y[2, ::-1]
    with pytest.raises(FitQualityError, match="not decaying") as alone:
        fitkit.FitProblem("exponential_decay", t, y[2])
    with pytest.raises(FitQualityError) as err:
        _stacked("exponential_decay", np.tile(t, (4, 1)), y)
    assert err.value.problem_index == 2
    assert str(err.value) == str(alone.value)


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_stacked_build_equals_each_problem_built_alone(model_id):
    # given starts, and heuristic ones (for saturation clipped into the
    # bounds: the first rows' i_sat start is negative)
    x, y, w, p0 = _stack_rows(model_id)
    if model_id == "saturation":
        y[:2] *= -1.0
    w = None if models.get_model(model_id).noise == "poisson" else w
    for starts in (p0, None):
        stack = _stacked(model_id, x, y, w, starts)
        for k, problem in enumerate(stack):
            alone = fitkit.FitProblem(model_id, x[k], y[k], None if w is None else w[k],
                                      None if starts is None else starts[k])
            for name in ("x", "y", "weights", "initial_params"):
                a, b = getattr(problem, name), getattr(alone, name)
                assert (a is None and b is None) or a.tobytes() == b.tobytes(), (k, name)
    if model_id == "saturation":
        assert stack[0].initial_params[0] == 1e-12


def test_bootstrap_noiseless_sigma_is_zero():
    x, y = _lorentzian_data()
    problem = fitkit.FitProblem(model_id="lorentzian", x=x, y=y)
    result = fitkit.fit(problem)
    sigma = fitkit.bootstrap_uncertainty(problem, result, n_resamples=20, seed=1)
    assert np.all(sigma <= 1e-8 * (np.abs(result.params) + 1.0))


def test_bootstrap_agrees_with_covariance():
    # a line with uniform noise, and one whose noise jumps from 0.05 to 2.0
    # at x = 5 (weights 1/sigma): raw residuals resampled across the jump
    # would give the second the spread of its noisiest points, a slope
    # sigma some 27 times the covariance's
    rng = np.random.Generator(np.random.Philox(42))
    x = np.linspace(0.0, 10.0, 120)
    y = 2.0 * x + 1.0 + rng.normal(0.0, 0.5, x.size)
    x_w = np.linspace(0.0, 10.0, 40)
    sigma = np.where(x_w < 5.0, 0.05, 2.0)
    y_w = 2.0 * x_w + 1.0 + rng.normal(0.0, sigma)
    for problem in (fitkit.FitProblem(model_id="linear", x=x, y=y),
                    fitkit.FitProblem(model_id="linear", x=x_w, y=y_w, weights=1.0 / sigma)):
        result = fitkit.fit(problem)
        boot = fitkit.bootstrap_uncertainty(problem, result, n_resamples=400, seed=2)
        assert np.all(np.abs(boot - result.sigmas) <= 0.3 * result.sigmas)


def test_bootstrap_sigma_matches_thermal_drift_precision():
    # straight-line drift-vs-temperature fit at typical tracking noise:
    # the expansion-coefficient uncertainty comes out near 3e-8 per kelvin
    rng = np.random.Generator(np.random.Philox(55))
    l_ref_nm = 3700.0
    temps = np.linspace(285.0, 295.0, 25)
    slope = 5.1e-6 * l_ref_nm
    y = slope * (temps - temps[0]) + rng.normal(0.0, 1.6e-3, temps.size)
    problem = fitkit.FitProblem(model_id="linear", x=temps, y=y)
    result = fitkit.fit(problem)
    boot = fitkit.bootstrap_uncertainty(problem, result, n_resamples=400, seed=6)
    sigma_alpha = boot[0] / l_ref_nm
    assert 0.015e-6 < sigma_alpha < 0.06e-6
    assert abs(boot[0] - result.sigmas[0]) <= 0.3 * result.sigmas[0]


def test_bootstrap_draws_counts_for_a_poisson_model():
    # resampled residuals would put negative counts into the empty tail bins
    # of a decay and triple sigma_tau; Poisson draws around the fitted curve
    # agree with the covariance
    ds = synthlab.generate(synthlab.preset("lifetime_4k", seed=7))
    problem = fitkit.FitProblem(model_id="exponential_decay", x=ds.x, y=ds.y)
    result = fitkit.fit(problem)
    boot = fitkit.bootstrap_uncertainty(problem, result, n_resamples=200, seed=7)
    assert abs(boot[1] - result.sigmas[1]) <= 0.3 * result.sigmas[1]


def test_bootstrap_refits_hold_one_loop_at_a_time():
    # each refit loop's stacked x and weights are freed once its parameters
    # are read: the traced peak of 200 g2_dip resamples was 4.23 times the
    # resamples' float bytes with every loop's results alive to the end,
    # and is 2.58 times them a loop at a time
    ds = synthlab.generate(synthlab.preset("g2_dip", seed=7))
    problem = fitkit.FitProblem(model_id="g2_three_level", x=ds.x, y=ds.y)
    result = fitkit.fit(problem)
    tracemalloc.start()
    try:
        fitkit.bootstrap_uncertainty(problem, result, n_resamples=200, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 200 * ds.x.size * 8



def test_bootstrap_spread_that_overflows_is_a_fit_quality_error():
    # a g2 dip on a plateau of 5 counts fits to its step tolerance, but its
    # refitted gamma1 spreads past the float range: the bootstrap names it,
    # and squaring that spread warns of no overflow
    spec = synthlab.preset("g2_dip", seed=1)
    plateau = spec.true_params[-1] * (5 / 1500)
    spec = dataclasses.replace(spec, true_params=(*spec.true_params[:-1], plateau))
    ds = synthlab.generate(spec)
    problem = fitkit.FitProblem(model_id="g2_three_level", x=ds.x, y=ds.y)
    result = fitkit.fit(problem)
    assert (result.termination, result.iterations) == ("step_tolerance", 25)
    for seed in (0, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitQualityError) as err:
                fitkit.bootstrap_uncertainty(problem, result, 10, seed)
        assert str(err.value) == "bootstrap spread of gamma1 over 10 resamples is not finite"


def _fit_problems_alive():
    return sum(type(o) is fitkit.FitProblem for o in gc.get_objects())


def test_stacks_reach_the_loop_as_views_without_fit_problems(monkeypatch):
    # the seed-43 drift windows and 200 lifetime_4k resamples reach the LM
    # loop as the stacks they were checked as: no FitProblem is built, not
    # even one a row without its checks, and every block the loop takes
    # shares memory with the checked stack it came from
    ds = synthlab.generate(synthlab.preset("lifetime_4k", seed=7))
    problem = fitkit.FitProblem(model_id="exponential_decay", x=ds.x, y=ds.y)
    result = fitkit.fit(problem)
    drift_map = synthlab.generate_drift_map(seed=43)[0]
    validated, fit_group = fitkit._validated, fitkit._fit_group
    checked, blocks, alive = [], [], []

    def probe_validated(*args):
        checked.append(validated(*args))
        return checked[-1]

    def probe_group(model, group):
        alive.append(_fit_problems_alive())
        blocks.extend(group)
        return fit_group(model, group)

    def no_problem(self):
        raise AssertionError("a FitProblem was built")

    monkeypatch.setattr(fitkit, "_validated", probe_validated)
    monkeypatch.setattr(fitkit, "_fit_group", probe_group)
    monkeypatch.setattr(fitkit.FitProblem, "__post_init__", no_problem)
    for run in (lambda: optics.drift_series(drift_map, l_eff_um=3.7),
                lambda: fitkit.bootstrap_uncertainty(problem, result, 200, seed=7)):
        checked.clear(), blocks.clear(), alive.clear()
        gc.collect()
        before = _fit_problems_alive()
        run()
        assert alive and max(alive) <= before
        for x, y, _, p0 in blocks:
            assert any(np.shares_memory(x, cx) and np.shares_memory(y, cy)
                       and np.shares_memory(p0, cp0) for cx, cy, _, cp0 in checked)

# The Poisson refits at the benchmark's size, as float.hex: the bootstrap
# sigmas of lifetime_4k seed 7 over 200 resamples, then the g2_dip seed 7
# fit's params, its covariance row by row and its cost trace. OpenBLAS's
# kernels sum the normal matrices and invert them in different orders, so
# each kernel family has its own last bits: AVX-512 (SkylakeX), AVX2
# (Haswell, Zen), AVX (Sandybridge), SSE4 (Nehalem, Barcelona, Atom) and
# SSE3 (Prescott, Core2).
_REFIT_PINS = {
    "SkylakeX": """
        0x1.39c9ddd896d12p+2 0x1.4c773dd10e4bap-4 -0x1.1938bef1881fdp+0 0x1.b6bbfc02dbc94p-1
        0x1.4765231c03cd7p-4 0x1.47c60315c6a94p-8 0x1.59142cec425bfp-5 0x1.766419565ea16p+10
        0x1.916d4dc6388b6p-13 0x1.11ad63f2a1d3cp-15 0x1.039c19e99a74bp-18 -0x1.1069fdaec6a87p-19
        -0x1.114b970a77aedp-12 -0x1.b7be97643cf5ep-10 0x1.11ad63f2a1d39p-15 0x1.47f2e8e253b81p-16
        0x1.b07f720296e2fp-18 -0x1.b46a9f465b5b3p-21 0x1.4cd976042e6e1p-14 -0x1.631a8d58d24d1p-11
        0x1.039c19e99a73fp-18 0x1.b07f720296e2fp-18 0x1.f90f789400f51p-19 -0x1.f339be7df7fcdp-23
        0x1.8170d1f49748bp-15 -0x1.58a7e3284c454p-12 -0x1.1069fdaec6a87p-19 -0x1.b46a9f465b5b1p-21
        -0x1.f339be7df7fcdp-23 0x1.071d36f1f839ep-24 -0x1.8104a0d881156p-20 0x1.2c17b71166e07p-13
        -0x1.114b970a77aeep-12 0x1.4cd976042e6e6p-14 0x1.8170d1f49748fp-15 -0x1.8104a0d88115ap-20
        0x1.3ca179f35a456p-7 -0x1.f74c322f5bcc9p-10 -0x1.b7be97643cf43p-10 -0x1.631a8d58d24c4p-11
        -0x1.58a7e3284c452p-12 0x1.2c17b71166e05p-13 -0x1.f74c322f5bccdp-10 0x1.4e77771b35c2bp+0
        0x1.139dc5462f5fdp+11 0x1.fa13e989a26e2p+10 0x1.f4499daf3c830p+10 0x1.f43b8b0354f1ep+10
        0x1.f43b85c91d167p+10 0x1.f43b85c65e4bep+10 0x1.f43b85c65cc5fp+10 0x1.f43b85c65cc52p+10
        0x1.f43b85c65cc52p+10 0x1.f43b85c65cc4fp+10
    """,
    "Haswell": """
        0x1.39c9ddd896d12p+2 0x1.4c773dd10e4bap-4 -0x1.1938bef1881fdp+0 0x1.b6bbfc02dbc94p-1
        0x1.4765231c03cd7p-4 0x1.47c60315c6a94p-8 0x1.59142cec425c1p-5 0x1.766419565ea16p+10
        0x1.916d4dc6388b8p-13 0x1.11ad63f2a1d32p-15 0x1.039c19e99a71fp-18 -0x1.1069fdaec6a75p-19
        -0x1.114b970a77afap-12 -0x1.b7be97643cf08p-10 0x1.11ad63f2a1d2fp-15 0x1.47f2e8e253b75p-16
        0x1.b07f720296e1fp-18 -0x1.b46a9f465b594p-21 0x1.4cd976042e6cbp-14 -0x1.631a8d58d24a5p-11
        0x1.039c19e99a727p-18 0x1.b07f720296e21p-18 0x1.f90f789400f47p-19 -0x1.f339be7df7facp-23
        0x1.8170d1f49747cp-15 -0x1.58a7e3284c446p-12 -0x1.1069fdaec6a7dp-19 -0x1.b46a9f465b597p-21
        -0x1.f339be7df7faap-23 0x1.071d36f1f838fp-24 -0x1.8104a0d881108p-20 0x1.2c17b71166dfep-13
        -0x1.114b970a77af8p-12 0x1.4cd976042e6d1p-14 0x1.8170d1f497481p-15 -0x1.8104a0d88111bp-20
        0x1.3ca179f35a455p-7 -0x1.f74c322f5bcc6p-10 -0x1.b7be97643cf29p-10 -0x1.631a8d58d24a5p-11
        -0x1.58a7e3284c43fp-12 0x1.2c17b71166dffp-13 -0x1.f74c322f5bc86p-10 0x1.4e77771b35c2bp+0
        0x1.139dc5462f5fdp+11 0x1.fa13e989a26e2p+10 0x1.f4499daf3c830p+10 0x1.f43b8b0354f1ep+10
        0x1.f43b85c91d167p+10 0x1.f43b85c65e4bep+10 0x1.f43b85c65cc5fp+10 0x1.f43b85c65cc52p+10
        0x1.f43b85c65cc52p+10 0x1.f43b85c65cc4fp+10
    """,
    "Sandybridge": """
        0x1.39c9ddd896d11p+2 0x1.4c773dd10e4bap-4 -0x1.1938bef1881fdp+0 0x1.b6bbfc02dbc94p-1
        0x1.4765231c03cd7p-4 0x1.47c60315c6a93p-8 0x1.59142cec42606p-5 0x1.766419565ea16p+10
        0x1.916d4dc6388c0p-13 0x1.11ad63f2a1d48p-15 0x1.039c19e99a756p-18 -0x1.1069fdaec6a87p-19
        -0x1.114b970a77ae9p-12 -0x1.b7be97643cf5ap-10 0x1.11ad63f2a1d42p-15 0x1.47f2e8e253b86p-16
        0x1.b07f720296e32p-18 -0x1.b46a9f465b5b2p-21 0x1.4cd976042e6d4p-14 -0x1.631a8d58d24d2p-11
        0x1.039c19e99a750p-18 0x1.b07f720296e35p-18 0x1.f90f789400f52p-19 -0x1.f339be7df7fccp-23
        0x1.8170d1f49747fp-15 -0x1.58a7e3284c45fp-12 -0x1.1069fdaec6a8cp-19 -0x1.b46a9f465b5b3p-21
        -0x1.f339be7df7fcap-23 0x1.071d36f1f839bp-24 -0x1.8104a0d881130p-20 0x1.2c17b71166e07p-13
        -0x1.114b970a77aebp-12 0x1.4cd976042e6d3p-14 0x1.8170d1f49747cp-15 -0x1.8104a0d88112cp-20
        0x1.3ca179f35a453p-7 -0x1.f74c322f5bcc3p-10 -0x1.b7be97643cf4ep-10 -0x1.631a8d58d24c2p-11
        -0x1.58a7e3284c450p-12 0x1.2c17b71166e04p-13 -0x1.f74c322f5bca4p-10 0x1.4e77771b35c2cp+0
        0x1.139dc5462f5fdp+11 0x1.fa13e989a26dbp+10 0x1.f4499daf3c830p+10 0x1.f43b8b0354f1ep+10
        0x1.f43b85c91d167p+10 0x1.f43b85c65e4bep+10 0x1.f43b85c65cc60p+10 0x1.f43b85c65cc52p+10
        0x1.f43b85c65cc52p+10 0x1.f43b85c65cc4fp+10
    """,
    "Nehalem": """
        0x1.39c9ddd896d12p+2 0x1.4c773dd10e4bap-4 -0x1.1938bef1881fdp+0 0x1.b6bbfc02dbc94p-1
        0x1.4765231c03cd6p-4 0x1.47c60315c6a94p-8 0x1.59142cec425dcp-5 0x1.766419565ea16p+10
        0x1.916d4dc6388b8p-13 0x1.11ad63f2a1d44p-15 0x1.039c19e99a768p-18 -0x1.1069fdaec6a8bp-19
        -0x1.114b970a77aecp-12 -0x1.b7be97643cf4ap-10 0x1.11ad63f2a1d42p-15 0x1.47f2e8e253b89p-16
        0x1.b07f720296e35p-18 -0x1.b46a9f465b5b5p-21 0x1.4cd976042e6d8p-14 -0x1.631a8d58d24c4p-11
        0x1.039c19e99a759p-18 0x1.b07f720296e3ap-18 0x1.f90f789400f54p-19 -0x1.f339be7df7fd2p-23
        0x1.8170d1f497481p-15 -0x1.58a7e3284c453p-12 -0x1.1069fdaec6a89p-19 -0x1.b46a9f465b5b4p-21
        -0x1.f339be7df7fcbp-23 0x1.071d36f1f839ap-24 -0x1.8104a0d88113ap-20 0x1.2c17b71166e02p-13
        -0x1.114b970a77ae9p-12 0x1.4cd976042e6dcp-14 0x1.8170d1f497483p-15 -0x1.8104a0d881144p-20
        0x1.3ca179f35a454p-7 -0x1.f74c322f5bc8ep-10 -0x1.b7be97643cf39p-10 -0x1.631a8d58d24bdp-11
        -0x1.58a7e3284c44dp-12 0x1.2c17b71166e00p-13 -0x1.f74c322f5bcc0p-10 0x1.4e77771b35c28p+0
        0x1.139dc5462f5fdp+11 0x1.fa13e989a26e4p+10 0x1.f4499daf3c82fp+10 0x1.f43b8b0354f1ep+10
        0x1.f43b85c91d167p+10 0x1.f43b85c65e4bep+10 0x1.f43b85c65cc5fp+10 0x1.f43b85c65cc51p+10
        0x1.f43b85c65cc51p+10 0x1.f43b85c65cc4fp+10
    """,
    "Prescott": """
        0x1.39c9ddd896d11p+2 0x1.4c773dd10e4bap-4 -0x1.1938bef1881fdp+0 0x1.b6bbfc02dbc94p-1
        0x1.4765231c03cd7p-4 0x1.47c60315c6a93p-8 0x1.59142cec42609p-5 0x1.766419565ea16p+10
        0x1.916d4dc6388bdp-13 0x1.11ad63f2a1d35p-15 0x1.039c19e99a747p-18 -0x1.1069fdaec6a87p-19
        -0x1.114b970a77aefp-12 -0x1.b7be97643cf90p-10 0x1.11ad63f2a1d39p-15 0x1.47f2e8e253b7cp-16
        0x1.b07f720296e28p-18 -0x1.b46a9f465b5a7p-21 0x1.4cd976042e6cap-14 -0x1.631a8d58d24e3p-11
        0x1.039c19e99a73ap-18 0x1.b07f720296e28p-18 0x1.f90f789400f4ep-19 -0x1.f339be7df7fbfp-23
        0x1.8170d1f49747bp-15 -0x1.58a7e3284c467p-12 -0x1.1069fdaec6a89p-19 -0x1.b46a9f465b5a7p-21
        -0x1.f339be7df7fc0p-23 0x1.071d36f1f8399p-24 -0x1.8104a0d881114p-20 0x1.2c17b71166e0ep-13
        -0x1.114b970a77aefp-12 0x1.4cd976042e6ccp-14 0x1.8170d1f49747ap-15 -0x1.8104a0d881118p-20
        0x1.3ca179f35a451p-7 -0x1.f74c322f5bca7p-10 -0x1.b7be97643cf6ep-10 -0x1.631a8d58d24d8p-11
        -0x1.58a7e3284c45fp-12 0x1.2c17b71166e0bp-13 -0x1.f74c322f5bca2p-10 0x1.4e77771b35c2fp+0
        0x1.139dc5462f5fdp+11 0x1.fa13e989a26d8p+10 0x1.f4499daf3c830p+10 0x1.f43b8b0354f1ep+10
        0x1.f43b85c91d166p+10 0x1.f43b85c65e4bep+10 0x1.f43b85c65cc60p+10 0x1.f43b85c65cc52p+10
        0x1.f43b85c65cc52p+10 0x1.f43b85c65cc4fp+10
    """,
}


def test_poisson_refits_keep_their_bits():
    ds = synthlab.generate(synthlab.preset("lifetime_4k", seed=7))
    problem = fitkit.FitProblem(model_id="exponential_decay", x=ds.x, y=ds.y)
    sigma = fitkit.bootstrap_uncertainty(problem, fitkit.fit(problem), n_resamples=200, seed=7)
    ds = synthlab.generate(synthlab.preset("g2_dip", seed=7))
    g2 = fitkit.fit(fitkit.FitProblem(model_id="g2_three_level", x=ds.x, y=ds.y))
    values = [*sigma.tolist(), *g2.params.tolist(), *g2.covariance.ravel().tolist(),
              *g2.cost_trace]
    assert [v.hex() for v in values] in [pins.split() for pins in _REFIT_PINS.values()]


def test_termination_names_why_the_loop_stopped(monkeypatch):
    x, y = _lorentzian_data(noise_sigma=5.0, seed=3)
    problem = fitkit.FitProblem(model_id="lorentzian", x=x, y=y)
    result = fitkit.fit(problem)
    assert (result.termination, result.converged) == ("step_tolerance", True)

    monkeypatch.setattr(fitkit, "_MAX_ITER", 2)
    capped = fitkit.fit(problem)
    assert (capped.termination, capped.converged, capped.iterations) == ("max_iter", False, 2)
    monkeypatch.undo()

    # no trial point passes the accept test, not even a step that the
    # damping has rounded to zero: all 60 tries of iteration 1 are rejected
    monkeypatch.setattr(fitkit, "_COST_SLACK", -1.0)
    stuck = fitkit.fit(problem)
    assert (stuck.termination, stuck.converged, stuck.iterations) == ("no_descent", False, 1)
    assert np.array_equal(stuck.params, problem.initial_params)
    assert stuck.cost_trace == capped.cost_trace[:1]


def test_a_step_damped_to_zero_after_rejections_is_no_descent(monkeypatch):
    # the model is NaN off its start point, so every trial point is
    # rejected until the damping rounds the step to zero; that zero step
    # passes the step test but found no descent
    x, y = _lorentzian_data(noise_sigma=5.0, seed=3)
    start = fitkit.FitProblem(model_id="lorentzian", x=x, y=y).initial_params
    base = models.get_model("lorentzian")

    def fn(x, p):
        at_start = np.all(np.asarray(p) == start, axis=-1)
        return np.where(np.expand_dims(at_start, -1), base.fn(x, p), np.nan)

    monkeypatch.setitem(models.MODELS, "lorentzian", dataclasses.replace(base, fn=fn))
    problem = fitkit.FitProblem(model_id="lorentzian", x=x, y=y)
    stuck = fitkit.fit(problem)
    assert (stuck.termination, stuck.converged, stuck.iterations) == ("no_descent", False, 1)
    assert np.array_equal(stuck.params, start)
    assert len(stuck.cost_trace) == 1


def test_scaled_step_test_stops_a_parameter_at_zero():
    # g2_dip's true t0 is 0, so a relative step test never passes on these
    # seeds; the scaled test weighs each step by its parameter's effect on
    # the cost
    for seed in (8, 9, 14, 40):
        ds = synthlab.generate(synthlab.preset("g2_dip", seed=seed))
        result = fitkit.fit(fitkit.FitProblem(model_id="g2_three_level", x=ds.x, y=ds.y))
        assert result.converged and result.iterations < 60, seed


def test_bootstrap_requires_convergence():
    x, y = _lorentzian_data()
    problem = fitkit.FitProblem(model_id="lorentzian", x=x, y=y)
    bad = fitkit.FitResult(
        model_id="lorentzian", params=np.zeros(4), covariance=np.eye(4),
        reduced_chi2=1.0, iterations=1, termination="max_iter",
    )
    with pytest.raises(ValidationError):
        fitkit.bootstrap_uncertainty(problem, bad, n_resamples=10)


@pytest.mark.parametrize("model_id", ["detuned_purcell", "gaussian", "lorentzian", "linear",
                                      "saturation"])
def test_fit_reaches_the_minpack_minimum(model_id):
    # an independent oracle: MINPACK's Levenberg-Marquardt (trust-region
    # reflective for the bounded saturation model) from the same perturbed
    # start, run to its tightest tolerances, on noisy Gaussian-noise data.
    # Widths are compared through the cost and sigma, which are free of the
    # sign the engine's canonical form picks. The engine stops within its
    # scaled step tolerance, up to about 5e-6 sigma from MINPACK's point on
    # detuned_purcell, where sigma then differs by up to 2.8e-7 relative
    # (2 of 1000 draws of this design above 2e-7); hence 1e-6.
    from scipy.optimize import least_squares

    rng = np.random.Generator(np.random.Philox(53))
    x = model_grid(model_id)
    bounds = models.get_model(model_id).bounds
    for k in range(200):
        truth = random_params(model_id, rng)
        y = models.evaluate(model_id, truth, x)
        y = y + rng.normal(0.0, 0.05 * np.ptp(y), x.size)
        start = perturb_params(model_id, truth, rng)
        result = fitkit.fit(fitkit.FitProblem(model_id, x, y, initial_params=start))
        ref = least_squares(
            lambda p: models.evaluate(model_id, p, x) - y, start,
            jac=lambda p: models.jacobian_matrix(model_id, p, x),
            method="lm" if bounds is None else "trf",
            bounds=(-np.inf, np.inf) if bounds is None else bounds,
            xtol=1e-15, ftol=1e-15, gtol=1e-15,
        )
        cost = float(ref.fun @ ref.fun)
        sigmas = np.sqrt(np.diag(np.linalg.inv(ref.jac.T @ ref.jac)) * cost / (x.size - start.size))
        assert result.converged, k
        assert result.reduced_chi2 * (x.size - start.size) == pytest.approx(cost, rel=1e-9), k
        assert np.max(np.abs(result.sigmas - sigmas) / sigmas) < 1e-6, k


def test_linear_fit_matches_polyfit():
    rng = np.random.Generator(np.random.Philox(9))
    x = np.linspace(-3.0, 5.0, 40)
    y = -1.3 * x + 0.7 + rng.normal(0.0, 0.2, x.size)
    result = fitkit.fit(fitkit.FitProblem(model_id="linear", x=x, y=y))
    (slope, intercept), cov = result.params, result.covariance
    ref = np.polyfit(x, y, 1)
    assert result.converged
    assert slope == pytest.approx(ref[0], rel=1e-10)
    assert intercept == pytest.approx(ref[1], rel=1e-10)
    assert cov.shape == (2, 2)
    assert cov[0, 1] == pytest.approx(cov[1, 0])


def test_weighted_line_matches_the_normal_equations():
    # closed form: beta = (X^T W X)^-1 X^T W y, covariance scaled by the
    # reduced chi-square, the engine's convention
    rng = np.random.Generator(np.random.Philox(12))
    x = np.sort(rng.uniform(0.0, 5.0, 6))
    sigma = rng.uniform(0.01, 0.1, x.size)
    y = 0.02 * x + 0.08 + rng.normal(0.0, sigma)
    result = fitkit.fit(fitkit.FitProblem(model_id="linear", x=x, y=y, weights=1.0 / sigma))
    X = np.column_stack([x, np.ones_like(x)]) / sigma[:, None]
    H = X.T @ X
    beta = np.linalg.solve(H, X.T @ (y / sigma))
    r = y / sigma - X @ beta
    cov = float(r @ r) / (x.size - 2) * np.linalg.inv(H)
    assert result.converged
    assert np.max(np.abs(result.params - beta) / np.abs(beta)) < 1e-12
    assert np.max(np.abs(result.covariance - cov) / np.abs(cov)) < 1e-12


def test_model_bounds_apply_and_clip_the_heuristic_start():
    x = np.linspace(0.1, 10.0, 50)
    y = -models.evaluate("saturation", [100.0, 2.0], x)  # heuristic i_sat < 0
    problem = fitkit.FitProblem(model_id="saturation", x=x, y=y)
    lo, hi = models.get_model("saturation").bounds
    assert list(lo) == [1e-12, 1e-12] and np.all(np.isinf(hi))
    assert problem.initial_params[0] == 1e-12
    with pytest.raises(ValidationError):
        fitkit.FitProblem(model_id="saturation", x=x, y=y, initial_params=[-1.0, 2.0])


# sha256 of covariance bytes, recorded before covariances were computed on
# first read: the fit of every preset, seeds 0-9; the 120 frame fits of
# drift maps 0-4; and one fit_many of four models and mixed lengths, read
# last to first. The normal matrices sum in the order of the OpenBLAS
# kernel, so there is one digest for each of the AVX-512 (SkylakeX), AVX2
# (Haswell, Zen), AVX (Sandybridge), SSE4 (Nehalem, Barcelona, Atom) and
# SSE3 (Prescott, Core2) kernels
_COVARIANCE_DIGESTS = {
    "5a985ed3f6074f88604b13422d02e0c98b4303bb61d9859d24827b5a2ac3e7d0",
    "7fb150f41ef9b237fc4dc07844cead2435a692fc3f5437b0679788c573eb044b",
    "22e493ca265f2d6ce7edeaf3592bbac459f6faaec48ff884fb9a822841017662",
    "842012053873f02308e4a182b52c53f64f28b5c1c9479a24367d58c9b722eb3d",
    "86d13afc7b21ac3b275f0e03cce7a2aa69c29bd8e4b8e5d3a88ab6fb369c12f5",
}


def _drift_fits(monkeypatch, seeds):
    """The frame fits of drift_series on the default drift maps of ``seeds``."""
    fits, fit_stacks = [], fitkit._fit_stacks

    def keep(stacks):
        found = fit_stacks(stacks)
        fits.extend(found)
        return found

    with monkeypatch.context() as patch:
        patch.setattr(fitkit, "_fit_stacks", keep)
        for seed in seeds:
            optics.drift_series(synthlab.generate_drift_map(seed=seed)[0], l_eff_um=3.7)
    return fits


def test_covariances_read_late_keep_their_bits(monkeypatch):
    digest = hashlib.sha256()
    for name in synthlab.preset_names():
        for seed in range(10):
            ds = synthlab.generate(synthlab.preset(name, seed=seed))
            result = fitkit.fit(fitkit.FitProblem(ds.spec.model_id, ds.x, ds.y))
            digest.update(result.covariance.tobytes())
    drift = _drift_fits(monkeypatch, range(5))
    assert len(drift) == 600
    for result in drift:
        digest.update(result.covariance.tobytes())
    problems = []
    for k, n in enumerate((801, 401, 801, 201)):
        x, y = _lorentzian_data(noise_sigma=5.0, seed=k)
        problems.append(fitkit.FitProblem("lorentzian", x[:n], y[:n], np.full(n, 0.2)))
        ds = synthlab.generate(synthlab.preset(("lifetime_4k", "saturation_10k")[k % 2], seed=k))
        problems.append(fitkit.FitProblem(ds.spec.model_id, ds.x, ds.y))
        x = ds.x[:12 + k]
        problems.append(fitkit.FitProblem("linear", x, 3.0 * x + np.sin(x)))
    for result in fitkit.fit_many(problems)[::-1]:
        digest.update(result.covariance.tobytes())
    assert digest.hexdigest() in _COVARIANCE_DIGESTS


def test_unread_covariances_cost_no_jacobian_after_the_last_iteration(monkeypatch):
    # the finesse and drift loops read no covariance: their last model call
    # is the last iteration's trial objective, not a normal matrix at the
    # fitted points
    base, calls = models.get_model("lorentzian"), []

    def fn(x, p):
        calls.append("fn")
        return base.fn(x, p)

    def jac(x, p):
        calls.append("jac")
        return base.jac(x, p)

    monkeypatch.setitem(models.MODELS, "lorentzian", dataclasses.replace(base, fn=fn, jac=jac))
    optics.finesse_from_scan(synthlab.generate_scan_pair(seed=43))
    assert "jac" in calls and calls[-1] == "fn"
    calls.clear()
    optics.drift_series(synthlab.generate_drift_map(seed=43)[0], l_eff_um=3.7)
    assert "jac" in calls and calls[-1] == "fn"


def test_reading_one_covariance_computes_its_whole_loop_at_once(monkeypatch):
    # seed 43's 120 frame fits are one loop of 5 window lengths: the first
    # read of any covariance takes one Jacobian per length and one stacked
    # solve, and every later read of the loop none
    base, solve_rows = models.get_model("lorentzian"), fitkit._solve_rows
    calls = {"jac": 0, "solve": 0}

    def jac(x, p):
        calls["jac"] += 1
        return base.jac(x, p)

    def solve(A, b):
        calls["solve"] += 1
        return solve_rows(A, b)

    monkeypatch.setitem(models.MODELS, "lorentzian", dataclasses.replace(base, jac=jac))
    monkeypatch.setattr(fitkit, "_solve_rows", solve)
    drift = _drift_fits(monkeypatch, [43])
    calls.update(jac=0, solve=0)
    sigmas = drift[57].sigmas
    assert calls == {"jac": 5, "solve": 1}
    covariances = [fit.covariance for fit in drift[::-1]]
    assert calls == {"jac": 5, "solve": 1}
    assert np.array_equal(np.sqrt(np.diag(covariances[120 - 1 - 57])), sigmas)


def test_a_covariance_first_read_outside_the_engine_warns_nothing():
    # the singular g2 fit to lifetime counts: its late normal matrix and
    # solve run under the engine's floating-point policy, not the caller's
    ds = synthlab.generate(synthlab.preset("lifetime_4k", seed=0))
    result = fitkit.fit(fitkit.FitProblem("g2_three_level", ds.x, ds.y))
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        assert np.isnan(result.covariance).all()
