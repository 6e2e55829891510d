import numpy as np
import pytest

from conftest import fd_jacobian, jacobian_mismatch, model_grid, random_params

from cavitylab import models
from cavitylab.errors import ValidationError


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_jacobian_matches_finite_differences(model_id):
    rng = np.random.Generator(np.random.Philox(101))
    x = model_grid(model_id)
    for _ in range(20):
        params = random_params(model_id, rng)
        analytic = models.jacobian_matrix(model_id, params, x)
        numeric = fd_jacobian(model_id, params, x)
        assert jacobian_mismatch(analytic, numeric) < 1e-5


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_batch_rows_equal_single_evaluations(model_id):
    # row k of a (K, n) batch with row k of a (K, P) parameter stack is the
    # 1-D evaluation bit for bit, overflowing rows included (the last row's
    # parameters are scaled to 1e200); 2000 random rows, so that an
    # operation that rounds differently over a (K, 1) column than over a
    # scalar, in a small share of values, shows
    rng = np.random.Generator(np.random.Philox(7))
    x = model_grid(model_id)[::25]
    p = np.array([random_params(model_id, rng) for _ in range(2000)])
    p[-1] *= 1e200
    xs = x + rng.uniform(0.0, 1e-3, (len(p), 1))
    model = models.get_model(model_id)
    with np.errstate(all="ignore"):
        fn, jac = model.fn(xs, p), model.jac(xs, p)
        for k in range(len(p)):
            assert fn[k].tobytes() == model.fn(xs[k], p[k]).tobytes()
            assert jac[k].tobytes() == model.jac(xs[k], p[k]).tobytes()


def test_linear_jacobian_exact():
    x = np.array([1.0, 2.0, -3.0])
    J = models.jacobian_matrix("linear", [2.0, 1.0], x)
    assert np.array_equal(J[:, 0], x)
    assert np.array_equal(J[:, 1], np.ones(3))


def test_exponential_decay_tau_derivative_zero_at_origin():
    J = models.jacobian_matrix("exponential_decay", [100.0, 12.0], np.array([0.0, 1.0]))
    assert J[0, 1] == 0.0
    assert J[1, 1] > 0.0


def test_unknown_model_rejected():
    with pytest.raises(ValidationError):
        models.evaluate("sigmoid", [1.0], [0.0])
    with pytest.raises(ValidationError):
        models.evaluate("linear", [1.0], [0.0])  # wrong parameter count


@pytest.mark.parametrize("model_id", sorted(models.MODELS))
def test_initializer_lands_near_truth(model_id):
    # start values need not be tight, but they must put LM in the right basin
    rng = np.random.Generator(np.random.Philox(17))
    x = model_grid(model_id)
    for _ in range(5):
        truth = random_params(model_id, rng)
        y = models.evaluate(model_id, truth, x)
        start = models.initial_params(model_id, x, y)
        assert start.shape == truth.shape
        assert np.all(np.isfinite(start))


def test_g2_initializer_finds_dip():
    x = model_grid("g2_three_level")
    truth = np.array([-1.09, 0.94 / 1.09, 0.08, 0.005, 10.0, 1500.0])
    y = models.evaluate("g2_three_level", truth, x)
    start = models.initial_params("g2_three_level", x, y)
    assert abs(start[4] - 10.0) < 5.0  # t0 near the dip
    assert start[0] < 0  # dip trace: negative contrast
    assert start[2] > start[3]  # gamma1 a decade above gamma2
    assert start[5] == pytest.approx(1500.0, rel=0.1)  # plateau from the edges


def test_g2_start_curve_is_positive_over_an_empty_dip_bin():
    # an expected count of zero is off the Poisson model's domain
    x = model_grid("g2_three_level")
    truth = np.array([-1.09, 0.94 / 1.09, 0.08, 0.005, 10.0, 20.0])
    y = np.round(models.evaluate("g2_three_level", truth, x))
    y[np.argmin(y)] = 0.0
    start = models.initial_params("g2_three_level", x, y)
    assert np.min(models.evaluate("g2_three_level", start, x)) > 0


def _half_width_loop(x, y, i_peak, level):
    # the one-problem loop that the batched models._half_width replaced: the reference
    left = right = None
    for j in range(i_peak, 0, -1):
        if y[j - 1] <= level <= y[j] or y[j - 1] >= level >= y[j]:
            frac = (level - y[j - 1]) / (y[j] - y[j - 1]) if y[j] != y[j - 1] else 0.5
            left = x[j - 1] + frac * (x[j] - x[j - 1])
            break
    for j in range(i_peak, len(y) - 1):
        if y[j + 1] <= level <= y[j] or y[j + 1] >= level >= y[j]:
            frac = (level - y[j]) / (y[j + 1] - y[j]) if y[j + 1] != y[j] else 0.5
            right = x[j] + frac * (x[j + 1] - x[j])
            break
    if left is None or right is None:
        span = abs(x[-1] - x[0])
        return span / 10.0 if span else 1.0
    return abs(right - left)


def _start_rows(n):
    """(x, y) stacks of n samples: seeded peaks on noise and the edge cases of
    the start values (flat rows, a peak at either end, no half-maximum
    crossing on a side, a zero x span, signed zeros, ties)."""
    rng = np.random.Generator(np.random.Philox(23))
    x = np.sort(rng.uniform(-3.0, 3.0, (60, n)), axis=1)
    centers, widths = rng.uniform(-3.0, 3.0, (60, 1)), rng.uniform(0.05, 4.0, (60, 1))
    y = 50.0 / (1.0 + ((x - centers) / widths) ** 2) + rng.poisson(3.0, x.shape)
    line = np.linspace(1.0, 2.0, n)
    special = [
        np.full(n, 4.0),                             # flat
        line[::-1], line,                            # peak at the first, the last sample
        np.where(np.arange(n) < n // 2, 9.0, 1.0),   # a step: no crossing on the right
        rng.choice([-0.0, 0.0, 1.0], n),             # signed zeros and ties
        rng.integers(0, 3, n).astype(float),         # ties
    ]
    y = np.concatenate([y, special, rng.poisson(1.0, (6, n)).astype(float)])
    x = np.concatenate([x, np.sort(rng.uniform(-1.0, 1.0, (len(y) - len(x), n)), axis=1)])
    x[-1] = 2.5  # a zero span
    return x, y


@pytest.mark.parametrize("n", [1, 2, 3, 41])
@pytest.mark.parametrize("model_id", ["lorentzian", "gaussian", "detuned_purcell"])
def test_batch_start_values_equal_single_starts(model_id, n):
    x, y = _start_rows(n)
    batch = models.initial_params(model_id, x, y)
    assert batch.shape == (len(y), 4)
    for k in range(len(y)):
        assert batch[k].tobytes() == models.initial_params(model_id, x[k], y[k]).tobytes(), k


@pytest.mark.parametrize("n", [1, 2, 3, 41])
def test_half_width_equals_its_loop(n):
    x, y = _start_rows(n)
    # dips: the rows and their mirror images, each searched as the peak of
    # -y at the negated level, as the g2 start takes them
    xd, yd = np.concatenate([x, x]), np.concatenate([y, -y])
    fallbacks = crossings = 0
    for xs, ys, i_peak, sign in [(x, y, np.argmax(y, axis=1), 1.0),
                                 (xd, yd, np.argmin(yd, axis=1), -1.0)]:
        searched = sign * ys
        top, bottom = searched.max(axis=1), searched.min(axis=1)
        # half height; levels between samples; none crossed; a flat top's
        # level, which an equal pair of samples brackets
        for level in (bottom + (top - bottom) / 2.0, searched.mean(axis=1), bottom - 1.0, top):
            widths = models._half_width(xs, searched, i_peak, level)
            for k in range(len(ys)):
                expected = _half_width_loop(xs[k], ys[k], int(i_peak[k]), sign * level[k])
                assert np.float64(expected).tobytes() == widths[k].tobytes(), (k, sign, level[k])
                fallback = expected == (abs(xs[k, -1] - xs[k, 0]) / 10.0 or 1.0)
                fallbacks, crossings = fallbacks + fallback, crossings + (not fallback)
    assert fallbacks  # the span/10 fallback is among the cases
    assert crossings or n <= 2  # two samples put every peak at an end


def _lorentzian_oracle(x, p):
    # the registry's Lorentzian as plain expressions, one temporary per step
    amplitude, center, fwhm, offset = models._columns(p)
    h = (fwhm / 2.0) * (fwhm / 2.0)
    return offset + amplitude * h / ((x - center) ** 2 + h)


def _lorentzian_jac_oracle(x, p):
    amplitude, center, fwhm, _ = models._columns(p)
    d = x - center
    h = (fwhm / 2.0) * (fwhm / 2.0)
    denom = d * d + h
    denom2 = denom**2
    J = np.empty(d.shape + (4,))
    J[..., 0] = h / denom
    J[..., 1] = amplitude * h * 2.0 * d / denom2
    J[..., 2] = amplitude * (fwhm / 2.0) * d * d / denom2
    J[..., 3] = 1.0
    return J


def _lorentzian_cases():
    rng = np.random.Generator(np.random.Philox(23))
    row = rng.uniform(-3.0, 3.0, 64)
    rows = rng.uniform(-3.0, 3.0, (5, 64))
    stack = rng.uniform(-2.0, 2.0, (5, 4))
    cases = [(row, stack[0]), (rows, stack), (rows, stack[1]), (row, stack)]
    # zero and negative widths, a sample on the center of a zero width
    for fwhm in (0.0, -0.7):
        cases += [(np.append(row, 0.25), np.array([1.5, 0.25, fwhm, 0.1])),
                  (rows, np.column_stack([stack[:, :2], np.full(5, fwhm), stack[:, 3]]))]
    # a NaN or an infinity in each parameter, of a vector and of one row
    for value in (np.nan, np.inf, -np.inf):
        for i in range(4):
            p = np.array([1.5, 0.25, 0.7, 0.1])
            p[i] = value
            batch = stack.copy()
            batch[2, i] = value
            cases += [(row, p), (rows, batch)]
    # 0-d abscissae, on and off the center
    cases += [(np.float64(v), np.array([1.5, 0.25, 0.7, 0.1])) for v in (0.25, -1.3, rng.normal())]
    return cases


def _same_bits(a, b):
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def test_lorentzian_equals_its_plain_expressions_bit_for_bit():
    # fn works in its output array and jac writes each column once; the
    # values, their types and the NaN bits are those of the plain
    # expressions, and x is only read
    model = models.MODELS["lorentzian"]
    with np.errstate(all="ignore"):
        for x, p in _lorentzian_cases():
            x = np.array(x)
            x.flags.writeable = False
            before = x.tobytes()
            assert _same_bits(model.fn(x, p), _lorentzian_oracle(x, p)), (x, p)
            assert _same_bits(model.jac(x, p), _lorentzian_jac_oracle(x, p)), (x, p)
            assert x.tobytes() == before


def _decay_oracle(t, p):
    # the registry's exponential decay as plain expressions
    amplitude, tau = models._columns(p)
    return amplitude * np.exp(-t / tau)


def _decay_jac_oracle(t, p):
    amplitude, tau = models._columns(p)
    e = np.exp(-t / tau)
    J = np.empty(e.shape + (2,))
    J[..., 0] = e
    J[..., 1] = amplitude * t / (tau * tau) * e
    return J


def test_exponential_decay_equals_its_plain_expressions_bit_for_bit():
    # fn works in one output array and jac writes each column once; the
    # values, their types (a 0-d t gives a numpy scalar) and the NaN bits
    # are those of the plain expressions, and t is only read (that a batch's
    # rows are the 1-D evaluations is test_batch_rows_equal_single_evaluations)
    model = models.MODELS["exponential_decay"]
    rng = np.random.Generator(np.random.Philox(29))
    row = rng.uniform(0.0, 100.0, 64)
    rows = rng.uniform(0.0, 100.0, (5, 64))
    stack = np.column_stack([rng.uniform(10.0, 1000.0, 5), rng.uniform(2.0, 40.0, 5)])
    cases = [(row, stack[0]), (rows, stack), (rows, stack[1]), (row, stack)]
    # a zero, negative or non-finite value in each parameter, of a vector
    # and of one row
    for value in (0.0, -3.0, np.nan, np.inf, -np.inf):
        for i in range(2):
            p = stack[0].copy()
            p[i] = value
            batch = stack.copy()
            batch[2, i] = value
            cases += [(row, p), (rows, batch)]
    cases += [(np.float64(v), stack[0]) for v in (0.0, 7.5, -1.0, rng.uniform(0.0, 100.0))]
    with np.errstate(all="ignore"):
        for t, p in cases:
            t = np.array(t)
            t.flags.writeable = False
            before = t.tobytes()
            assert _same_bits(model.fn(t, p), _decay_oracle(t, p)), (t, p)
            assert _same_bits(model.jac(t, p), _decay_jac_oracle(t, p)), (t, p)
            assert t.tobytes() == before
