"""Synthetic datasets with known ground truth, plus brute-force oracles.

Every fitting pipeline in the toolkit is validated against data generated
here. Randomness always comes from the Philox 4x64-10 counter-based
generator (as wrapped by numpy), whose constants are published, so a fixed
seed reproduces the identical stream on any platform or implementation.

Presets encode realistic statistics (total counts, noise levels) for the
standard measurement situations; they are calibrated estimates of typical
experiments, not recorded data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dataio, models
from .dataio import ScanTrace, SpectralMap, Spectrum, TemperatureLog, TimeHistogram
from .errors import ValidationError, check_domain
from .optics import C_NM_GHZ, brent_root, dispersion_map, mode_indices

__all__ = [
    "GeneratorSpec",
    "SyntheticDataset",
    "abcd_gouy_fraction",
    "abcd_waist_um",
    "generate",
    "generate_scan_pair",
    "generate_drift_map",
    "oracle_dispersion",
    "oracle_resonance_length",
    "preset",
    "preset_names",
    "vibration_broadening_sim",
    "write_dataset",
]


def rng_from_seed(seed: int) -> np.random.Generator:
    """The toolkit-wide deterministic generator (Philox 4x64-10)."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic dataset.

    ``noise`` is one of ``none``, ``poisson`` or ``gaussian``. Poisson noise
    draws counts with the model values as expected counts. ``noise_sigma``
    applies to Gaussian noise only.
    """

    model_id: str
    true_params: tuple[float, ...]
    grid: tuple[float, ...]
    noise: str = "none"
    noise_sigma: float | None = None
    seed: int = 0

    def __post_init__(self):
        models.get_model(self.model_id)
        check_domain("an integer >= 0", seed=self.seed)
        if self.noise not in ("none", "poisson", "gaussian"):
            raise ValidationError(f"unknown noise kind {self.noise!r}")
        if self.noise == "gaussian" and not (self.noise_sigma and self.noise_sigma > 0):
            raise ValidationError("gaussian noise requires a positive noise_sigma")
        if not self.grid:
            raise ValidationError("grid must be non-empty")
        object.__setattr__(self, "true_params", tuple(float(p) for p in self.true_params))
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))

    def with_seed(self, seed: int) -> "GeneratorSpec":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class SyntheticDataset:
    spec: GeneratorSpec
    x: np.ndarray
    y: np.ndarray
    y_true: np.ndarray

    def truth(self) -> dict:
        return {
            "model_id": self.spec.model_id,
            "param_names": list(models.param_names(self.spec.model_id)),
            "true_params": list(self.spec.true_params),
            "grid_size": len(self.spec.grid),
            "noise": self.spec.noise,
            "noise_sigma": self.spec.noise_sigma or 0.0,
            "seed": self.spec.seed,
        }

    def record(self):
        """Wrap the noisy data in the matching trace record."""
        model_id = self.spec.model_id
        if model_id in ("exponential_decay", "g2_three_level"):
            return TimeHistogram(
                bin_centers_ns=self.x,
                counts=np.round(self.y).astype(np.int64),
            )
        if model_id in ("lorentzian", "gaussian", "detuned_purcell"):
            return Spectrum(wavelength_nm=self.x, counts=np.maximum(self.y, 0.0))
        if model_id == "saturation":
            return ScanTrace(axis=self.x, signal=self.y, sweep_direction="up")
        raise ValidationError(f"no trace record defined for model {model_id!r}")


def generate(spec: GeneratorSpec) -> SyntheticDataset:
    """Draw one dataset; identical specs always produce identical bytes."""
    x = np.asarray(spec.grid, dtype=float)
    y_true = models.evaluate(spec.model_id, np.asarray(spec.true_params), x)
    if spec.noise == "none":
        y = y_true.copy()
    elif spec.noise == "poisson":
        if np.any(y_true < 0):
            raise ValidationError("poisson noise requires non-negative model values")
        rng = rng_from_seed(spec.seed)
        y = rng.poisson(y_true).astype(float)
    else:
        rng = rng_from_seed(spec.seed)
        y = y_true + rng.normal(0.0, spec.noise_sigma, x.size)
    return SyntheticDataset(spec=spec, x=x, y=y, y_true=y_true)


def write_dataset(ds: SyntheticDataset, csv_path) -> tuple[Path, Path]:
    """Write the dataset CSV plus a ``.truth.json`` sidecar; returns both paths."""
    csv_path = Path(csv_path)
    dataio.save_csv(ds.record(), csv_path)
    truth_path = csv_path.with_suffix(csv_path.suffix + ".truth.json")
    dataio.export_report(
        dataio.make_report(
            steps=[{"name": "generate", "params": ds.truth(), "outputs": {}}]
        ),
        truth_path,
    )
    return csv_path, truth_path


# ---------------------------------------------------------------------------
# Presets: paper-scale statistics for the standard measurements
# ---------------------------------------------------------------------------


def _lifetime_preset(tau_ns: float, peak_counts: float) -> GeneratorSpec:
    grid = tuple(np.arange(0.125, 80.0, 0.25))
    return GeneratorSpec(
        model_id="exponential_decay",
        true_params=(peak_counts, tau_ns),
        grid=grid,
        noise="poisson",
    )


def _g2_preset() -> GeneratorSpec:
    # dip to 0.21 at zero delay recovering over 12.5 ns, 15% bunching
    # decaying over the 200 ns shelving time, 1500 plateau counts per bin:
    # g2 = 1 - 1.09 exp(-u/12.5) + 0.15 exp(-u/200) in the (c, beta) form
    bunching = 0.15
    fast_amp = 0.79 + bunching
    contrast = -(fast_amp + bunching)
    beta = fast_amp / (fast_amp + bunching)
    grid = tuple(np.arange(-2000.0, 2001.0, 2.0))
    return GeneratorSpec(
        model_id="g2_three_level",
        true_params=(contrast, beta, 0.08, 0.005, 0.0, 1500.0),
        grid=grid,
        noise="poisson",
    )


def _saturation_preset(i_sat, p_sat, sigma) -> GeneratorSpec:
    grid = tuple(np.concatenate([np.linspace(0.05, 1.0, 8), np.linspace(1.3, 4.0, 8)]))
    return GeneratorSpec(
        model_id="saturation",
        true_params=(i_sat, p_sat),
        grid=grid,
        noise="gaussian",
        noise_sigma=sigma,
    )


_PRESETS = {
    "lifetime_4k": lambda: _lifetime_preset(12.2, 500.0),
    "lifetime_40k": lambda: _lifetime_preset(15.8, 500.0),
    "lifetime_100k": lambda: _lifetime_preset(21.0, 150.0),
    "g2_dip": _g2_preset,
    "saturation_10k": lambda: _saturation_preset(150.0, 0.37, 2.2),
    "saturation_40k": lambda: _saturation_preset(180.0, 1.1, 3.0),
    "saturation_100k": lambda: _saturation_preset(162.0, 2.2, 2.4),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str, seed: int = 0) -> GeneratorSpec:
    """A named measurement preset with the given seed."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; available: {preset_names()}"
        ) from None
    return factory().with_seed(seed)


# ---------------------------------------------------------------------------
# Scan and drift generators (multi-column records)
# ---------------------------------------------------------------------------


def _handed_over(*arrays):
    """Mark arrays that only the record built from them will hold read-only,
    so that the record keeps them without a copy."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def generate_scan_pair(
    finesse: float = 4600.0,
    fsr_volts: float = 1.0,
    n_samples: int = 120_000,
    noise: str = "poisson",
    seed: int = 0,
) -> list[ScanTrace]:
    """An up/down pair of 0-3 V piezo ramps with two resonances each.

    Fixed scenario: Lorentzians 1000 counts high at 0.9 V and ``fsr_volts``
    above, over a baseline of 5. ``noise`` is ``poisson`` or ``none``. The
    generator truth is ``finesse`` = fsr_volts / fwhm_volts exactly.
    """
    check_domain("positive and finite", finesse=finesse, fsr_volts=fsr_volts)
    check_domain("an integer >= 2", n_samples=n_samples)
    check_domain("an integer >= 0", seed=seed)
    if noise not in ("none", "poisson"):
        raise ValidationError(f"unknown noise kind {noise!r}")
    fwhm = fsr_volts / finesse
    axis = np.linspace(0.0, 3.0, n_samples)
    signal = np.full(n_samples, 5.0)
    for center in (0.9, 0.9 + fsr_volts):
        signal = signal + models.evaluate("lorentzian", [1000.0, center, fwhm, 0.0], axis)
    rng = rng_from_seed(seed)
    traces = []
    for direction in ("up", "down"):
        y = rng.poisson(signal).astype(float) if noise == "poisson" else signal.copy()
        ramp = (axis, y) if direction == "up" else (axis[::-1].copy(), y[::-1].copy())
        traces.append(ScanTrace(*_handed_over(*ramp), sweep_direction=direction))
    return traces


def generate_drift_map(
    n_frames: int = 120,
    alpha_per_k: float = 5.1e-6,
    reference_length_um: float = 3.7,
    n_pixels: int = 400,
    seed: int = 0,
) -> tuple[SpectralMap, TemperatureLog]:
    """Spectral map whose resonance drifts linearly with temperature.

    Fixed scenario: one frame a minute from 285 to 295 K; a Lorentzian at
    618.5 nm (FWHM 0.3 nm, 800 counts over a baseline of 20, Poisson counts)
    in a window from 614.5 nm to 4 nm past the last frame's center. The
    tracked wavelength shifts by 2 * alpha * L_ref * (T - T0), so the
    drift pipeline recovers delta_L = alpha * L_ref * delta_T and a linear
    fit against temperature returns ``alpha_per_k`` for the given reference
    length.
    """
    check_domain("an integer >= 2", n_frames=n_frames, n_pixels=n_pixels)
    check_domain("an integer >= 0", seed=seed)
    temps = np.linspace(285.0, 295.0, n_frames)
    shift_nm = 2.0 * alpha_per_k * reference_length_um * 1000.0 * (temps - temps[0])
    grid = np.linspace(614.5, 622.5 + shift_nm.max(), n_pixels)
    centers = 618.5 + shift_nm
    # the line shape at the detuning from each frame's center
    expected = models.evaluate("lorentzian", [800.0, 0.0, 0.3, 20.0], grid - centers[:, None])
    # one draw over the matrix gives the counts of one draw per frame
    counts = rng_from_seed(seed).poisson(expected).astype(float)
    times = np.arange(n_frames) * 60.0
    _handed_over(grid, counts, times, temps)
    return (
        SpectralMap(wavelength_nm=grid, counts=counts, frame_period_s=60.0),
        TemperatureLog(time_s=times, temperature_k=temps),
    )


# frames of a WLED map generated at a time: a block's expected counts and
# its Poisson draw take a few hundred kB at 200 pixels
_WLED_BLOCK_FRAMES = 256


def generate_wled_map(
    n_frames: int,
    l_start_um: float = 5.0,
    l_end_um: float = 3.7,
    n_pixels: int = 200,
    seed: int = 0,
) -> SpectralMap:
    """Broadband transmission map over a cavity-length sweep (fundamentals).

    Fixed scenario: ROC 24 um, a 550-680 nm window, Lorentzians of FWHM
    0.8 nm, 500 counts high over a baseline of 10, Poisson counts.

    Memory: the float64 counts matrix is the one full-size array. It is
    filled ``_WLED_BLOCK_FRAMES`` frames at a time: while the calling thread
    draws one block's counts, one helper thread, which lives only within the
    call, builds the next block's expected counts, so two expected blocks
    and one Poisson draw, each a block in size, are alive at once.
    """
    from concurrent.futures import ThreadPoolExecutor  # not paid by the CLI's start

    check_domain("an integer >= 1", n_frames=n_frames)
    check_domain("an integer >= 2", n_pixels=n_pixels)
    check_domain("an integer >= 0", seed=seed)
    window = (550.0, 680.0)
    grid = np.linspace(*window, n_pixels)
    lengths = np.linspace(l_start_um, l_end_um, n_frames)
    m_values = mode_indices((min(l_start_um, l_end_um), max(l_start_um, l_end_um)), window)
    n_m = len(m_values)
    # a copy of the wavelength column, so the rest of the map is freed
    centers = dispersion_map(24.0, lengths, m_values)[:, 1].reshape(n_frames, n_m).copy()
    inside = (window[0] < centers) & (centers < window[1])
    # peak k lies in the window over one contiguous run of frames, because a
    # resonance moves monotonically with length
    starts = inside.argmax(axis=0)
    runs = list(zip(starts.tolist(), (starts + np.count_nonzero(inside, axis=0)).tolist()))
    lorentzian = models.get_model("lorentzian").fn

    def expected_counts(b0):
        # peaks are added in ascending m within each frame, the summation
        # order the generated counts are pinned to, each only on the frames
        # of its run, one parameter row a frame
        b1 = min(b0 + _WLED_BLOCK_FRAMES, n_frames)
        expected = np.full((b1 - b0, n_pixels), 10.0)
        for k, (lo, hi) in enumerate(runs):
            lo, hi = max(lo, b0), min(hi, b1)
            if lo < hi:
                peaks = np.tile([500.0, 0.0, 0.8, 0.0], (hi - lo, 1))
                peaks[:, 1] = centers[lo:hi, k]
                expected[lo - b0:hi - b0] += lorentzian(grid, peaks)
        return expected

    rng = rng_from_seed(seed)
    counts = np.empty((n_frames, n_pixels))
    with ThreadPoolExecutor(max_workers=1) as ahead:
        upcoming = ahead.submit(expected_counts, 0)
        for b0 in range(0, n_frames, _WLED_BLOCK_FRAMES):
            # an error raised in the helper is raised here
            expected = upcoming.result()
            if b0 + _WLED_BLOCK_FRAMES < n_frames:
                upcoming = ahead.submit(expected_counts, b0 + _WLED_BLOCK_FRAMES)
            # numpy releases the GIL while it draws from a contiguous
            # expected block, so the helper builds the next block meanwhile;
            # each draw continues the one Philox stream: the blocks' counts
            # are those of one draw over the whole matrix
            counts[b0:b0 + _WLED_BLOCK_FRAMES] = rng.poisson(expected)
    return SpectralMap(*_handed_over(grid, counts), frame_period_s=1.0)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def abcd_waist_um(l_eff_um: float, roc_um: float, wavelength_nm: float) -> tuple[float, float]:
    """Waist and curved-mirror spot from the round-trip ABCD eigenmode.

    Solves q = (A q + B)/(C q + D) for the beam parameter at the flat
    mirror; independent of the closed-form waist expressions.
    """
    L = l_eff_um
    prop = np.array([[1.0, L], [0.0, 1.0]])
    curved = np.array([[1.0, 0.0], [-2.0 / roc_um, 1.0]])
    m = prop @ curved @ prop
    a, b = m[0]
    c, d = m[1]
    # q solves c q^2 + (d - a) q - b = 0; the mode has Im(q) = rayleigh range
    disc = (d - a) ** 2 + 4.0 * b * c
    if disc >= 0:
        raise ValidationError("geometry has no confined Gaussian eigenmode")
    q = complex((a - d) / (2.0 * c), math.sqrt(-disc) / (2.0 * abs(c)))
    z_r = abs(q.imag)
    lam_um = wavelength_nm / 1000.0
    w0 = math.sqrt(lam_um * z_r / math.pi)
    w_l = w0 * math.sqrt(1.0 + (L / z_r) ** 2)
    return w0, w_l


def abcd_gouy_fraction(l_eff_um: float, roc_um: float, n_steps: int = 20_000) -> float:
    """Gouy term by numerically accumulating d(zeta) = dz / (z_R (1 + (z/z_R)^2)).

    Uses the ABCD eigenmode Rayleigh range, then integrates the Gouy phase
    over one pass from the flat mirror to the curved mirror; returned as a
    fraction of pi.
    """
    w0, _ = abcd_waist_um(l_eff_um, roc_um, 1000.0)  # wavelength cancels below
    z_r = math.pi * w0**2 / 1.0  # lam_um = 1 for this wavelength choice
    z = np.linspace(0.0, l_eff_um, n_steps)
    integrand = 1.0 / (z_r * (1.0 + (z / z_r) ** 2))
    zeta = np.trapezoid(integrand, z)
    return zeta / math.pi


def oracle_resonance_length(wavelength_nm: float, m: int, roc_um: float) -> float:
    """Grid-scan inversion of the resonance condition on a 0.01 nm length grid."""
    lengths = np.arange(0.01, roc_um * 1000.0 - 0.01, 0.01) / 1000.0
    gouy = np.arccos(np.sqrt(1.0 - lengths / roc_um)) / math.pi
    residual = np.abs(2000.0 * lengths / wavelength_nm - gouy - m)
    return float(lengths[np.argmin(residual)])


def oracle_dispersion(roc_um: float, l_grid_um, lambda_grid_nm) -> set[tuple[int, int, int]]:
    """Cells (i_l, i_lambda, m) where the round-trip phase closes to 2 pi m.

    The Gouy phase per pass comes from the ABCD eigenmode, making this an
    independent check of the closed-form dispersion. A cell is marked when
    the phase mismatch is below the mismatch spanned by half a cell.
    """
    l_grid = np.asarray(l_grid_um, dtype=float)
    lam_grid = np.asarray(lambda_grid_nm, dtype=float)
    d_l = float(models.median(np.diff(l_grid))) if l_grid.size > 1 else 0.0
    d_lam = float(models.median(np.diff(lam_grid))) if lam_grid.size > 1 else 0.0
    cells = set()
    for i, l_um in enumerate(l_grid):
        zeta = abcd_gouy_fraction(l_um, roc_um, n_steps=2000)
        for j, lam in enumerate(lam_grid):
            m_float = 2000.0 * l_um / lam - zeta
            m = round(m_float)
            if m < 1:
                continue
            # half-cell tolerance in units of mode number
            tol = 0.5 * (
                2000.0 * d_l / lam + 2000.0 * l_um * d_lam / lam**2
            )
            if abs(m_float - m) <= max(tol, 1e-9):
                cells.add((i, j, int(m)))
    return cells


# ---------------------------------------------------------------------------
# Vibration broadening
# ---------------------------------------------------------------------------


def _averaged_profile_fwhm(kappa_ghz: float, centers_ghz: np.ndarray) -> float:
    half_k = kappa_ghz / 2.0
    # compress the sampled centers into a weighted histogram; bins much
    # narrower than the intrinsic linewidth keep the profile unbiased
    span = max(float(np.max(centers_ghz) - np.min(centers_ghz)), kappa_ghz)
    n_bins = int(min(8192, max(512, 64.0 * span / kappa_ghz)))
    weights, edges = np.histogram(centers_ghz, bins=n_bins)
    bin_centers = 0.5 * (edges[:-1] + edges[1:])
    keep = weights > 0
    bin_centers, weights = bin_centers[keep], weights[keep] / centers_ghz.size

    def profile(nu):
        return float(
            np.sum(weights / (1.0 + ((nu - bin_centers) / half_k) ** 2))
        )

    lo = float(np.min(centers_ghz)) - 20.0 * kappa_ghz
    hi = float(np.max(centers_ghz)) + 20.0 * kappa_ghz
    grid = np.linspace(lo, hi, 2001)
    values = np.sum(
        weights[None, :] / (1.0 + ((grid[:, None] - bin_centers[None, :]) / half_k) ** 2),
        axis=1,
    )
    i_peak = int(np.argmax(values))
    peak_nu, peak_val = grid[i_peak], values[i_peak]
    half = peak_val / 2.0

    def crossing(a, b):
        return brent_root(lambda nu: profile(nu) - half, a, b, xtol=1e-9 * kappa_ghz)

    left_candidates = np.nonzero(values[: i_peak + 1] < half)[0]
    right_candidates = np.nonzero(values[i_peak:] < half)[0] + i_peak
    if left_candidates.size == 0 or right_candidates.size == 0:
        raise ValidationError("profile window too narrow to bracket the half maximum")
    left = crossing(grid[left_candidates[-1]], peak_nu)
    right = crossing(peak_nu, grid[right_candidates[0]])
    return right - left


def vibration_broadening_sim(
    kappa_intrinsic_ghz: float,
    length_jitter_rms_nm: float,
    n_samples: int = 100_000,
    seed: int = 0,
) -> float:
    """Effective linewidth of a 618.5 nm resonance of a 3.75 um cavity
    jittering during acquisition.

    Monte-Carlo average of Lorentzian lines whose centers follow the
    frequency shift of a Gaussian length jitter (sigma_nu = nu * sigma_L/L);
    returns the FWHM of the averaged profile in GHz. Zero jitter returns the
    intrinsic linewidth exactly. Sampling uses common random numbers per
    seed, so the output is monotone in the jitter amplitude.
    """
    check_domain("positive and finite", kappa_intrinsic_ghz=kappa_intrinsic_ghz)
    check_domain("non-negative and finite", length_jitter_rms_nm=length_jitter_rms_nm)
    check_domain("an integer >= 1", n_samples=n_samples)
    check_domain("an integer >= 0", seed=seed)
    if length_jitter_rms_nm == 0.0:
        return kappa_intrinsic_ghz
    nu_ghz = C_NM_GHZ / 618.5
    sigma_nu = nu_ghz * length_jitter_rms_nm / (3.75 * 1000.0)
    normals = rng_from_seed(seed).standard_normal(n_samples)
    centers = sigma_nu * normals
    return _averaged_profile_fwhm(kappa_intrinsic_ghz, centers)
