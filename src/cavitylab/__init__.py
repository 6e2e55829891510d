"""Analysis toolkit for open Fabry-Perot microcavities coupled to single emitters.

Submodules
----------
optics        Gaussian-beam cavity mode math: dispersion, finesse, figures of merit.
photophysics  Emitter-side fits: g2(t), saturation, lifetimes, level bookkeeping.
cqed          Purcell-enhancement budget and coupling-regime classification.
fitkit        Levenberg-Marquardt least-squares engine with registered models.
dataio        CSV/JSON ingestion, validation and byte-reproducible reports.
synthlab      Synthetic-data generators, presets and brute-force oracles.
cli           Batch command-line pipelines (dispersion, fit, purcell-budget).
"""

__version__ = "0.1.0"

from . import cqed, dataio, fitkit, models, optics, photophysics, synthlab
from .cqed import CouplingRates
from .dataio import ScanTrace, SpectralMap, Spectrum, TimeHistogram
from .fitkit import FitProblem, FitResult
from .optics import CavityGeometry
from .synthlab import GeneratorSpec

__all__ = [
    "CavityGeometry",
    "CouplingRates",
    "FitProblem",
    "FitResult",
    "GeneratorSpec",
    "ScanTrace",
    "SpectralMap",
    "Spectrum",
    "TimeHistogram",
    "cqed",
    "dataio",
    "fitkit",
    "models",
    "optics",
    "photophysics",
    "synthlab",
]
