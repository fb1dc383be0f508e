"""Synaptic weight-kernel synthesis for the ring network.

The recurrent kernel is obtained by regularized deconvolution of the
target tuning profile in the Fourier domain; the shift-layer kernels are
its spectral derivative scaled by the shift gain. A kernel is its
synthesis parameters (n, lambda, gamma and the tuning curve), in memory
and in a file: ``WeightKernel`` builds the weights from them.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .io import check_fields, read_json, write_json
from .neuron import NEURON, inverse_transfer

__all__ = [
    "TuningCurve",
    "WeightKernel",
    "synthesize_recurrent",
    "derivative_kernel",
    "build_kernel",
    "save_kernel",
    "load_kernel",
    "kernel_hash",
]

DEFAULT_LAMBDA = 25824.0

# Shift gain. Together with the calibration this sets the stimulus scale;
# 1.4 puts the stimuli for 10..44 deg/s well inside the transfer
# function's linear window.
DEFAULT_GAMMA = 1.4

# Margin keeping tuning-curve values inside the open domain of the
# inverse transfer function. The value also tunes the curvature of the
# stimulus-to-velocity law; 1.85e-6 keeps it within ~0.4% of linear over
# 10..44 deg/s.
_PEAK_MARGIN = 1.85e-6


@dataclass(frozen=True)
class TuningCurve:
    """Target firing-rate profile ``a + b * exp(m * cos(dtheta))``.

    ``b`` defaults to the value pinning the peak just below r_max so the
    whole profile stays inside the sigmoid's range.
    """

    a: float = 8.95
    m: float = 5.29
    n: int = 100
    b: float = field(default=None)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, Integral):
            raise ValueError(f"'n': must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 4:
            raise ValueError(f"'n': need at least 4 neurons, got {self.n}")
        # With a, b and m positive the profile falls from its peak
        # a + b*e^m at dtheta = 0 to a + b*e^-m > a at pi, so these checks
        # bound all of it. NaN fails each comparison.
        if self.a > 0.0 and self.m > 0.0:
            try:
                scale = math.exp(self.m)
            except OverflowError:  # no b > 0 keeps such a peak below r_max
                scale = math.inf
            if self.b is None:
                pinned = ((1.0 - _PEAK_MARGIN) * NEURON.r_max - self.a) / scale
                object.__setattr__(self, "b", pinned)
            if self.b > 0.0 and self.a + self.b * scale < NEURON.r_max:
                return
        raise ValueError("'curve': tuning curve must stay strictly inside (0, r_max) "
                         "with a peak: need a, b, m > 0 and a + b*e^m < r_max, got "
                         f"a={self.a}, b={self.b}, m={self.m}")

    @property
    def preferred_directions(self) -> np.ndarray:
        """Preferred directions theta_i = 2*pi*i/n [rad]."""
        return 2.0 * np.pi * np.arange(self.n) / self.n

    def evaluate(self, dtheta) -> np.ndarray:
        """Firing rate at angular offset ``dtheta`` from the peak."""
        return self.a + self.b * np.exp(self.m * np.cos(np.asarray(dtheta, dtype=float)))


@dataclass(frozen=True)
class WeightKernel:
    """Synaptic weights of the ring network, built from the synthesis
    parameters that fix them: the tuning ``curve``, the ridge parameter
    ``lam`` and the shift gain ``gamma``. A kernel compares and hashes by
    these three; its weight vectors are read-only.

    ``h_to_h`` is the recurrent kernel W. ``s_to_h`` is gamma * W', the
    shift-left layer's projection onto the heading layer, which moves the
    bump counterclockwise (toward larger headings); the shift-right layer
    projects through its negation, and both shift layers receive W / 2.

    Index ``d`` holds the weight between cells ``d`` steps apart
    (counterclockwise); index 0 is the self-distance and is skipped by the
    network when summing inputs.
    """

    curve: TuningCurve
    lam: float
    gamma: float
    h_to_h: np.ndarray = field(init=False, compare=False, repr=False)
    s_to_h: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"'lambda': must be positive and finite, got {self.lam}")
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"'gamma': must be finite and >= 0, got {self.gamma}")
        w = synthesize_recurrent(self.curve, self.lam)
        for name, weights in (("h_to_h", w), ("s_to_h", self.gamma * derivative_kernel(w))):
            weights.flags.writeable = False
            object.__setattr__(self, name, weights)

    @property
    def n(self) -> int:
        return self.curve.n


def synthesize_recurrent(curve: TuningCurve, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Recurrent kernel from ridge-regularized Fourier deconvolution.

    Per discrete frequency k:  W_k = U_k * conj(F_k) / (lam + |F_k|^2),
    where F is the target profile and U its steady-state synaptic input.
    """
    f = curve.evaluate(curve.preferred_directions)
    lo, hi = _PEAK_MARGIN * NEURON.r_max, (1.0 - _PEAK_MARGIN) * NEURON.r_max
    u = inverse_transfer(np.clip(f, lo, hi))
    f_hat = np.fft.fft(f)
    u_hat = np.fft.fft(u)
    w_hat = u_hat * np.conj(f_hat) / (lam + np.abs(f_hat) ** 2)
    w = np.fft.ifft(w_hat)
    residue = np.max(np.abs(w.imag))
    if residue > 1e-9:
        raise ValueError(f"imaginary residue {residue:.3e} exceeds tolerance")
    return w.real


def derivative_kernel(w: np.ndarray) -> np.ndarray:
    """Spectral derivative of a ring kernel with respect to angle.

    Exact for band-limited signals; maps even kernels to odd ones and sums
    to zero. The Nyquist bin (even n) is zeroed, as usual for an odd
    derivative operator.
    """
    w = np.asarray(w, dtype=float)
    n = len(w)
    k = np.fft.fftfreq(n, d=1.0 / n)  # signed integer frequencies
    if n % 2 == 0:
        k[n // 2] = 0.0
    wp_hat = 1j * k * np.fft.fft(w)
    return np.fft.ifft(wp_hat).real


def build_kernel(curve: TuningCurve = TuningCurve(),
                 lam: float = DEFAULT_LAMBDA,
                 gamma: float = DEFAULT_GAMMA) -> WeightKernel:
    """The kernel of ``curve``, ``lam`` and ``gamma``, the home of their defaults."""
    return WeightKernel(curve, lam, gamma)


_KERNEL_FORMAT_VERSION = 2


def _kernel_document(kernel: WeightKernel) -> dict:
    """The synthesis parameters, all a kernel file holds. The real-valued
    ones are written as floats, so that a kernel given ``lam=25824`` hashes
    as the equal kernel given ``lam=25824.0``."""
    curve = kernel.curve
    return {
        "version": _KERNEL_FORMAT_VERSION,
        "n": kernel.n,
        "lambda": float(kernel.lam),
        "gamma": float(kernel.gamma),
        "curve": {"a": float(curve.a), "b": float(curve.b), "m": float(curve.m)},
    }


def save_kernel(kernel: WeightKernel, path):
    """Write the kernel's synthesis parameters as a versioned JSON document."""
    write_json(_kernel_document(kernel), path)


def load_kernel(path) -> WeightKernel:
    """Build the kernel whose parameters a file written by
    :func:`save_kernel` holds. Weight vectors in older files are not read.
    A file of another version, or a malformed one, raises ValueError
    naming the file (and the key at fault)."""
    doc = read_json(path, {})
    if doc.get("version") != _KERNEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported kernel file version {doc.get('version')!r}; "
            "regenerate the kernel with `hdcnav synthesize` and its calibration "
            "with `hdcnav calibrate`")
    check_fields(doc, {"n": int, "lambda": float, "gamma": float, "curve": dict}, path)
    c = doc["curve"]
    check_fields(c, {"a": float, "b": float, "m": float}, f"{path}: 'curve'")
    try:
        curve = TuningCurve(a=c["a"], m=c["m"], n=doc["n"], b=c["b"])
        return build_kernel(curve, lam=doc["lambda"], gamma=doc["gamma"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def kernel_hash(kernel: WeightKernel) -> str:
    """Stable hash of all a kernel depends on; pairs calibrations with kernels."""
    # The built weights are hashed beside their parameters: a change to the
    # synthesis code changes the weights, and that must void the
    # calibrations made with the old ones.
    doc = {**_kernel_document(kernel),
           "w_hh": kernel.h_to_h.tolist(), "w_sh": kernel.s_to_h.tolist()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
