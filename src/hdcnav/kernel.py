"""Synaptic weight-kernel synthesis for the ring network.

The recurrent kernel is obtained by regularized deconvolution of the
target tuning profile in the Fourier domain; the shift-layer kernels are
its spectral derivative scaled by the shift gain. A kernel file holds
only these synthesis parameters (n, lambda, gamma and the tuning curve);
loading one builds the weights again.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .neuron import NEURON, inverse_transfer

__all__ = [
    "TuningCurve",
    "WeightKernel",
    "target_profile",
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
        if self.n < 4:
            raise ValueError(f"'n': need at least 4 neurons, got {self.n}")
        if self.b is None:
            pinned = ((1.0 - _PEAK_MARGIN) * NEURON.r_max - self.a) / math.exp(self.m)
            object.__setattr__(self, "b", pinned)
        peak = self.a + self.b * math.exp(self.m)
        if not (self.a > 0.0 and peak < NEURON.r_max):  # NaN fails too
            raise ValueError("'curve': tuning curve must stay strictly inside (0, r_max)")

    @property
    def preferred_directions(self) -> np.ndarray:
        """Preferred directions theta_i = 2*pi*i/n [rad]."""
        return 2.0 * np.pi * np.arange(self.n) / self.n

    def evaluate(self, dtheta) -> np.ndarray:
        """Firing rate at angular offset ``dtheta`` from the peak."""
        return self.a + self.b * np.exp(self.m * np.cos(np.asarray(dtheta, dtype=float)))


@dataclass(frozen=True)
class WeightKernel:
    """Distance-indexed synaptic weight vectors of the ring network.

    ``h_to_h`` is the recurrent kernel W. ``s_to_h`` is gamma * W', the
    shift-left layer's projection onto the heading layer; the shift-right
    layer projects through its negation, and both shift layers receive
    W / 2 from the heading layer.

    Index ``d`` holds the weight between cells ``d`` steps apart
    (counterclockwise); index 0 is the self-distance and is skipped by the
    network when summing inputs.
    """

    h_to_h: np.ndarray
    s_to_h: np.ndarray
    gamma: float
    lam: float
    curve: TuningCurve

    @property
    def n(self) -> int:
        return len(self.h_to_h)

    def validate(self):
        """Assert the reflection symmetries the synthesis guarantees."""
        w, wp = self.h_to_h, self.s_to_h
        if not np.allclose(w[1:], w[1:][::-1], atol=1e-9):
            raise ValueError("recurrent kernel is not even under reflection")
        if not np.allclose(wp[1:], -wp[1:][::-1], atol=1e-9):
            raise ValueError("shift kernel is not odd under reflection")


def target_profile(curve: TuningCurve) -> np.ndarray:
    """Target firing rates sampled at the preferred directions."""
    return curve.evaluate(curve.preferred_directions)


def synthesize_recurrent(curve: TuningCurve, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Recurrent kernel from ridge-regularized Fourier deconvolution.

    Per discrete frequency k:  W_k = U_k * conj(F_k) / (lam + |F_k|^2),
    where F is the target profile and U its steady-state synaptic input.
    """
    f = target_profile(curve)
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
    """Assemble the recurrent and shift kernels of the network.

    The shift kernel ``gamma * W'`` moves the activity peak
    counterclockwise (toward larger headings) when the shift-left layer is
    stimulated; the shift-right layer projects through its negation.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"'lambda': must be positive and finite, got {lam}")
    if not (gamma >= 0.0 and math.isfinite(gamma)):
        raise ValueError(f"'gamma': must be finite and >= 0, got {gamma}")
    w_hh = synthesize_recurrent(curve, lam)
    return WeightKernel(
        h_to_h=w_hh,
        s_to_h=gamma * derivative_kernel(w_hh),
        gamma=gamma,
        lam=lam,
        curve=curve,
    )


_KERNEL_FORMAT_VERSION = 2


def _kernel_document(kernel: WeightKernel) -> dict:
    """The synthesis parameters, all a kernel file holds."""
    return {
        "version": _KERNEL_FORMAT_VERSION,
        "n": kernel.n,
        "lambda": kernel.lam,
        "gamma": kernel.gamma,
        "curve": {"a": kernel.curve.a, "b": kernel.curve.b, "m": kernel.curve.m},
    }


def save_kernel(kernel: WeightKernel, path):
    """Write the kernel's synthesis parameters as a versioned JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_kernel_document(kernel), fh, indent=1)
        fh.write("\n")


def check_fields(doc, fields, where):
    """Refuse a JSON value that is not an object holding each key of
    ``fields`` with a value of the type the key maps to. A float field
    takes any finite number; true and false are no number."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    missing = [key for key in fields if key not in doc]
    if missing:
        raise ValueError(f"{where}: missing {', '.join(map(repr, missing))}")
    for key, kind in fields.items():
        value = doc[key]
        if kind is float:
            ok = isinstance(value, (int, float)) and math.isfinite(value)
        else:
            ok = isinstance(value, kind)
        if not ok or isinstance(value, bool):
            raise ValueError(f"{where}: {key!r} must be of type {kind.__name__}, "
                             f"got {value!r:.40}")


def load_kernel(path) -> WeightKernel:
    """Build the kernel whose parameters a file written by
    :func:`save_kernel` holds. Weight vectors in older files are not read.
    A malformed file raises ValueError naming the file and the key at
    fault."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    check_fields(doc, {}, path)
    version = doc.get("version")
    if version == 1:
        raise ValueError(
            "kernel file version 1 is no longer supported; regenerate the "
            "kernel with `hdcnav synthesize` and its calibration with "
            "`hdcnav calibrate`")
    if version != _KERNEL_FORMAT_VERSION:
        raise ValueError(f"unsupported kernel file version: {version!r}")
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
