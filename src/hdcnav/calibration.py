"""Empirical calibration of the stimulus-to-angular-velocity gain.

A sweep drives the shift-left layer at a range of constant stimulus
levels and measures the steady drift speed of the activity bump; a
least-squares line through the origin is then inverted to obtain the
stimulus gain used by the tracker. All levels run together as the
columns of one batched network.

A calibration belongs to one weight kernel and one Euler step:
``fit_gain`` and ``load_calibration`` both take the kernel, the file
records its hash and the step ``dt`` the sweep ran at, and a load
refuses a file made for another kernel or another step.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .kernel import WeightKernel, check_fields, kernel_hash
from .network import DEFAULT_DT, HDCNetwork, TurningStimulus

__all__ = ["StimulusGain", "SweepSample", "sweep", "fit_gain",
           "save_calibration", "load_calibration", "CalibrationMismatchError",
           "GainFitError", "DEFAULT_STIMULI"]

# Default sweep levels; with the default kernel these map to roughly
# 10..44 deg/s of bump velocity, covering the 40 deg/s validated range.
DEFAULT_STIMULI = (0.01533, 0.023, 0.03067, 0.03833, 0.046,
                   0.05367, 0.06134, 0.06747)

SWEEP_DURATION = 4.0        # simulated seconds, all levels at once
SWEEP_FRAME_DT = 0.01       # decode sampling interval [s]

# Residual bound deciding which swept velocities count as "linear".
_LINEAR_RESIDUAL_FRACTION = 0.05

_MIN_FIT_R2 = 0.99
_MIN_FIT_SAMPLES = 5

# The step of calibration files written before they recorded one.
_UNRECORDED_DT = 0.0005


class GainFitError(RuntimeError):
    """Raised when the sweep data does not follow a linear law."""


class CalibrationMismatchError(RuntimeError):
    """Raised when a calibration is paired with a different kernel or step."""


@dataclass(frozen=True)
class SweepSample:
    stimulus: float
    velocity: float       # measured bump velocity [rad/s]; NaN if it collapsed

    @property
    def degenerate(self) -> bool:
        """The bump collapsed, or a positive level did not move it forward."""
        # NaN fails v > 0, so a collapsed positive level is caught here too.
        return math.isnan(self.velocity) or (self.stimulus > 0 and not self.velocity > 0)


@dataclass(frozen=True)
class StimulusGain:
    """Inverted linear law: stimulus = alpha * |angular velocity|."""

    alpha: float
    fit_r2: float
    max_velocity: float   # largest validated angular speed [rad/s]
    kernel_hash: str

    def stimulus_for(self, omega: float) -> float:
        return self.alpha * abs(omega)


def sweep(kernel: WeightKernel, stimuli=DEFAULT_STIMULI,
          duration: float = SWEEP_DURATION) -> list:
    """Measure bump velocity for each stimulus level on the shift-left layer.

    One batched network runs every level at once, one column per level,
    decoded every ``SWEEP_FRAME_DT``. The first half of the run is
    discarded as transient; a level's velocity is the slope of its
    unwrapped heading over the second half. Levels at which the bump
    collapses, or at which a positive level does not move it forward (it
    reverses at strong stimuli), are reported as degenerate samples and
    later excluded from the fit.
    """
    levels = np.asarray(stimuli, dtype=float)
    if levels.ndim != 1 or levels.size == 0 or not np.isfinite(levels).all():
        raise ValueError("stimulus levels must be a non-empty list of finite values")
    if np.any(levels < 0):
        raise ValueError("stimulus levels must be non-negative")
    if np.any(np.diff(levels) < 0):
        raise ValueError("stimulus levels must be ascending")
    if duration < 2.0:
        raise ValueError("sweep duration must be at least 2 s")
    net = HDCNetwork(kernel)
    net.init_at(np.full(levels.size, np.pi))
    stimulus = TurningStimulus(left=levels)
    n_frames = int(round(duration / SWEEP_FRAME_DT))
    headings = [net.decode()]
    for _ in range(n_frames):
        net.run_frame(stimulus, SWEEP_FRAME_DT)
        headings.append(net.decode())
    headings = np.unwrap(headings, axis=0)
    times = SWEEP_FRAME_DT * np.arange(n_frames + 1)
    half = len(times) // 2
    # A collapsed column's NaN headings make its slope NaN and no other's:
    # unwrap and the least-squares fit act on each column alone.
    velocities = np.polyfit(times[half:], headings[half:], 1)[0]
    return [SweepSample(stimulus=s, velocity=v)
            for s, v in zip(levels.tolist(), velocities.tolist())]


def fit_gain(samples, kernel: WeightKernel) -> StimulusGain:
    """Least-squares line through the origin, inverted to the stimulus gain
    of ``kernel``, whose hash the result carries.

    ``samples`` are SweepSamples. Degenerate levels, levels that are not
    positive and non-finite velocities are excluded, and every error names
    them; a fit with R^2 below 0.99 is rejected since it indicates a
    mis-built kernel or flipped sign convention.
    """
    pairs, excluded = [], []
    for sample in samples:
        s, v = sample.stimulus, sample.velocity
        if sample.degenerate:
            excluded.append(f"{s:g} (degenerate, velocity {v:.4g} rad/s)")
        elif not s > 0:
            excluded.append(f"{s:g} (not positive)")
        elif not np.isfinite(v):
            excluded.append(f"{s:g} (velocity {v} rad/s)")
        else:
            pairs.append((s, v))
    note = f"; excluded levels: {', '.join(excluded)}" if excluded else ""
    if len(pairs) < _MIN_FIT_SAMPLES:
        raise GainFitError(f"need at least {_MIN_FIT_SAMPLES} usable samples, "
                           f"got {len(pairs)}{note}")
    s = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    slope = float(np.dot(s, v) / np.dot(s, s))
    if slope <= 0:
        raise GainFitError(f"non-positive velocity/stimulus slope {slope:.4g}{note}")
    residuals = v - slope * s
    ss_tot = float(np.sum((v - v.mean()) ** 2))
    r2 = 1.0 - float(np.sum(residuals ** 2)) / ss_tot if ss_tot > 0 else 1.0
    if r2 < _MIN_FIT_R2:
        raise GainFitError(f"sweep is not linear: R^2 = {r2:.4f} < {_MIN_FIT_R2}{note}")
    within = np.abs(residuals) < _LINEAR_RESIDUAL_FRACTION * np.abs(v)
    max_velocity = float(np.max(np.abs(v[within]))) if np.any(within) else 0.0
    return StimulusGain(
        alpha=1.0 / slope,
        fit_r2=r2,
        max_velocity=max_velocity,
        kernel_hash=kernel_hash(kernel),
    )


def save_calibration(gain: StimulusGain, path):
    doc = {
        "alpha": gain.alpha,
        "fit_r2": gain.fit_r2,
        "max_velocity": gain.max_velocity,
        "kernel_hash": gain.kernel_hash,
        "dt": DEFAULT_DT,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_calibration(path, kernel: WeightKernel) -> StimulusGain:
    """Load a calibration file made for ``kernel`` at the step
    ``DEFAULT_DT``, refusing one built for a different kernel or step (a
    file without ``dt`` was made at 0.5 ms); a malformed one raises
    ValueError naming the file and the missing, mistyped or out-of-range
    keys before any step or hash is compared."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    check_fields(doc, {"alpha": float, "fit_r2": float, "max_velocity": float,
                       "kernel_hash": str}, path)
    # fit_gain writes alpha = 1/slope > 0 and a max_velocity of 0 or more.
    if doc["alpha"] <= 0.0:
        raise ValueError(f"{path}: 'alpha' must be positive, got {doc['alpha']!r}")
    if doc["max_velocity"] < 0.0:
        raise ValueError(f"{path}: 'max_velocity' must be >= 0, "
                         f"got {doc['max_velocity']!r}")
    dt = doc.get("dt", _UNRECORDED_DT)
    check_fields({"dt": dt}, {"dt": float}, path)
    if dt != DEFAULT_DT:
        raise CalibrationMismatchError(
            f"{path}: calibration was made at an Euler step of {dt * 1e3:g} ms, "
            f"but the network steps at {DEFAULT_DT * 1e3:g} ms; "
            "re-run `hdcnav calibrate`")
    gain = StimulusGain(alpha=doc["alpha"], fit_r2=doc["fit_r2"],
                        max_velocity=doc["max_velocity"], kernel_hash=doc["kernel_hash"])
    if gain.kernel_hash != kernel_hash(kernel):
        raise CalibrationMismatchError(
            "calibration was produced for a different kernel "
            f"(hash {gain.kernel_hash[:12]}... vs {kernel_hash(kernel)[:12]}...)")
    return gain
