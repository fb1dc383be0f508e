"""Empirical calibration of the stimulus-to-angular-velocity gain.

A sweep drives the shift-left layer at a range of constant stimulus
levels and measures the steady drift speed of the activity bump; a
least-squares line through the origin is then inverted to obtain the
stimulus gain used by the tracker. All levels run together as the
columns of one batched network, tiled from one settled state.

A calibration belongs to one weight kernel and one Euler step:
``fit_gain`` and ``load_calibration`` both take the kernel, the file
records its hash and the step ``dt`` the sweep ran at, and a load
refuses a file made for another kernel or another step; a replay
refuses a gain of another kernel (``StimulusGain.check_kernel``).
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .io import read_json, write_json
from .kernel import WeightKernel, kernel_hash
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
_MIN_FIT_LEVELS = 5


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
    """Inverted linear law, stimulus = alpha * |omega|, and the one yaw-rate rule.
    A calibration file holds its fields and ``dt``. It refuses, naming the field, an
    alpha outside (0, inf), fit_r2 outside [0.99, 1], max_velocity outside [0, inf)
    or a kernel_hash that is not a str."""

    alpha: float
    fit_r2: float
    max_velocity: float   # largest validated angular speed [rad/s]
    kernel_hash: str

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"'alpha' must be positive, got {self.alpha!r}")
        if not _MIN_FIT_R2 <= self.fit_r2 <= 1.0:
            raise ValueError(f"'fit_r2' must be in [{_MIN_FIT_R2}, 1], got {self.fit_r2!r}")
        if not 0.0 <= self.max_velocity < math.inf:
            raise ValueError(f"'max_velocity' must be >= 0, got {self.max_velocity!r}")
        if not isinstance(self.kernel_hash, str):
            raise ValueError(f"'kernel_hash' must be a str, got {self.kernel_hash!r}")

    def stimulus_for(self, omega: float) -> float:
        return self.alpha * abs(omega)

    def stimulus(self, omega: float) -> TurningStimulus:
        """stimulus_for(omega) on the left layer if omega >= 0.0, else on the right."""
        level = self.stimulus_for(omega)
        return TurningStimulus(level, 0.0) if omega >= 0.0 else TurningStimulus(0.0, level)

    def check_kernel(self, kernel: WeightKernel):
        """Raise CalibrationMismatchError unless this gain was fit for ``kernel``."""
        expected = kernel_hash(kernel)
        if self.kernel_hash != expected:
            raise CalibrationMismatchError(
                "calibration was produced for a different kernel "
                f"(hash {self.kernel_hash[:12]}... vs {expected[:12]}...)")


def sweep(kernel: WeightKernel, stimuli=DEFAULT_STIMULI,
          duration: float = SWEEP_DURATION) -> list:
    """Measure bump velocity for each stimulus level on the shift-left layer.

    ``TurningStimulus`` checks the levels, which must be strictly ascending
    (no level repeated), before any network is built. One
    network settled at pi is tiled into a batch, one column per level,
    decoded every ``SWEEP_FRAME_DT``. A level's velocity is the slope of
    its unwrapped heading over the second half of the run (the first is
    transient). Levels at which the bump collapses, or at which a positive
    level does not move it forward (it reverses at strong stimuli), are
    degenerate samples, later excluded from the fit.
    """
    levels = np.asarray(stimuli, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ValueError("stimulus levels must be a non-empty list")
    stimulus = TurningStimulus(left=levels)
    if np.any(np.diff(levels) <= 0):
        raise ValueError("stimulus levels must be strictly ascending: "
                         "a level is repeated or out of order")
    if not 2.0 <= duration < math.inf:
        raise ValueError(f"sweep duration must be finite and at least 2 s, got {duration}")
    net = HDCNetwork(kernel)
    net.init_at(np.pi)
    net.rates = np.repeat(net.rates[..., np.newaxis], levels.size, axis=2)
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
    positive and non-finite velocities are excluded, so a usable velocity
    is positive. GainFitError, naming them, refuses fewer than five distinct
    usable levels (a repeated level counts once) and any fit ``StimulusGain``
    refuses: an R^2 below 0.99 (a bad kernel or sign convention), none (a
    flat sweep) or a slope too small to invert.
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
    levels = {s for s, _ in pairs}
    if len(levels) < _MIN_FIT_LEVELS:
        raise GainFitError(f"need at least {_MIN_FIT_LEVELS} usable levels, "
                           f"got {len(levels)}{note}")
    s, v = np.array(list(zip(*pairs)))
    slope = float(np.dot(s, v) / np.dot(s, s))
    residuals = v - slope * s
    ss_tot = float(np.sum((v - v.mean()) ** 2))
    r2 = 1.0 - float(np.sum(residuals ** 2)) / ss_tot if ss_tot > 0 else math.nan
    within = np.abs(residuals) < _LINEAR_RESIDUAL_FRACTION * v
    max_velocity = float(np.max(v[within])) if np.any(within) else 0.0
    try:  # StimulusGain judges the fit; a slope that underflowed to 0 has no inverse
        return StimulusGain(alpha=1.0 / slope, fit_r2=r2, max_velocity=max_velocity,
                            kernel_hash=kernel_hash(kernel))
    except (ZeroDivisionError, ValueError) as exc:
        raise GainFitError(f"sweep gives no gain (slope {slope:.4g}, R^2 {r2:.4f}): "
                           f"{exc}{note}") from None


def save_calibration(gain: StimulusGain, path):
    """Write the gain's fields and the step ``DEFAULT_DT`` as its ``dt``."""
    write_json({**vars(gain), "dt": DEFAULT_DT}, path)


def load_calibration(path, kernel: WeightKernel) -> StimulusGain:
    """Load a calibration file made for ``kernel`` at the step ``DEFAULT_DT``,
    refusing one made for another kernel or step. A malformed file (a key
    missing or mistyped, else a value ``StimulusGain`` refuses) raises
    ValueError naming it, before any step or hash is compared."""
    spec = {f.name: f.type for f in fields(StimulusGain)}
    doc = read_json(path, {**spec, "dt": float})
    try:
        gain = StimulusGain(**{name: doc[name] for name in spec})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if doc["dt"] != DEFAULT_DT:
        raise CalibrationMismatchError(
            f"{path}: calibration was made at an Euler step of {doc['dt'] * 1e3:g} ms, "
            f"but the network steps at {DEFAULT_DT * 1e3:g} ms; "
            "re-run `hdcnav calibrate`")
    gain.check_kernel(kernel)
    return gain
