"""Three-layer ring attractor: one heading layer and two shift layers.

With recurrent kernel W and shift kernel gamma * W' (see ``kernel``), the
synaptic inputs are

    u_h     = W f_h + gamma W' (f_L - f_R)
    u_{L,R} = W f_h / 2 + s_{L,R}

where f are the layers' firing rates and s the turning stimuli. Each
Euler step therefore costs two n x n ring products, ``W f_h`` (shared by
all three layers) and ``gamma W' (f_L - f_R)``, plus one transfer-function
evaluation. Self-connections (cell distance 0) carry no weight.

``init_at`` with B headings adds a trailing batch axis: B independent
networks with ``(n, B)`` rates, stepped together by the same code, each
ring product then one n x B matrix product.
"""

import json
from dataclasses import dataclass

import numpy as np

from .kernel import WeightKernel
from .neuron import NeuronParams, transfer

__all__ = ["NetworkState", "TurningStimulus", "HDCNetwork", "decode",
           "wrap_heading", "DegenerateActivityError"]

TWO_PI = 2.0 * np.pi
# 25 tau of zero-stimulus relaxation before a replay or sweep. It fixes the
# bump's position (it then moves about 1e-14 rad in the next 10 s) but not
# its shape: with the default kernel the heading-layer rates (peak 73 Hz)
# still change by up to 1.5 Hz from 0.5 to 1.0 s and 0.14 Hz from 2.5 to
# 4.5 s, counted from the start of the relaxation.
SETTLE_SECONDS = 0.5
DEFAULT_DT = 0.0005      # Euler step [s]

# Fraction of n * r_max below which the population vector is considered
# directionless.
_DECODE_MAGNITUDE_FRACTION = 0.01


class DegenerateActivityError(ValueError):
    """Raised when the activity profile carries no direction information."""


@dataclass(frozen=True)
class TurningStimulus:
    """Uniform input currents into the two shift layers (scalars or length B)."""

    left: float = 0.0
    right: float = 0.0

    def __post_init__(self):
        # NaN fails both comparisons.
        if not ((np.minimum(self.left, self.right) >= 0.0)
                & (np.maximum(self.left, self.right) < np.inf)).all():
            raise ValueError("stimulus values must be finite and non-negative")


ZERO_STIMULUS = TurningStimulus(0.0, 0.0)


@dataclass
class NetworkState:
    """Firing rates of all three layers at one instant."""

    hdc_rates: np.ndarray
    shift_left_rates: np.ndarray
    shift_right_rates: np.ndarray
    sim_time: float = 0.0

    def to_json(self, path):
        doc = {
            "sim_time": self.sim_time,
            "hdc_rates": self.hdc_rates.tolist(),
            "shift_left_rates": self.shift_left_rates.tolist(),
            "shift_right_rates": self.shift_right_rates.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def _distance_matrix(n: int) -> np.ndarray:
    # d(i, j) = (j - i) mod n
    idx = np.arange(n)
    return (idx[None, :] - idx[:, None]) % n


def _projection(weights: np.ndarray) -> np.ndarray:
    """n x n connectivity from a distance-indexed kernel, diagonal zeroed."""
    n = len(weights)
    mat = weights[_distance_matrix(n)]
    np.fill_diagonal(mat, 0.0)
    return mat


def wrap_heading(angle):
    """Elementwise ``angle`` mod 2*pi in [0, 2*pi); ``%`` alone can give 2*pi."""
    angle = angle % TWO_PI
    return angle * (angle < TWO_PI)


def _basis(n: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.stack((np.sin(theta), np.cos(theta)))


def _decode(hdc_rates, basis, params: NeuronParams):
    s, c = basis @ hdc_rates
    heading = wrap_heading(np.arctan2(s, c))
    magnitude = np.hypot(s, c)
    degenerate = magnitude <= _DECODE_MAGNITUDE_FRACTION * len(hdc_rates) * params.r_max
    if heading.ndim == 0:
        if degenerate:
            raise DegenerateActivityError(
                f"population vector magnitude {magnitude:.3g} too small to decode")
        return float(heading)
    heading[degenerate] = np.nan
    return heading


def decode(state: NetworkState, params: NeuronParams = NeuronParams()):
    """Population-vector heading of the HDC layer, in [0, 2*pi).

    Batched rates give one heading per column, NaN where it is degenerate.
    """
    return _decode(state.hdc_rates, _basis(len(state.hdc_rates)), params)


class HDCNetwork:
    """Stateful simulator of the heading network.

    Instances are single-threaded; the kernel they are built from is
    immutable and may be shared.
    """

    def __init__(self, kernel: WeightKernel, params: NeuronParams = NeuronParams(),
                 dt: float = DEFAULT_DT):
        kernel.validate()
        if not 0.0 < dt <= params.max_dt:
            raise ValueError(f"dt must be in (0, {params.max_dt}], got {dt}")
        self.kernel = kernel
        self.params = params
        self.dt = dt
        self.n = kernel.n
        self._recurrent = _projection(kernel.h_to_h)
        self._shift = _projection(kernel.s_to_h)
        self._basis = _basis(kernel.n)
        # Rows: heading layer, shift-left layer, shift-right layer.
        self._rates = np.zeros((3, kernel.n))
        self.sim_time = 0.0

    # -- state access ---------------------------------------------------

    @property
    def state(self) -> NetworkState:
        hdc, left, right = self._rates.copy()
        return NetworkState(hdc_rates=hdc, shift_left_rates=left,
                            shift_right_rates=right, sim_time=self.sim_time)

    def set_state(self, state: NetworkState):
        self._rates[:] = (state.hdc_rates, state.shift_left_rates,
                          state.shift_right_rates)
        self.sim_time = state.sim_time

    def decode(self):
        """Heading in [0, 2*pi); one per column (NaN if degenerate) in a batch."""
        return _decode(self._rates[0], self._basis, self.params)

    # -- dynamics -------------------------------------------------------

    def init_at(self, heading):
        """Place the activity bump at ``heading`` and let it settle.

        The heading layer starts on the closed-form tuning profile rotated
        to the requested direction, the shift layers on half of it; a
        0.5 s zero-stimulus relaxation follows. It leaves the bump at
        ``heading`` but not yet at its final shape (see
        ``SETTLE_SECONDS``). A 1-D array of B headings makes the network a
        batch of B columns; a scalar keeps it single.
        """
        heading = np.asarray(heading, dtype=float)
        if heading.ndim > 1 or heading.size == 0 or not np.isfinite(heading).all():
            raise ValueError("heading must be finite: a scalar or a non-empty 1-D array")
        curve = self.kernel.curve
        profile = curve.evaluate(np.subtract.outer(curve.preferred_directions, heading))
        self._rates = np.stack((profile, profile / 2.0, profile / 2.0))
        self.sim_time = 0.0
        self.run_frame(ZERO_STIMULUS, SETTLE_SECONDS)
        self.sim_time = 0.0

    def step(self, stim: TurningStimulus = ZERO_STIMULUS):
        """Advance all three layers by one Euler step of ``dt``."""
        self._check_batch(stim)
        self._step_inner(stim, self.dt)
        self.sim_time += self.dt

    def run_frame(self, stim: TurningStimulus, frame_dt: float):
        """Hold ``stim`` constant for exactly ``frame_dt`` seconds.

        The frame is split into the fewest equal Euler sub-steps no longer
        than ``dt``, so frames off the ``dt`` grid are not over-integrated.
        """
        if frame_dt < self.dt:
            raise ValueError(f"frame_dt {frame_dt} shorter than one Euler step {self.dt}")
        self._check_batch(stim)
        n_steps = int(np.ceil(frame_dt / self.dt - 1e-9))
        sub_dt = frame_dt / n_steps
        for _ in range(n_steps):
            self._step_inner(stim, sub_dt)
        self.sim_time += frame_dt

    def _check_batch(self, stim: TurningStimulus):
        if {np.shape(stim.left), np.shape(stim.right)} - {(), self._rates.shape[2:]}:
            raise ValueError(f"stimulus does not match the batch shape {self._rates.shape[2:]}")

    def _step_inner(self, stim: TurningStimulus, dt: float):
        hdc, left, right = self._rates
        drive = self._recurrent @ hdc
        half = drive / 2.0
        inputs = np.array((drive + self._shift @ (left - right),
                           half + stim.left, half + stim.right))
        self._rates += (dt / self.params.tau) * (transfer(inputs, self.params) - self._rates)
