"""Three-layer ring attractor: one heading layer and two shift layers.

With recurrent kernel W and shift kernel gamma * W' (see ``kernel``), the
synaptic inputs are

    u_h     = W f_h + gamma W' (f_L - f_R)
    u_{L,R} = W f_h / 2 + s_{L,R}

where f are the layers' firing rates and s the turning stimuli. Each
Euler step therefore costs two n x n ring products, ``W f_h`` (shared by
all three layers) and ``gamma W' (f_L - f_R)``, plus one transfer-function
evaluation. Self-connections (cell distance 0) carry no weight. The
default step ``DEFAULT_DT`` is 1 ms, so a 10 ms frame is 10 steps.

The network's state is its ``rates`` array of shape ``(3, n)``: rows
f_h, f_L and f_R. ``init_at`` with B headings adds a trailing batch axis:
B independent networks with ``(3, n, B)`` rates, stepped together by the
same code, each ring product then one n x B matrix product.

Each network keeps one input buffer shaped like ``rates`` and two
n-vectors (n x B for a batch), made again only when ``rates`` changes
shape, so a step allocates no array: it runs the expressions above one
operation at a time, in place, with the same results bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .kernel import WeightKernel
from .neuron import NEURON, transfer

__all__ = ["TurningStimulus", "HDCNetwork", "wrap_heading",
           "DegenerateActivityError"]

TWO_PI = 2.0 * np.pi
# 25 tau of zero-stimulus relaxation before a replay or sweep. It fixes the
# bump's position (it then moves about 1e-14 rad in the next 10 s) but not
# its shape: with the default kernel the heading-layer rates (peak 73 Hz)
# still change by up to 1.5 Hz from 0.5 to 1.0 s and 0.14 Hz from 2.5 to
# 4.5 s, counted from the start of the relaxation.
SETTLE_SECONDS = 0.5
# Euler step [s], tau/20: a 10 ms frame is 10 steps. A calibration holds
# only at the step it was made at (see ``calibration``).
DEFAULT_DT = 0.001

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


def _projection(weights: np.ndarray) -> np.ndarray:
    """n x n connectivity from a distance-indexed kernel, diagonal zeroed."""
    idx = np.arange(len(weights))
    mat = weights[(idx[None, :] - idx[:, None]) % len(weights)]   # d(i, j) = (j - i) mod n
    np.fill_diagonal(mat, 0.0)
    return mat


def wrap_heading(angle):
    """Elementwise ``angle`` mod 2*pi in [0, 2*pi); ``%`` alone can give 2*pi."""
    angle = angle % TWO_PI
    return angle * (angle < TWO_PI)


class HDCNetwork:
    """Stateful simulator of the heading network.

    ``rates`` is its state (see the module docstring); a caller may read
    or replace it. Instances are single-threaded; the kernel they are
    built from is immutable and may be shared.
    """

    def __init__(self, kernel: WeightKernel, dt: float = DEFAULT_DT):
        if not 0.0 < dt <= NEURON.max_dt:
            raise ValueError(f"dt must be in (0, {NEURON.max_dt}], got {dt}")
        self.kernel = kernel
        self.params = NEURON   # the neuron model, for callers that evaluate it
        self.dt = dt
        self._recurrent = _projection(kernel.h_to_h)
        self._shift = _projection(kernel.s_to_h)
        theta = kernel.curve.preferred_directions
        self._basis = np.stack((np.sin(theta), np.cos(theta)))
        self._min_magnitude = _DECODE_MAGNITUDE_FRACTION * kernel.n * NEURON.r_max
        self.rates = np.zeros((3, kernel.n))
        self._inputs = np.empty(0)   # step buffers, made for the shape of rates

    def decode(self):
        """Population-vector heading of the heading layer, in [0, 2*pi).

        A batch gives one heading per column, NaN where it is degenerate;
        a single network raises DegenerateActivityError instead.
        """
        s, c = self._basis @ self.rates[0]
        heading = wrap_heading(np.arctan2(s, c))
        magnitude = np.hypot(s, c)
        degenerate = magnitude <= self._min_magnitude
        if heading.ndim == 0:
            if degenerate:
                raise DegenerateActivityError(
                    f"population vector magnitude {magnitude:.3g} too small to decode")
            return float(heading)
        heading[degenerate] = np.nan
        return heading

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
        self.rates = np.stack((profile, profile / 2.0, profile / 2.0))
        self.run_frame(ZERO_STIMULUS, SETTLE_SECONDS)

    def step(self, stim: TurningStimulus = ZERO_STIMULUS):
        """Advance all three layers by one Euler step of ``dt``."""
        self.run_frame(stim, self.dt)

    def run_frame(self, stim: TurningStimulus, frame_dt: float):
        """Hold ``stim`` constant for exactly ``frame_dt`` seconds.

        The frame is split into the fewest equal Euler sub-steps no longer
        than ``dt``, so frames off the ``dt`` grid are not over-integrated;
        a frame shorter than ``dt`` is one sub-step of its own length.
        """
        if not 0.0 < frame_dt < np.inf:
            raise ValueError(f"frame_dt must be positive and finite, got {frame_dt}")
        if {np.shape(stim.left), np.shape(stim.right)} - {(), self.rates.shape[2:]}:
            raise ValueError(f"stimulus does not match the batch shape {self.rates.shape[2:]}")
        n_steps = max(1, int(np.ceil(frame_dt / self.dt - 1e-9)))
        dt_tau = frame_dt / n_steps / NEURON.tau
        rates = self.rates
        if self._inputs.shape != rates.shape:
            self._inputs = np.empty(rates.shape)
            self._diff, self._shifted = np.empty((2,) + rates.shape[1:])
        u, diff, shifted = self._inputs, self._diff, self._shifted
        u_h, u_left, u_right = u
        hdc, left, right = rates
        recurrent, shift = self._recurrent, self._shift
        for _ in range(n_steps):
            # The inputs of the module docstring, built in place in u.
            recurrent.dot(hdc, out=u_h)
            np.multiply(u_h, 0.5, out=u_left)
            np.add(u_left, stim.right, out=u_right)
            np.add(u_left, stim.left, out=u_left)
            np.subtract(left, right, out=diff)
            shift.dot(diff, out=shifted)
            u_h += shifted
            transfer(u, out=u)
            # rates += dt / tau * (transfer(u) - rates)
            u -= rates
            u *= dt_tau
            rates += u
