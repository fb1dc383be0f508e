"""Three-layer ring attractor: one heading layer and two shift layers.

With recurrent kernel W and shift kernel gamma * W' (see ``kernel``), the
synaptic inputs are

    u_h     = W f_h + gamma W' (f_L - f_R)
    u_{L,R} = W f_h / 2 + s_{L,R}

where f are the layers' firing rates and s the turning stimuli. Every
Euler step is ``DEFAULT_DT``, the neuron model's largest safe step of
2 ms, so a 10 ms frame is 5 steps.
Self-connections (cell distance 0) carry no weight.

The network's state is its ``rates`` array of shape ``(3, n)``: rows
f_h, f_L and f_R. ``init_at`` makes one network; rates of shape
``(3, n, B)``, set by a caller, are B independent networks stepped
together by the same code, each ring product then one n x B matrix
product.

A step works on z = -beta (u - h0) / 2, not on u, and writes the sigmoid
in its tanh form r_max / (1 + exp(2 z)) = (r_max / 2) (1 - tanh(z)).
-beta/2 is folded into both ring matrices when the network is built, and
beta h0 / 2 into a last column of the shift matrix that meets a one below
f_L - f_R. With A = -beta W / 2 and S = [-beta gamma W' / 2 | beta h0 / 2],
the Euler step of the neuron model (``neuron.euler_step``) reads

    z_h     = A f_h + S [f_L - f_R; 1]
    z_{L,R} = A f_h / 2 + (beta h0 - beta s_{L,R}) / 2
    rates  <- (1 - dt/tau) rates + c - c tanh(z),   c = (dt/tau) r_max / 2

where the offsets in parentheses and the constants are fixed for a
frame. tanh is bounded, so no state or stimulus can overflow and the
step needs no clamp. A step is two ring products and ten elementwise
numpy calls, in place in one buffer shaped like ``rates``, an n-vector
and an (n + 1)-vector (n x B and (n + 1) x B for a batch), made again
only when ``rates`` changes shape, so a step allocates no array. No call
takes a Python float, which numpy converts on every call (about 0.4 us
on a 2-vCPU Xeon KVM guest, a third of a call on 300 floats): every
constant is a 0-d array, and a stimulus that differs per column a
length-B one (a broadcast column would cost more).
"""

from dataclasses import dataclass

import numpy as np

from .io import wrap_heading
from .kernel import WeightKernel
from .neuron import NEURON

__all__ = ["TurningStimulus", "HDCNetwork", "DegenerateActivityError"]

# 25 tau of zero-stimulus relaxation before a replay or sweep. It fixes the
# bump's position (it then moves about 1e-14 rad in the next 10 s) but not
# its shape: with the default kernel and step the heading-layer rates (peak
# 73 Hz) still change by up to 1.5 Hz from 0.5 to 1.0 s and 0.14 Hz from
# 2.5 to 4.5 s, counted from the start of the relaxation.
SETTLE_SECONDS = 0.5
# The network's one Euler step [s]: the neuron model's largest safe step,
# tau/10 (2 ms), so a 10 ms frame is 5 steps. A calibration holds only at
# the step it was made at (see ``calibration``).
DEFAULT_DT = NEURON.max_dt

_HALF = np.array(0.5)   # 0-d, as every constant of the step (see the module docstring)
_BETA_H0 = NEURON.beta * NEURON.h0

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
        if not (np.isfinite(self.left) & np.isfinite(self.right)
                & (np.fmin(self.left, self.right) >= 0.0)).all():
            raise ValueError("stimulus values must be finite and non-negative")


def _projection(weights: np.ndarray) -> np.ndarray:
    """n x n connectivity from a distance-indexed kernel, diagonal zeroed."""
    idx = np.arange(len(weights))
    mat = weights[(idx[None, :] - idx[:, None]) % len(weights)]   # d(i, j) = (j - i) mod n
    np.fill_diagonal(mat, 0.0)
    return mat


class HDCNetwork:
    """Stateful simulator of the heading network.

    ``rates`` is its state (see the module docstring); a caller may read
    or replace it. Instances are single-threaded; the kernel they are
    built from is immutable and may be shared.
    """

    def __init__(self, kernel: WeightKernel):
        self.kernel = kernel
        self.params = NEURON   # the neuron model, for callers that evaluate it
        # The ring matrices of the module docstring, whose products are in z
        # units. Column-major: OpenBLAS 0.3.31 multiplies a vector or an
        # n x B batch by these faster than by row-major copies (about 4% of
        # a 10 ms frame on a 2-vCPU Xeon KVM guest).
        self._recurrent = np.asfortranarray(_projection(kernel.h_to_h) * (-NEURON.beta / 2))
        self._shift = np.asfortranarray(np.column_stack((
            _projection(kernel.s_to_h) * (-NEURON.beta / 2), np.full(kernel.n, _BETA_H0 / 2))))
        theta = kernel.curve.preferred_directions
        self._basis = np.stack((np.sin(theta), np.cos(theta)))
        self._min_magnitude = _DECODE_MAGNITUDE_FRACTION * kernel.n * NEURON.r_max
        self.rates = np.zeros((3, kernel.n))
        self._z = np.empty(0)   # step buffers, made for the shape of rates

    @property
    def dt(self) -> float:
        """The Euler step, always ``DEFAULT_DT`` (read-only)."""
        return DEFAULT_DT

    def decode(self):
        """Population-vector heading of the heading layer, in [0, 2*pi).

        A batch gives one heading per column, NaN where it is degenerate
        (a population vector too short, or not finite); a single network
        raises DegenerateActivityError instead.
        """
        s, c = self._basis @ self.rates[0]
        heading = wrap_heading(np.arctan2(s, c))
        magnitude = np.hypot(s, c)
        degenerate = ~(magnitude > self._min_magnitude)   # NaN is degenerate too
        if heading.ndim == 0:
            if degenerate:
                raise DegenerateActivityError(
                    f"population vector magnitude {magnitude:.3g} too small to decode"
                    if np.isfinite(magnitude) else
                    "population vector is not finite: the heading layer holds NaN or inf rates")
            return float(heading)
        heading[degenerate] = np.nan
        return heading

    # -- dynamics -------------------------------------------------------

    def init_at(self, heading: float):
        """Place the activity bump at ``heading`` and let it settle.

        The heading layer starts on the closed-form tuning profile rotated
        to the requested direction, the shift layers on half of it; a
        0.5 s zero-stimulus relaxation follows. It leaves the bump at
        ``heading`` but not yet at its final shape (see
        ``SETTLE_SECONDS``). ``heading`` is one finite scalar, and the
        network is single afterwards; a batch is made by setting ``rates``.
        """
        if np.ndim(heading) != 0 or not np.isfinite(heading):
            raise ValueError(f"heading must be a finite scalar, got {heading!r}")
        curve = self.kernel.curve
        profile = curve.evaluate(curve.preferred_directions - heading)
        self.rates = np.stack((profile, profile / 2.0, profile / 2.0))
        self.run_frame(TurningStimulus(), SETTLE_SECONDS)

    def step(self, stim: TurningStimulus):
        """Advance all three layers by one Euler step of ``DEFAULT_DT``."""
        self.run_frame(stim, DEFAULT_DT)

    def run_frame(self, stim: TurningStimulus, frame_dt: float):
        """Hold ``stim`` constant for exactly ``frame_dt`` seconds.

        The frame runs as the fewest equal Euler sub-steps no longer than
        ``DEFAULT_DT``, so a frame off that grid is not over-integrated and
        a shorter one is one sub-step of its own length: a finer step is a
        frame cut into equal slices no longer than ``DEFAULT_DT``.
        """
        if not 0.0 < frame_dt < np.inf:
            raise ValueError(f"frame_dt must be positive and finite, got {frame_dt}")
        if {np.shape(stim.left), np.shape(stim.right)} - {(), self.rates.shape[2:]}:
            raise ValueError(f"stimulus does not match the batch shape {self.rates.shape[2:]}")
        n_steps = max(1, int(np.ceil(frame_dt / DEFAULT_DT - 1e-9)))
        dt_tau = frame_dt / n_steps / NEURON.tau
        decay, c = np.array(1.0 - dt_tau), np.array(dt_tau * NEURON.r_max / 2)
        offset_left = np.asarray((_BETA_H0 - NEURON.beta * stim.left) / 2)
        offset_right = np.asarray((_BETA_H0 - NEURON.beta * stim.right) / 2)
        rates = self.rates
        if self._z.shape != rates.shape:
            self._z, self._shifted = np.empty(rates.shape), np.empty(rates.shape[1:])
            # [f_L - f_R; 1]: the steps write the rows above the ones.
            self._diff = np.ones((rates.shape[1] + 1,) + rates.shape[2:])
        z, diff, shifted = self._z, self._diff, self._shifted
        z_h, z_left, z_right = z
        diff_rates = diff[:-1]
        hdc, left, right = rates
        recurrent, shift = self._recurrent, self._shift
        for _ in range(n_steps):
            # z of the module docstring, built in place.
            recurrent.dot(hdc, out=z_h)
            np.multiply(z_h, _HALF, out=z_left)
            np.add(z_left, offset_right, out=z_right)
            np.add(z_left, offset_left, out=z_left)
            np.subtract(left, right, out=diff_rates)
            shift.dot(diff, out=shifted)
            z_h += shifted
            # rates = (1 - dt/tau) rates + c - c tanh(z)
            np.tanh(z, out=z)
            rates *= decay
            rates += c
            z *= c
            rates -= z
