"""Rate-based neuron model: sigmoid transfer function, its inverse, and
explicit Euler integration of the firing-rate dynamics.

All rates are in Hz, inputs in dimensionless synaptic-current units, time
in seconds.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NeuronParams", "NEURON", "transfer", "inverse_transfer", "euler_step"]


@dataclass(frozen=True)
class NeuronParams:
    """Parameters of the rate neuron (fitted to in-vivo recordings)."""

    tau: float = 0.020     # firing-rate time constant [s]
    r_max: float = 76.2    # maximal firing rate [Hz]
    beta: float = 0.82     # sigmoid slope
    h0: float = 2.46       # sigmoid midpoint [input units]

    def __post_init__(self):
        # Each comparison is written so that NaN fails it.
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0 < self.r_max < math.inf:
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not math.isfinite(self.h0):
            raise ValueError(f"h0 must be finite, got {self.h0}")

    @property
    def max_dt(self) -> float:
        """Largest Euler step considered safe (tau / 10); the network steps
        at exactly this (``network.DEFAULT_DT``)."""
        return self.tau / 10.0


# The one neuron model of the network and of kernel synthesis. The ``p``
# arguments below let the functions be checked with other parameters.
NEURON = NeuronParams()


def transfer(x, p: NeuronParams = NEURON):
    """Sigmoid transfer from synaptic input to firing rate [Hz].

    Defined for all real inputs; output lies strictly in (0, r_max). A
    scalar gives a scalar.
    """
    x = np.asarray(x, dtype=float)
    # exp overflows above ~709.78; at the clamp the rate is below 1e-306 Hz.
    return p.r_max / (1.0 + np.exp(np.minimum(-p.beta * (x - p.h0), 709.0)))


def inverse_transfer(f, p: NeuronParams = NEURON):
    """Synaptic input producing firing rate ``f`` at steady state.

    Raises ValueError outside the open interval (0, r_max); callers are
    expected to clamp before inverting.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0.0) or np.any(f >= p.r_max):
        raise ValueError("inverse_transfer requires 0 < f < r_max")
    return p.h0 - np.log(p.r_max / f - 1.0) / p.beta


def euler_step(rates, inputs, dt: float, p: NeuronParams = NEURON):
    """One explicit Euler step of ``tau * df/dt = -f + transfer(input)``.

    ``dt`` is capped at tau/10 so the discrete update stays firmly inside
    the stability region of the linear relaxation.
    """
    rates = np.asarray(rates, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if rates.shape != inputs.shape:
        raise ValueError(f"shape mismatch: rates {rates.shape} vs inputs {inputs.shape}")
    if not 0.0 < dt <= p.max_dt:
        raise ValueError(f"dt must be in (0, {p.max_dt}], got {dt}")
    return rates + (dt / p.tau) * (transfer(inputs, p) - rates)
