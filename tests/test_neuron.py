import math

import numpy as np
import pytest

from hdcnav.neuron import NEURON, NeuronParams, euler_step, inverse_transfer, transfer


def test_baseline_rate_at_zero_input():
    # sigmoid at x=0 with the default parameters
    assert transfer(0.0) == pytest.approx(8.947, abs=0.01)


def test_transfer_range_and_monotonicity():
    x = np.linspace(-15.0, 15.0, 1001)
    f = transfer(x)
    assert np.all(f > 0.0)
    assert np.all(f < 76.2)
    assert np.all(np.diff(f) > 0.0)


def test_transfer_midpoint():
    p = NeuronParams()
    assert transfer(p.h0) == pytest.approx(p.r_max / 2.0, rel=1e-12)


def sigmoid_expression(x, p=NEURON):
    """The transfer function as one expression of new arrays: the reference."""
    z = -p.beta * (np.asarray(x, dtype=float) - p.h0)
    return p.r_max / (1.0 + np.exp(np.minimum(z, 709.0)))


@pytest.mark.parametrize("p", [NEURON, NeuronParams(beta=0.5, h0=-1.0)])
@pytest.mark.parametrize("shape", [(3, 100), (3, 100, 3)])
def test_transfer_into_out_is_bit_identical(p, shape):
    # The clamp region (-1.7e308 and the other very negative inputs), the
    # far positive side and the slope, bit for bit.
    edges = [-1.7e308, -1e4, -870.0, -866.0, 0.0, p.h0, 1e4, 1.7e308]
    size = math.prod(shape)
    x = np.concatenate((edges, np.random.default_rng(3).normal(
        p.h0, 20.0, size - len(edges)))).reshape(shape)
    expected = sigmoid_expression(x, p)
    assert np.array_equal(transfer(x, p), expected)


@pytest.mark.parametrize("x", [0.0, 2.46, -1.7e308, 1e4, 5, np.float64(-3.5),
                               np.array(1.25)])
def test_transfer_scalar_results_unchanged(x):
    expected = sigmoid_expression(x)
    got = transfer(x)
    assert type(got) is type(expected) is np.float64
    assert got == expected


def test_inverse_round_trip():
    x = np.linspace(-8.0, 12.0, 101)
    np.testing.assert_allclose(inverse_transfer(transfer(x)), x, atol=1e-9)


@pytest.mark.parametrize("bad", [0.0, -1.0, 76.2, 80.0])
def test_inverse_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        inverse_transfer(bad)


def test_euler_matches_analytic_relaxation():
    # Constant input: f(t) = phi + (f0 - phi) * exp(-t/tau), exactly.
    p = NeuronParams()
    f0, x = 30.0, 5.0
    phi = float(transfer(x, p))
    dt, steps = 1e-4, 2000
    f = np.array([f0])
    for _ in range(steps):
        f = euler_step(f, np.array([x]), dt, p)
    expected = phi + (f0 - phi) * math.exp(-steps * dt / p.tau)
    assert f[0] == pytest.approx(expected, abs=1e-3)


def test_euler_fixed_point():
    p = NeuronParams()
    f = transfer(np.array([1.0, 3.0]), p)
    stepped = euler_step(f, np.array([1.0, 3.0]), p.max_dt, p)
    np.testing.assert_allclose(stepped, f, atol=1e-12)


def test_euler_rejects_bad_dt():
    p = NeuronParams()
    with pytest.raises(ValueError):
        euler_step(np.zeros(3), np.zeros(3), 0.0, p)
    with pytest.raises(ValueError):
        euler_step(np.zeros(3), np.zeros(3), p.max_dt * 1.01, p)


def test_euler_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        euler_step(np.zeros(3), np.zeros(4), 1e-3)


@pytest.mark.parametrize("kwargs", [dict(tau=0.0), dict(tau=-1.0),
                                    dict(r_max=0.0), dict(beta=-0.1),
                                    dict(tau=math.nan), dict(tau=math.inf),
                                    dict(r_max=math.nan), dict(r_max=math.inf),
                                    dict(beta=math.nan), dict(beta=math.inf),
                                    dict(h0=math.nan), dict(h0=math.inf),
                                    dict(h0=-math.inf)])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        NeuronParams(**kwargs)


def test_max_dt_is_tenth_of_tau():
    assert NeuronParams(tau=0.05).max_dt == pytest.approx(0.005)
