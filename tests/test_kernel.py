import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdcnav.kernel import (DEFAULT_GAMMA, DEFAULT_LAMBDA, TuningCurve,
                           WeightKernel, build_kernel, derivative_kernel,
                           kernel_hash, load_kernel, save_kernel,
                           synthesize_recurrent)
from hdcnav.neuron import NeuronParams, inverse_transfer


def ridge_oracle(curve, lam):
    """Spatial-domain ridge regression, no FFT anywhere.

    u_i = sum_j W[(j - i) mod n] f_j is linear in the kernel entries:
    u = A w with A[i, d] = f[(i + d) mod n]; solve the normal equations.
    """
    p = NeuronParams()
    f = np.clip(curve.evaluate(curve.preferred_directions), 1e-9, p.r_max - 1e-9)
    u = inverse_transfer(f, p)
    n = len(f)
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    a = f[idx]
    return np.linalg.solve(a.T @ a + lam * np.eye(n), a.T @ u)


def test_recurrent_matches_ridge_oracle():
    curve = TuningCurve()
    w = synthesize_recurrent(curve, DEFAULT_LAMBDA)
    np.testing.assert_allclose(w, ridge_oracle(curve, DEFAULT_LAMBDA), atol=1e-9)


def test_recurrent_matches_oracle_other_lambda():
    curve = TuningCurve(n=64)
    w = synthesize_recurrent(curve, 1000.0)
    np.testing.assert_allclose(w, ridge_oracle(curve, 1000.0), atol=1e-9)


def test_recurrent_kernel_is_even():
    w = synthesize_recurrent(TuningCurve())
    np.testing.assert_allclose(w[1:], w[1:][::-1], atol=1e-12)


def test_derivative_of_known_band_limited_signal():
    n = 100
    theta = 2.0 * np.pi * np.arange(n) / n
    signal = np.cos(3 * theta) + 0.5 * np.sin(7 * theta)
    exact = -3 * np.sin(3 * theta) + 3.5 * np.cos(7 * theta)
    np.testing.assert_allclose(derivative_kernel(signal), exact, atol=1e-10)


def test_derivative_kills_nyquist_mode():
    n = 8
    signal = np.cos(np.pi * np.arange(n))  # pure Nyquist oscillation
    np.testing.assert_allclose(derivative_kernel(signal), np.zeros(n), atol=1e-12)


def test_derivative_is_odd_and_zero_sum():
    wp = derivative_kernel(synthesize_recurrent(TuningCurve()))
    np.testing.assert_allclose(wp[1:], -wp[1:][::-1], atol=1e-12)
    assert abs(wp.sum()) < 1e-10


def test_build_kernel_structure(kernel):
    assert kernel.n == 100
    assert kernel.lam == DEFAULT_LAMBDA
    assert kernel.gamma == DEFAULT_GAMMA
    np.testing.assert_allclose(kernel.s_to_h,
                               kernel.gamma * derivative_kernel(kernel.h_to_h))


def test_zero_gamma_gives_inert_shift_weights():
    k = build_kernel(gamma=0.0)
    assert np.all(k.s_to_h == 0.0)


@pytest.mark.parametrize("name, value", [
    ("gamma", -0.1), ("gamma", math.nan), ("gamma", math.inf),
    ("lam", -1.0), ("lam", 0.0), ("lam", math.nan), ("lam", math.inf),
])
def test_negative_gamma_rejected(name, value):
    key = "lambda" if name == "lam" else name
    with pytest.raises(ValueError, match=f"^'{key}': "):
        build_kernel(**{name: value})


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 300), st.floats(0.5, 20.0), st.floats(0.5, 40.0),
       st.floats(1.0, 1e6), st.floats(0.0, 10.0))
def test_synthesis_gives_even_recurrent_and_odd_shift_weights(n, m, a, lam, gamma):
    kernel = WeightKernel(TuningCurve(a=a, m=m, n=n), lam, gamma)
    w, wp = kernel.h_to_h, kernel.s_to_h
    assert np.max(np.abs(w[1:] - w[1:][::-1])) <= 1e-9 * np.max(np.abs(w))
    assert np.max(np.abs(wp[1:] + wp[1:][::-1])) <= 1e-9 * np.max(np.abs(wp))


def test_kernels_compare_by_parameters_and_weights_are_read_only(kernel):
    assert kernel == WeightKernel(TuningCurve(), DEFAULT_LAMBDA, DEFAULT_GAMMA)
    assert build_kernel(gamma=2.8) != kernel
    for weights in (kernel.h_to_h, kernel.s_to_h):
        with pytest.raises(ValueError, match="read-only"):
            weights[1] = 0.0


def test_default_amplitude_near_published_value():
    # B ~ 0.344 quoted in the source material overshoots r_max slightly;
    # the pinned default lands just below it.
    curve = TuningCurve()
    assert curve.b == pytest.approx(0.339, abs=0.002)
    peak = curve.a + curve.b * math.exp(curve.m)
    assert peak < 76.2
    assert peak == pytest.approx(76.2, rel=1e-4)


def test_tuning_curve_validation():
    with pytest.raises(ValueError):
        TuningCurve(a=-1.0)
    with pytest.raises(ValueError):
        TuningCurve(b=1.0)  # peak above r_max
    with pytest.raises(ValueError):
        TuningCurve(n=2)
    # Every profile value counts, not only the one at dtheta = 0: e^m out of
    # the float range, a negative m (peak at pi, and for m = -1000 no pinned
    # b at all), a negative b (values below 0), and a flat profile.
    for options in ({"m": 1000.0}, {"m": 1000.0, "b": 1e-300}, {"m": -1000.0},
                    {"m": -5.29}, {"b": -0.3}, {"m": 0.0}, {"b": 0.0},
                    {"m": math.inf}, {"m": math.nan}):
        with pytest.raises(ValueError, match="'curve'"):
            TuningCurve(**options)
    # n counts cells: a float, even an integral one, a bool or a string is no count.
    for n in (100.0, 4.5, True, "100", None):
        with pytest.raises(ValueError, match="'n': must be an integer"):
            TuningCurve(n=n)


def test_numpy_integer_n_is_the_default_kernel(tmp_path, kernel):
    curve = TuningCurve(n=np.int64(100))
    assert type(curve.n) is int
    numpy_n = build_kernel(curve)
    assert numpy_n == kernel and kernel_hash(numpy_n) == kernel_hash(kernel)
    path = tmp_path / "kernel.json"
    save_kernel(numpy_n, path)
    assert load_kernel(path) == kernel


def test_tuning_curve_even_symmetry():
    curve = TuningCurve()
    d = np.linspace(0.0, np.pi, 50)
    np.testing.assert_allclose(curve.evaluate(d), curve.evaluate(-d))


def test_save_load_round_trip(tmp_path, kernel):
    path = tmp_path / "kernel.json"
    save_kernel(kernel, path)
    loaded = load_kernel(path)
    np.testing.assert_array_equal(loaded.h_to_h, kernel.h_to_h)
    np.testing.assert_array_equal(loaded.s_to_h, kernel.s_to_h)
    assert loaded.gamma == kernel.gamma
    assert loaded.lam == kernel.lam
    assert loaded == kernel and hash(loaded) == hash(kernel)
    assert kernel_hash(loaded) == kernel_hash(kernel)
    assert set(json.loads(path.read_text())) == {"version", "n", "lambda", "gamma", "curve"}


def _document_with_weights(kernel):
    """A kernel file in the layout older versions wrote: the parameters
    plus both weight vectors."""
    return {"version": 2, "n": kernel.n, "lambda": kernel.lam, "gamma": kernel.gamma,
            "curve": {"a": kernel.curve.a, "b": kernel.curve.b, "m": kernel.curve.m},
            "w_hh": kernel.h_to_h.tolist(), "w_sh": kernel.s_to_h.tolist()}


@pytest.mark.parametrize("key, name, value", [("gamma", "gamma", 0.7),
                                              ("lambda", "lam", 1000.0)],
                         ids=["gamma", "lambda"])
def test_load_builds_the_weights_of_edited_parameters(tmp_path, kernel, key, name, value):
    # A file that still carries the weights of other parameters loads the
    # weights of its own parameters.
    path = tmp_path / "edited.json"
    path.write_text(json.dumps({**_document_with_weights(kernel), key: value}))
    loaded, expected = load_kernel(path), build_kernel(**{name: value})
    np.testing.assert_array_equal(loaded.h_to_h, expected.h_to_h)
    np.testing.assert_array_equal(loaded.s_to_h, expected.s_to_h)
    assert kernel_hash(loaded) == kernel_hash(expected)


def test_file_with_weight_vectors_loads_same_kernel_and_hash(tmp_path, kernel):
    # Files written before kernel files held only parameters carry the
    # weight vectors too; they load to the same kernel and hash, so the
    # calibrations made with them stay valid.
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_document_with_weights(kernel), indent=1))
    loaded = load_kernel(path)
    np.testing.assert_array_equal(loaded.h_to_h, kernel.h_to_h)
    np.testing.assert_array_equal(loaded.s_to_h, kernel.s_to_h)
    assert kernel_hash(loaded) == kernel_hash(kernel)


def test_int_valued_parameters_hash_as_floats(tmp_path, kernel):
    # JSON tells 25824 from 25824.0; the kernel document holds floats, so a
    # file with int values hashes as the equal kernel with float values.
    path = tmp_path / "ints.json"
    save_kernel(kernel, path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "lambda": 25824}))
    loaded = load_kernel(path)
    assert loaded == kernel and kernel_hash(loaded) == kernel_hash(kernel)

    path.write_text(json.dumps({"version": 2, "n": 100, "lambda": 1000, "gamma": 1,
                                "curve": {"a": 9, "b": 1, "m": 4}}))
    loaded = load_kernel(path)
    expected = build_kernel(TuningCurve(a=9.0, m=4.0, b=1.0), lam=1000.0, gamma=1.0)
    assert loaded == expected and kernel_hash(loaded) == kernel_hash(expected)
    save_kernel(loaded, path)
    doc = json.loads(path.read_text())
    assert all(isinstance(v, float) for v in
               (doc["lambda"], doc["gamma"], *doc["curve"].values()))


def test_save_is_deterministic(tmp_path, kernel):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_kernel(kernel, p1)
    save_kernel(kernel, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("version", [1, 99])
def test_load_rejects_unknown_version(tmp_path, kernel, version):
    path = tmp_path / "kernel.json"
    save_kernel(kernel, path)
    doc = json.loads(path.read_text())
    doc["version"] = version
    path.write_text(json.dumps(doc))
    # Every version but 2 gets the one refusal: the file, and how to regenerate it.
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: unsupported kernel file version {version}; regenerate the "
            "kernel with `hdcnav synthesize`")):
        load_kernel(path)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: [d], r"expected a JSON object, got list", id="array"),
    pytest.param(lambda d: {**d, "curve": {"a": 8.95, "m": 5.29}},
                 r"'curve': missing 'b'", id="no-curve-b"),
    pytest.param(lambda d: {**d, "curve": {**d["curve"], "a": "x"}},
                 r"'curve': 'a' must be of type float, got 'x'", id="string-curve-a"),
    pytest.param(lambda d: {**d, "gamma": None},
                 r"'gamma' must be of type float, got None", id="null-gamma"),
    pytest.param(lambda d: {**d, "n": 100.0},
                 r"'n' must be of type int, got 100.0", id="float-n"),
    pytest.param(lambda d: {**d, "curve": {**d["curve"], "a": -1.0}},
                 r"'curve': tuning curve must stay strictly inside \(0, r_max\)",
                 id="negative-curve-a"),
    pytest.param(lambda d: {**d, "curve": {**d["curve"], "m": 1000.0}},
                 r"'curve': tuning curve must stay strictly inside \(0, r_max\)",
                 id="huge-curve-m"),
    pytest.param(lambda d: {**d, "n": 2},
                 r"'n': need at least 4 neurons, got 2", id="too-few-n"),
    pytest.param(lambda d: {**d, "gamma": -1.0},
                 r"'gamma': must be finite and >= 0, got -1.0", id="negative-gamma"),
    pytest.param(lambda d: {**d, "lambda": -1.0},
                 r"'lambda': must be positive and finite, got -1.0", id="negative-lambda"),
])
def test_load_rejects_malformed_file(tmp_path, kernel, edit, message):
    path = tmp_path / "kernel.json"
    save_kernel(kernel, path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message) as info:
        load_kernel(path)
    assert str(info.value).startswith(str(path))


def test_hash_changes_with_parameters(kernel):
    other = build_kernel(gamma=kernel.gamma * 2.0)
    assert kernel_hash(other) != kernel_hash(kernel)
