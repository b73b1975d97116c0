"""Link functions: evaluation, envelope soundness, and the smoothed clamp."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadac import maps

ALL_LINKS = [
    maps.Identity(dim=2),
    maps.ScaledTanh(dim=4, a=2.0),
    maps.Sigmoid(dim=3),
    maps.LeakyRelu(dim=2, slope=0.3),
    maps.GaussianSurvival(dim=2),
    maps.SmoothedClamp(dim=2, N=10.0, sigma=1.0),
    maps.SmoothedClamp(dim=2, N=10.0, sigma=5.0),
]

BOUNDED_LINKS = [f for f in ALL_LINKS if f.bounded]


def test_identity_eval():
    f = maps.Identity(dim=2)
    np.testing.assert_array_equal(f.eval(np.array([3.0, -1.0])), [3.0, -1.0])


def test_scaled_tanh_zero():
    f = maps.ScaledTanh(dim=4, a=2.0)
    np.testing.assert_array_equal(f.eval(np.zeros(4)), np.zeros(4))


def test_smoothed_clamp_zero_noise_limit():
    # sigma -> 0 degenerates to the hard clamp onto [0, N]
    f = maps.SmoothedClamp(dim=3, N=10.0, sigma=1e-8)
    out = f.eval(np.array([-5.0, 4.0, 12.0]))
    np.testing.assert_allclose(out, [0.0, 4.0, 10.0], atol=1e-7)


def test_smoothed_clamp_midpoint_symmetry():
    # the clamp is symmetric about N/2, so the mean at z = N/2 is exact
    assert maps.smoothed_clamp_value(10.0, 1.0, 5.0) == pytest.approx(5.0, abs=1e-12)
    assert maps.smoothed_clamp_value(10.0, 5.0, 5.0) == pytest.approx(5.0, abs=1e-12)


def test_smoothed_clamp_range():
    z = np.linspace(-30, 40, 201)
    vals = maps.smoothed_clamp_value(10.0, 5.0, z)
    assert np.all(vals > 0.0)
    assert np.all(vals < 10.0)


def test_smoothed_clamp_monte_carlo():
    # closed form vs simulation of E[clamp(z + eta, 0, N)], eta ~ N(0, sigma^2)
    rng = np.random.default_rng(7)
    n_samp = 1_000_000
    eta = rng.standard_normal(n_samp)
    for z in np.arange(-10.0, 21.0, 1.0):
        samp = np.clip(z + 5.0 * eta, 0.0, 10.0)
        mc, se = samp.mean(), samp.std(ddof=1) / np.sqrt(n_samp)
        exact = maps.smoothed_clamp_value(10.0, 5.0, z)
        assert abs(exact - mc) <= 4.0 * se + 1e-12, f"z={z}: {exact} vs {mc} +- {se}"


def test_alpha_env_closed_forms():
    assert maps.ScaledTanh(dim=1, a=2.0).alpha_env(0.0) == pytest.approx(2.0)
    f = maps.LeakyRelu(dim=1, slope=0.3)
    for c in (0.0, 1.0, 50.0):
        assert f.alpha_env(c) == pytest.approx(0.3)
        assert f.beta_env(c) == pytest.approx(1.0)
    g = maps.Sigmoid(dim=1)
    for c in (0.0, 2.0, 10.0):
        assert g.beta_env(c) == pytest.approx(0.25)
    h = maps.GaussianSurvival(dim=1)
    assert h.beta_env(3.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi))
    assert h.alpha_env(2.0) == pytest.approx(np.exp(-2.0) / np.sqrt(2 * np.pi))


@pytest.mark.parametrize("f", ALL_LINKS, ids=lambda f: type(f).__name__ + str(getattr(f, "sigma", "")))
def test_envelopes_bracket_finite_differences(f):
    # central finite differences of any component over [-c, c] must land
    # inside [alpha_env(c), beta_env(c)] up to discretization slack
    for c in (0.5, 2.0, 6.0):
        lo, hi = f.alpha_env(c), f.beta_env(c)
        z = np.linspace(-c, c, 101)
        h = 1e-6
        d = (f.eval(z + h) - f.eval(z - h)) / (2 * h)
        assert np.all(d >= lo - 1e-6)
        assert np.all(d <= hi + 1e-6)


@pytest.mark.parametrize("f", ALL_LINKS, ids=lambda f: type(f).__name__ + str(getattr(f, "sigma", "")))
def test_envelope_monotonicity(f):
    cs = np.linspace(0.0, 25.0, 60)
    alphas = [f.alpha_env(c) for c in cs]
    betas = [f.beta_env(c) for c in cs]
    assert all(a > 0 for a in alphas)
    assert all(b1 >= b2 - 1e-15 for b1, b2 in zip(alphas, alphas[1:]))
    assert all(b1 <= b2 + 1e-15 for b1, b2 in zip(betas, betas[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(alphas, betas))


@pytest.mark.parametrize("f", ALL_LINKS, ids=lambda f: type(f).__name__ + str(getattr(f, "sigma", "")))
@pytest.mark.parametrize("c", [0.5, 1.0, 5.0, 20.0])
def test_envelope_soundness_random_pairs(f, c):
    # increment inequalities behind the envelopes:
    #   (x-y)^T (f(x)-f(y)) >= alpha(c) ||x-y||^2
    #   ||f(x)-f(y)|| <= beta(c) ||x-y||
    rng = np.random.default_rng(int(c * 100) + f.dim)
    lo, hi = f.alpha_env(c), f.beta_env(c)
    for _ in range(2_500):
        x = rng.uniform(-1, 1, f.dim)
        y = rng.uniform(-1, 1, f.dim)
        x *= c / max(np.linalg.norm(x), 1.0)
        y *= c / max(np.linalg.norm(y), 1.0)
        dz = x - y
        dfv = f.eval(x) - f.eval(y)
        assert dz @ dfv >= lo * (dz @ dz) - 1e-9
        assert np.linalg.norm(dfv) <= hi * np.linalg.norm(dz) + 1e-9


@pytest.mark.parametrize("f", BOUNDED_LINKS, ids=lambda f: type(f).__name__ + str(getattr(f, "sigma", "")))
def test_bounded_links_keep_positive_modulus_on_their_range(f):
    # the modulus evaluated at the output magnitude stays bounded away from
    # zero: saturation of the output does not degenerate the envelopes
    for z in np.linspace(-50, 50, 41):
        r = float(np.linalg.norm(f.eval(np.full(f.dim, z))))
        assert f.alpha_env(r) > 0.0
        assert np.isfinite(f.beta_env(r))


def test_huge_radius_clamps_not_raises():
    f = maps.ScaledTanh(dim=1, a=2.0)
    assert f.alpha_env(500.0) >= 1e-300
    g = maps.SmoothedClamp(dim=1, N=10.0, sigma=5.0)
    assert g.alpha_env(5_000.0) >= 1e-300  # true value underflows a double


def test_invalid_inputs():
    f = maps.ScaledTanh(dim=1, a=2.0)
    with pytest.raises(ValueError):
        f.alpha_env(-1.0)
    with pytest.raises(ValueError):
        f.eval(np.array([np.nan]))
    with pytest.raises(ValueError):
        maps.ScaledTanh(dim=1, a=-1.0)
    with pytest.raises(ValueError):
        maps.LeakyRelu(dim=1, slope=1.5)
    with pytest.raises(ValueError):
        maps.smoothed_clamp_value(10.0, -1.0, 0.0)


def test_custom_componentwise_verified_at_construction():
    f = maps.CustomComponentwise(
        dim=1,
        components=(np.tanh,),
        deriv_lower=(lambda c: 1.0 / np.cosh(c) ** 2,),
        deriv_upper=(lambda c: 1.0,),
        bounded_flag=True,
    )
    assert f.alpha_env(1.0) == pytest.approx(1.0 / np.cosh(1.0) ** 2)
    with pytest.raises(maps.EnvelopeContractError):
        maps.CustomComponentwise(
            dim=1,
            components=(np.tanh,),
            deriv_lower=(lambda c: 0.9,),  # false: tanh' drops below 0.9
            deriv_upper=(lambda c: 1.0,),
        )


def test_link_from_config_round_trip():
    for f in ALL_LINKS:
        if isinstance(f, maps.CustomComponentwise):
            continue
        g = maps.link_from_config(f.to_config(), f.dim)
        assert g == f
    with pytest.raises(ValueError):
        maps.link_from_config({"kind": "spline"}, 2)


@settings(max_examples=60, deadline=None)
@given(
    z=st.floats(-30, 30),
    sigma=st.floats(0.1, 10.0),
    n_cap=st.floats(1.0, 20.0),
)
def test_smoothed_clamp_between_hard_clamp_bounds(z, sigma, n_cap):
    # smoothing can move the value only within [0, N], and monotonically in z
    v = maps.smoothed_clamp_value(n_cap, sigma, z)
    assert 0.0 <= v <= n_cap  # strict in exact arithmetic, closed in floats
    assert maps.smoothed_clamp_value(n_cap, sigma, z + 0.5) >= v - 1e-12


@pytest.mark.parametrize("links", [
    [maps.SmoothedClamp(dim=2, N=10.0, sigma=s) for s in (1.0, 5.0, 10.0)],
    [maps.ScaledTanh(dim=2, a=a) for a in (0.5, 2.0)],
    [maps.LeakyRelu(dim=2, slope=s) for s in (0.1, 0.3, 0.3)],
    [maps.Sigmoid(dim=2)] * 3,
], ids=["smoothed_clamp", "scaled_tanh", "leaky_relu", "shared"])
def test_stacked_link_evaluates_each_run_as_alone(links):
    batch = maps.stacked(links, 1)
    assert batch.runs == tuple(links)
    z = np.random.default_rng(2).uniform(-30.0, 30.0, (len(links), 2))
    out = batch.eval(z)
    for r, link in enumerate(links):
        assert np.array_equal(out[r], link.eval(z[r]))
    # parameters every run shares stay Python floats
    if isinstance(links[0], maps.SmoothedClamp):
        assert batch.N == 10.0 and batch.sigma.shape == (3, 1)


def test_stacked_rejects_runs_of_different_kinds():
    with pytest.raises(ValueError):
        maps.stacked([maps.Sigmoid(dim=2), maps.Identity(dim=2)])
    with pytest.raises(ValueError):
        maps.stacked([maps.Sigmoid(dim=2), maps.Sigmoid(dim=3)])
