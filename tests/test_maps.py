"""Link functions: evaluation, envelope soundness, and the smoothed clamp."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadac import maps

# each link with the size of the vectors its tests draw: links act
# elementwise, so any size will do
SIZED_LINKS = [
    (maps.Identity(), 2),
    (maps.ScaledTanh(a=2.0), 4),
    (maps.Sigmoid(), 3),
    (maps.LeakyRelu(slope=0.3), 2),
    (maps.GaussianSurvival(), 2),
    (maps.SmoothedClamp(N=10.0, sigma=1.0), 2),
    (maps.SmoothedClamp(N=10.0, sigma=5.0), 2),
]

ALL_LINKS = [f for f, _ in SIZED_LINKS]
BOUNDED_LINKS = [(f, n) for f, n in SIZED_LINKS if f.bounded]


def _link_id(case):
    f = case[0]
    return type(f).__name__ + str(getattr(f, "sigma", ""))


def test_identity_eval():
    f = maps.Identity()
    np.testing.assert_array_equal(f.eval(np.array([3.0, -1.0])), [3.0, -1.0])


def test_scaled_tanh_zero():
    f = maps.ScaledTanh(a=2.0)
    np.testing.assert_array_equal(f.eval(np.zeros(4)), np.zeros(4))


def test_smoothed_clamp_zero_noise_limit():
    # sigma -> 0 degenerates to the hard clamp onto [0, N]
    f = maps.SmoothedClamp(N=10.0, sigma=1e-8)
    out = f.eval(np.array([-5.0, 4.0, 12.0]))
    np.testing.assert_allclose(out, [0.0, 4.0, 10.0], atol=1e-7)


def test_smoothed_clamp_midpoint_symmetry():
    # the clamp is symmetric about N/2, so the mean at z = N/2 is exact
    assert maps.SmoothedClamp(N=10.0, sigma=1.0).eval(5.0) == pytest.approx(5.0, abs=1e-12)
    assert maps.SmoothedClamp(N=10.0, sigma=5.0).eval(5.0) == pytest.approx(5.0, abs=1e-12)


def test_smoothed_clamp_range():
    z = np.linspace(-30, 40, 201)
    vals = maps.SmoothedClamp(N=10.0, sigma=5.0).eval(z)
    assert np.all(vals > 0.0)
    assert np.all(vals < 10.0)


def test_smoothed_clamp_monte_carlo():
    # closed form vs simulation of E[clamp(z + eta, 0, N)], eta ~ N(0, sigma^2)
    rng = np.random.default_rng(7)
    n_samp = 1_000_000
    eta = rng.standard_normal(n_samp)
    link = maps.SmoothedClamp(N=10.0, sigma=5.0)
    for z in np.arange(-10.0, 21.0, 1.0):
        samp = np.clip(z + 5.0 * eta, 0.0, 10.0)
        mc, se = samp.mean(), samp.std(ddof=1) / np.sqrt(n_samp)
        exact = link.eval(z)
        assert abs(exact - mc) <= 4.0 * se + 1e-12, f"z={z}: {exact} vs {mc} +- {se}"


def test_alpha_env_closed_forms():
    assert maps.ScaledTanh(a=2.0).alpha_env(0.0) == pytest.approx(2.0)
    f = maps.LeakyRelu(slope=0.3)
    for c in (0.0, 1.0, 50.0):
        assert f.alpha_env(c) == pytest.approx(0.3)
        assert f.beta_env(c) == pytest.approx(1.0)
    g = maps.Sigmoid()
    for c in (0.0, 2.0, 10.0):
        assert g.beta_env(c) == pytest.approx(0.25)
    h = maps.GaussianSurvival()
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


@pytest.mark.parametrize("case", SIZED_LINKS, ids=_link_id)
@pytest.mark.parametrize("c", [0.5, 1.0, 5.0, 20.0])
def test_envelope_soundness_random_pairs(case, c):
    # increment inequalities behind the envelopes:
    #   (x-y)^T (f(x)-f(y)) >= alpha(c) ||x-y||^2
    #   ||f(x)-f(y)|| <= beta(c) ||x-y||
    f, n = case
    rng = np.random.default_rng(int(c * 100) + n)
    lo, hi = f.alpha_env(c), f.beta_env(c)
    for _ in range(2_500):
        x = rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n)
        x *= c / max(np.linalg.norm(x), 1.0)
        y *= c / max(np.linalg.norm(y), 1.0)
        dz = x - y
        dfv = f.eval(x) - f.eval(y)
        assert dz @ dfv >= lo * (dz @ dz) - 1e-9
        assert np.linalg.norm(dfv) <= hi * np.linalg.norm(dz) + 1e-9


@pytest.mark.parametrize("case", BOUNDED_LINKS, ids=_link_id)
def test_bounded_links_keep_positive_modulus_on_their_range(case):
    # the modulus evaluated at the output magnitude stays bounded away from
    # zero: saturation of the output does not degenerate the envelopes
    f, n = case
    for z in np.linspace(-50, 50, 41):
        r = float(np.linalg.norm(f.eval(np.full(n, z))))
        assert f.alpha_env(r) > 0.0
        assert np.isfinite(f.beta_env(r))


def test_huge_radius_clamps_not_raises():
    f = maps.ScaledTanh(a=2.0)
    assert f.alpha_env(500.0) >= 1e-300
    g = maps.SmoothedClamp(N=10.0, sigma=5.0)
    assert g.alpha_env(5_000.0) >= 1e-300  # true value underflows a double


def test_invalid_inputs():
    f = maps.ScaledTanh(a=2.0)
    with pytest.raises(ValueError):
        f.alpha_env(-1.0)
    with pytest.raises(ValueError):
        f.eval(np.array([np.nan]))
    with pytest.raises(ValueError):
        maps.ScaledTanh(a=-1.0)
    with pytest.raises(ValueError):
        maps.LeakyRelu(slope=1.5)
    with pytest.raises(ValueError):
        maps.SmoothedClamp(N=10.0, sigma=-1.0).eval(0.0)


@settings(max_examples=60, deadline=None)
@given(
    z=st.floats(-30, 30),
    sigma=st.floats(0.1, 10.0),
    n_cap=st.floats(1.0, 20.0),
)
def test_smoothed_clamp_between_hard_clamp_bounds(z, sigma, n_cap):
    # smoothing can move the value only within [0, N], and monotonically in z
    link = maps.SmoothedClamp(N=n_cap, sigma=sigma)
    v = link.eval(z)
    assert 0.0 <= v <= n_cap  # strict in exact arithmetic, closed in floats
    assert link.eval(z + 0.5) >= v - 1e-12


@pytest.mark.parametrize("links", [
    [maps.SmoothedClamp(N=10.0, sigma=s) for s in (1.0, 5.0, 10.0)],
    [maps.ScaledTanh(a=a) for a in (0.5, 2.0)],
    [maps.LeakyRelu(slope=s) for s in (0.1, 0.3, 0.3)],
    [maps.Sigmoid()] * 3,
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


# the links of R = 3 runs, with the size of the vectors the tests draw
STACKED_CALLS = {
    **{type(f).__name__ + (f"_sigma{f.sigma:g}" if isinstance(f, maps.SmoothedClamp) else ""):
       ([f] * 3, n) for f, n in SIZED_LINKS},
    "ScaledTanh_per_run": ([maps.ScaledTanh(a=a) for a in (0.5, 2.0, 2.0)], 2),
    "LeakyRelu_per_run": ([maps.LeakyRelu(slope=s) for s in (0.1, 0.3, 0.5)], 2),
    "SmoothedClamp_per_run_sigma": (
        [maps.SmoothedClamp(N=10.0, sigma=s) for s in (1.0, 5.0, 10.0)], 2
    ),
}


@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("name", list(STACKED_CALLS))
def test_stacked_call_is_separate_calls_bit_for_bit(name, rows):
    # the simulation loop evaluates the plant's rows (and the reference's)
    # with the estimator's prediction stacked after them, in one call: each
    # row must get the bits of its own call, alone (rows, n) and in a batch
    # (rows, R, n) with the link's per-run parameters stacked along R
    links, n = STACKED_CALLS[name]
    rng = np.random.default_rng(rows)
    z = rng.uniform(-30.0, 30.0, (rows, len(links), n))
    z[0, 0, 0], z[-1, -1, -1] = 0.0, -0.0
    for r, link in enumerate(links):
        out = link.eval(z[:, r])
        assert out.shape == (rows, n)
        for i in range(rows):
            assert out[i].tobytes() == link.eval(z[i, r]).tobytes(), (r, i)
    batch = maps.stacked(links, 1)
    out = batch.eval(z)
    assert out.shape == z.shape
    for i in range(rows):
        assert out[i].tobytes() == batch.eval(z[i]).tobytes(), i
        for r, link in enumerate(links):
            assert out[i, r].tobytes() == link.eval(z[i, r]).tobytes(), (r, i)


def test_stacked_rejects_runs_of_different_kinds():
    with pytest.raises(ValueError):
        maps.stacked([maps.Sigmoid(), maps.Identity()])


def test_gaussian_cdf_links_evaluate_in_a_spawned_process():
    # a spawned process imports nadac afresh, and unpickling a link skips its
    # __post_init__: the first Gaussian cdf it takes imports scipy itself
    z = np.linspace(-8.0, 18.0, 7)
    links = [maps.SmoothedClamp(N=10.0, sigma=2.0), maps.GaussianSurvival()]
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        got = [pool.submit(type(f).eval, f, z) for f in links]
        got.append(pool.submit(maps.SmoothedClamp(N=10.0, sigma=2.0).eval, z))
        got = [g.result() for g in got]
    want = [f.eval(z) for f in links] + [maps.SmoothedClamp(N=10.0, sigma=2.0).eval(z)]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("sigma", [1.0, 5.0, 10.0])
def test_smoothed_clamp_envelopes_match_each_bound(sigma):
    # one pair of endpoint derivatives and the stored peak give both bounds,
    # bit for bit as each bound from its own derivative evaluations; c = 1e3
    # drives the alpha bound to its floor
    f = maps.SmoothedClamp(N=10.0, sigma=sigma)
    half = 0.5 * f.N
    for c in (0.0, 0.25 * f.N, np.nextafter(half, 0.0), half, f.N, 10.0 * f.N, 1e3):
        ends = [f._deriv(-c), f._deriv(c)]
        alpha = max(float(min(ends)), 1e-300)
        beta = float(max(ends + [f._deriv(half)] if c >= half else ends))
        got = f.envelopes(c)
        assert got == (alpha, beta) == (f.alpha_env(c), f.beta_env(c)), c
        assert all(type(v) is float for v in got)
    assert f.envelopes(1e3)[0] == 1e-300


@pytest.mark.parametrize("f", [
    maps.Identity(), maps.ScaledTanh(a=2.0), maps.Sigmoid(),
    maps.LeakyRelu(slope=0.3), maps.GaussianSurvival(),
], ids=lambda f: type(f).__name__)
def test_links_without_override_take_both_envelopes(f):
    assert type(f).envelopes is maps.LinkFunction.envelopes
    for c in (0.0, 0.5, 3.0, 40.0):
        assert f.envelopes(c) == (f.alpha_env(c), f.beta_env(c))


@pytest.mark.parametrize("name", list(STACKED_CALLS))
def test_end_to_end_call_is_separate_calls_bit_for_bit(name):
    # a single run without a reference hands the link its plant row and its
    # prediction's input end to end, as one vector of 2n entries
    (link, *_), n = STACKED_CALLS[name]
    rng = np.random.default_rng(len(name))
    for _ in range(20):
        y, z = rng.uniform(-30.0, 30.0, n), rng.uniform(-30.0, 30.0, n)
        y[0], z[-1] = 0.0, -0.0
        out = link.eval(np.concatenate((y, z)))
        assert out[:n].tobytes() == link.eval(y).tobytes()
        assert out[n:].tobytes() == link.eval(z).tobytes()
