import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from nwmix import (
    GridValue,
    RegimeError,
    VerificationError,
    build_ring,
    chernoff_phi,
    constants_for,
    cycle_component_counts,
    cycle_subset_count,
    cycle_subset_tally,
    expected_connected_sets_bound,
    solve_beta,
    solve_small_c_constants,
    solve_xk,
)
from nwmix import constants
from nwmix.constants import (
    XK_RESIDUAL_TOL,
    _xk_equation,
    beta_conditions_hold,
    big_m,
    binomial_lower_tail_bound,
    binomial_lower_tail_coarse,
    binomial_upper_tail_bound,
    binomial_upper_tail_coarse,
    delta_conditions_hold,
    gamma_conditions_hold,
)

import oracles


def test_chernoff_phi_basics():
    assert chernoff_phi(0) == 0.0
    assert math.isclose(chernoff_phi(1), 2 * math.log(2) - 1)
    for x in (-0.9, -0.1, 0.3, 2.0, 10.0):
        assert chernoff_phi(x) > 0
    with pytest.raises(ValueError):
        chernoff_phi(-1)


def test_phi_dominates_coarse_rates():
    for x in np.linspace(0.01, 0.99, 25):
        assert chernoff_phi(-x) >= x * x / 2
    for x in np.linspace(0.01, 5, 25):
        assert chernoff_phi(x) >= x * x / (2 * (1 + x))


def test_tail_bounds_dominate_exact_tails():
    m, q = 40, 0.3
    for x in (0.2, 0.5, 0.9):
        thr = (1 + x) * m * q
        exact = float(stats.binom.sf(math.ceil(thr) - 1, m, q))
        assert binomial_upper_tail_bound(m, q, x) >= exact
        assert binomial_upper_tail_coarse(m, q, x) >= binomial_upper_tail_bound(m, q, x)
        thr = (1 - x) * m * q
        exact = float(stats.binom.cdf(math.floor(thr), m, q))
        assert binomial_lower_tail_bound(m, q, x) >= exact
        assert binomial_lower_tail_coarse(m, q, x) >= binomial_lower_tail_bound(m, q, x)


def test_tail_bound_domains():
    with pytest.raises(ValueError):
        binomial_upper_tail_bound(10, 0.5, 0)
    with pytest.raises(ValueError):
        binomial_lower_tail_bound(10, 0.5, 1.0)
    with pytest.raises(ValueError):
        binomial_lower_tail_coarse(10, 0.5, 0)
    with pytest.raises(ValueError):
        binomial_upper_tail_coarse(10, 0.5, -0.5)


def test_solve_xk():
    # frozen at first build from the same bisection; guards against drift
    assert abs(solve_xk(1) - 11318.904437001895) < 1e-6
    prev = 0.0
    for k in range(1, 11):
        xk = solve_xk(k)
        assert abs(_xk_equation(xk, k)) <= XK_RESIDUAL_TOL
        assert xk >= 40
        assert xk > prev  # larger k pushes the root up
        prev = xk
    with pytest.raises(ValueError):
        solve_xk(0)


def test_big_m():
    assert big_m(20000, 1) == 1 + 1 + 10 * 20000
    assert math.isclose(big_m(1, 1), 2 + 10 * solve_xk(1))


@pytest.mark.parametrize(
    "c, k, t",
    [(1, 1, 3), (5, 2, 2), (40, 1, 1)],
)
def test_solve_beta(c, k, t):
    beta = solve_beta(c, k)
    assert beta == 1 / (3 * math.e) / 2**t
    assert beta_conditions_hold(beta, c, k)
    assert not beta_conditions_hold(2 * beta, c, k)  # largest on the grid
    assert beta < 1 / (3 * math.e) and beta < c / 36
    with pytest.raises(ValueError):
        solve_beta(0)


def test_grid_value():
    v = GridValue(Fraction(3, 4), 2)
    assert float(v) == 0.1875
    assert v.as_fraction() == Fraction(3, 16)
    assert v.exact_str() == "(3/4)*2^-2"
    assert math.isclose(v.log(), math.log(0.1875))
    tiny = GridValue(Fraction(1, 2), 10_000_000)
    assert float(tiny) == 0.0  # underflows, hence the exponent form
    assert math.isclose(tiny.log(), math.log(0.5) - 10_000_000 * math.log(2))
    assert math.isclose(tiny.log10(), tiny.log() / math.log(10))


def test_small_c_constants_c1():
    cs = solve_small_c_constants(1, 1)
    assert cs.regime == "small-c"
    assert cs.R == math.ceil(2 * solve_xk(1))  # = 22638
    assert cs.epsilon == Fraction(1, 12 * cs.R * (2 * cs.R + 1))
    assert cs.beta == solve_beta(1, 1)
    # delta: base = eps c / 2k, exponent in the millions
    assert cs.delta.base == cs.epsilon / 2
    assert cs.delta.t == 5_867_051  # frozen from the analytic index at build
    assert delta_conditions_hold(cs.delta, cs.epsilon, 1, 1, cs.R)
    assert not delta_conditions_hold(
        GridValue(cs.delta.base, cs.delta.t - 1), cs.epsilon, 1, 1, cs.R
    )
    assert gamma_conditions_hold(cs.gamma, cs.beta, 1, cs.R)
    assert not gamma_conditions_hold(2 * cs.gamma, cs.beta, 1, cs.R)
    assert cs.gamma < 9 * cs.beta / (20 * cs.R)
    # alpha = min(gamma, epsilon, delta) - here delta by an enormous margin
    assert cs.alpha is cs.delta


def test_small_c_constants_c5():
    cs = solve_small_c_constants(5, 1)
    assert cs.R == math.ceil(2 * solve_xk(1) / 5)
    assert cs.epsilon == Fraction(5, 12 * cs.R * (2 * cs.R * 5 + 1))
    assert cs.delta.t == 261_275
    assert cs.alpha is cs.delta


def test_regime_dispatch():
    with pytest.raises(RegimeError, match="x_k"):
        solve_small_c_constants(12_000, 1)
    big = constants_for(20_000, 1)
    assert big.regime == "large-c"
    assert big.R is None and big.alpha is None
    assert big.M == big_m(20_000, 1)
    small = constants_for(1, 1)
    assert small.regime == "small-c" and small.R is not None
    with pytest.raises(ValueError):
        solve_small_c_constants(0, 1)
    with pytest.raises(ValueError):
        solve_small_c_constants(1, 0)


def test_constants_json():
    payload = json.loads(constants_for(1, 1).to_json())
    assert payload["regime"] == "small-c"
    assert payload["x_k_residual"] <= XK_RESIDUAL_TOL
    assert payload["epsilon"]["exact"].count("/") == 1
    assert Fraction(payload["epsilon"]["exact"]) > 0
    assert payload["delta"]["decimal"] == 0.0
    assert payload["delta"]["log10"] < -1_000_000
    assert "2^-" in payload["delta"]["exact"]
    large = json.loads(constants_for(20_000, 1).to_json())
    assert large["beta"] is None and large["R"] is None


def test_cycle_component_counts_against_slow_scan():
    for n in (3, 8, 10):
        comps = cycle_component_counts(n)
        for mask in range(1 << n):
            assert comps[mask] == oracles.cycle_components_slow(mask, n)


def test_cycle_cut_is_twice_components():
    g = build_ring(8, 1)
    comps = cycle_component_counts(8)
    for mask in range(1, (1 << 8) - 1):
        cut, _ = oracles.mask_cut_volume(mask, g)
        assert cut == 2 * comps[mask]
        assert comps[mask] <= cut


def test_cycle_subset_count_dominates_tally():
    assert cycle_subset_count(3, 1) == 24
    assert cycle_subset_tally(3, 1) == 8
    for n in range(3, 17):
        comps = cycle_component_counts(n)
        for m in range(1, n + 1):
            tally = int((comps <= m).sum())
            assert cycle_subset_tally(n, m) == tally
            assert cycle_subset_count(n, m) >= tally
    # m >= n/2 already admits every subset
    assert cycle_subset_tally(10, 5) == 2**10


def test_cycle_subset_validation():
    with pytest.raises(ValueError):
        cycle_subset_count(2, 1)
    with pytest.raises(ValueError):
        cycle_subset_count(5, 0)
    with pytest.raises(ValueError):
        cycle_component_counts(21)
    with pytest.raises(ValueError):
        cycle_subset_tally(5, 0)


def test_expected_connected_sets_bound():
    assert expected_connected_sets_bound(10, 1, 1, 1) == 120
    assert expected_connected_sets_bound(10, 1, 1, 2) == 10 * 12**2
    with pytest.raises(ValueError):
        expected_connected_sets_bound(10, 1, 1, 0)


def test_small_c_recheck_failure_raises(monkeypatch):
    # let the gamma search succeed, then fail the substitution re-check; the
    # re-check must raise, not assert, so that it also runs under python -O
    real = constants.gamma_conditions_hold
    passes = []

    def fails_on_recheck(*args):
        ok = real(*args)
        if ok:
            passes.append(args)
        return ok and len(passes) < 2

    monkeypatch.setattr(constants, "gamma_conditions_hold", fails_on_recheck)
    with pytest.raises(VerificationError, match="gamma"):
        solve_small_c_constants(5, 1)
