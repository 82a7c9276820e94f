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
    binomial_upper_tail_bound,
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
        thr = (1 - x) * m * q
        exact = float(stats.binom.cdf(math.floor(thr), m, q))
        assert binomial_lower_tail_bound(m, q, x) >= exact


def test_tail_bound_domains():
    with pytest.raises(ValueError):
        binomial_upper_tail_bound(10, 0.5, 0)
    with pytest.raises(ValueError):
        binomial_lower_tail_bound(10, 0.5, 1.0)


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
    assert v.base / 2**v.t == Fraction(3, 16)
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


@pytest.mark.parametrize("c", [Fraction(1, 8650), Fraction(1, 18000), Fraction(1, 65536),
                               Fraction(1, 10**8), Fraction(1, 10**20)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_delta_is_pinned_where_floats_cannot_resolve_its_grid(c, k):
    # t runs from about 4e14 to 6e46 here, where a float cannot resolve one step
    cs = constants_for(c, k)
    assert cs.delta.t > 10**14
    assert delta_conditions_hold(cs.delta, cs.epsilon, c, k, cs.R)
    assert not delta_conditions_hold(
        GridValue(cs.delta.base, cs.delta.t - 1), cs.epsilon, c, k, cs.R)


def test_halving_grids_name_the_constant_they_miss():
    # both grids are floats: gamma's falls out of range from about c = 1e-100,
    # beta's from about c = 1e-150
    # a ValueError, so that the CLI reports it in one line
    with pytest.raises(ValueError, match="no admissible gamma found on the grid"):
        constants_for(Fraction(1, 10**100), 1)
    with pytest.raises(ValueError, match="no admissible beta found on the grid"):
        solve_beta(Fraction(1, 10**150))


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


def test_k_must_be_an_integer():
    for call in (lambda: constants_for(1, 1.5), lambda: solve_xk(1.5),
                 lambda: constants_for(1, "1")):
        with pytest.raises(ValueError, match="k must be an integer"):
            call()
    # True is the integer 1, and is written as 1
    assert type(constants_for(1, True).k) is int
    assert json.loads(constants_for(1, True).to_json())["k"] == 1


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
        comps = oracles.cycle_component_counts(n)
        for mask in range(1 << n):
            assert comps[mask] == oracles.cycle_components_slow(mask, n)


def test_cycle_cut_is_twice_components():
    g = build_ring(8, 1)
    comps = oracles.cycle_component_counts(8)
    for mask in range(1, (1 << 8) - 1):
        cut, _ = oracles.mask_cut_volume(mask, g)
        assert cut == 2 * comps[mask]
        assert comps[mask] <= cut


def test_cycle_subset_count_dominates_tally():
    assert cycle_subset_count(3, 1) == 24
    assert cycle_subset_tally(3, 1) == 8
    for n in range(3, 9):
        for m in range(1, n + 1):
            assert cycle_subset_count(n, m) >= cycle_subset_tally(n, m)
    # m >= n/2 already admits every subset; m = 4 all but the two
    # alternating subsets of a 10-cycle
    for n in (3, 10, 11, 1000):
        assert cycle_subset_tally(n, n // 2) == cycle_subset_tally(n, n) == 2**n
    assert cycle_subset_tally(10, 4) == 2**10 - 2


def test_cycle_subset_validation():
    for f in (cycle_subset_count, cycle_subset_tally):
        with pytest.raises(ValueError, match="n >= 3"):
            f(2, 1)
        with pytest.raises(ValueError, match="m must be >= 1"):
            f(5, 0)
        with pytest.raises(ValueError, match="n must be an integer"):
            f(5.0, 1)
        with pytest.raises(ValueError, match="m must be an integer"):
            f(5, 1.5)
        assert f(np.int64(5), np.int32(1)) == f(5, 1)
    # the closed form takes any n, past the 2^n scan's reach
    assert cycle_subset_tally(21, 1) == 2 + 2 * math.comb(21, 2)


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
