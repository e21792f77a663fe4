"""Bound constants, growth/gap checks, and the test-function inequalities."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import sides
from quadrature_reference import interpolate_at_quadrature

from etagap import bounds
from etagap.assembly import assemble, quad_data
from etagap.bounds import (
    LEMMA31_CHUNK,
    Lemma31Instance,
    a_nT,
    cor32_check,
    gap_check,
    holds,
    lemma31_check,
    lemma31_suite,
    lemma32_check,
    random_lemma31_instance,
    theorem11_constant,
    theorem12_constant,
    theorem13_constant,
    yang_check,
)
from etagap.errors import (
    InsufficientSpectrum,
    InvalidInstance,
    NonpositiveRadicand,
    UnitGradientViolation,
)
from etagap.fields import (
    AffineScalar,
    ConstantScalar,
    OperatorConstants,
    QuadraticScalar,
    axis_test_function,
    identity_tensor,
)
from etagap.geometry import euclidean, hyperbolic_half_plane, make_box_domain
from etagap.scenario import apply_overrides, build_problem, builtin_config, lemma32_test_function
from etagap.spectral import SpectrumResult, multiplet_labels, solve_lowest

EUC2 = euclidean(2)
HYP2 = hyperbolic_half_plane(2)


def trivial_consts(n, **kw):
    base = {"n": n, "epsilon": 1.0, "delta": 1.0}
    base.update(kw)
    return OperatorConstants(**base)


@pytest.fixture(scope="module")
def square_setup():
    dom = make_box_domain([(0, np.pi), (0, np.pi)], [30, 30], EUC2)
    pair = assemble(dom, identity_tensor(2), ConstantScalar(2))
    spectrum = solve_lowest(pair, 12)
    return pair, spectrum


@pytest.fixture(scope="module")
def lemma32_setup():
    dom = make_box_domain([(0, np.pi), (0, np.pi)], [20, 20], EUC2)
    pair = assemble(dom, identity_tensor(2), ConstantScalar(2))
    spectrum = solve_lowest(pair, pair.ndof, method="dense")
    return pair, spectrum


@pytest.fixture(scope="module")
def disk_setup():
    # the disk_laplacian builtin at 24^2: lambda_2 and lambda_3 differ by roundoff, one multiplet
    cfg = apply_overrides(builtin_config("disk_laplacian"), {"resolution": [24]})
    pair = assemble(*build_problem(cfg)[1:])
    spectrum = solve_lowest(pair, cfg.solver.k, solve_tol=cfg.solver.solve_tol, seed=cfg.solver.seed)
    assert 0.0 < spectrum.eigenvalues[2] - spectrum.eigenvalues[1] < 1e-12
    return pair, spectrum


class TestLemma31:
    def test_two_term_equality(self):
        res = lemma31_check(Lemma31Instance((1.0, 2.0), (1.0, 0.1)))
        assert res.s == pytest.approx(1.02, abs=1e-15)
        assert res.bound == pytest.approx(1.02, abs=1e-12)
        assert res.hypothesis_ok  # 1.02 < sqrt(1.0504) ~ 1.0249
        assert res.conclusion_ok

    def test_three_term(self):
        res = lemma31_check(Lemma31Instance((1.0, 2.0, 3.0), (1.0, 0.1, 0.1)))
        assert res.s == pytest.approx(1.05)
        assert res.bound == pytest.approx(3.17 / 3.0)
        assert res.hypothesis_ok
        assert res.conclusion_ok

    def test_single_mode_equality_case(self):
        # r concentrated on the first slot: S = mu1 = sqrt(AB) exactly
        res = lemma31_check(Lemma31Instance((1.0, 2.0, 3.0, 4.0), (1.0, 0.0, 0.0, 0.0)))
        assert not res.hypothesis_ok
        assert res.conclusion_ok

    def test_invalid_instances(self):
        with pytest.raises(InvalidInstance):
            Lemma31Instance((2.0, 1.0), (1.0, 1.0))  # decreasing
        with pytest.raises(InvalidInstance):
            Lemma31Instance((-1.0, 2.0), (1.0, 1.0))  # nonpositive
        with pytest.raises(InvalidInstance):
            Lemma31Instance((1.0, 1.0), (1.0, 1.0))  # no second distinct value
        with pytest.raises(InvalidInstance):
            Lemma31Instance((1.0, 2.0), (0.0, 1.0))  # r_m1 = 0
        with pytest.raises(InvalidInstance):
            Lemma31Instance((1.0, math.nan), (1.0, 1.0))  # non-finite mu
        with pytest.raises(InvalidInstance):
            Lemma31Instance((1.0, 2.0), (math.nan, 1.0))  # non-finite r, which passes r_m1 != 0

    @pytest.mark.parametrize(
        "mu, r",
        [
            ((1.0, 2.0), (1e200, 1e200)),  # r^2 overflows to inf where a mu factor is exactly 0
            ((1.0, 2.0, 1e200), (1.0, 1.0, 0.0)),  # the mu factors' product overflows where r = 0
        ],
    )
    def test_huge_entries_give_no_inf_times_zero(self, mu, r):
        res = lemma31_check(Lemma31Instance(mu, r))
        assert res.hypothesis_ok
        assert res.conclusion_ok

    def test_zero_weight_term_is_skipped_in_the_sums(self):
        # mu_3^2 would overflow to inf, but r_3 = 0, so the term (mu_3 r_3)^2 is an exact zero, not nan
        res = lemma31_check(Lemma31Instance((1.0, 2.0, 1e200), (1.0, 1.0, 0.0)))
        assert (res.s, res.a, res.b, res.bound) == (3.0, 5.0, 2.0, 3.0)

    def test_sums_past_the_double_range_read_inf(self):
        # every r_i^2 = 1e308 is finite, but the sums are not
        res = lemma31_check(Lemma31Instance((1.0, 2.0), (1e154, 1e154)))
        assert (res.s, res.a, res.b, res.bound) == (math.inf,) * 4
        assert res.hypothesis_ok and res.conclusion_ok

    def test_a_term_whose_mu_squared_overflows_stays_finite(self):
        # mu_3^2 = 1e400 leaves the double range, but (mu_3 r_3)^2 = 1e100 does not
        res = lemma31_check(Lemma31Instance((1.0, 2.0, 1e200), (1.0, 1.0, 1e-150)))
        assert (res.s, res.b) == (3.0, 2.0)
        assert res.a == pytest.approx(1e100, rel=1e-15)
        assert res.bound == pytest.approx(1e100 / 3.0, rel=1e-15)

    def test_bound_past_the_double_range_reads_inf(self):
        # mu_1 + mu_2 = 2.5e308 overflows; the true bound, 2.5e308, is past the range too
        res = lemma31_check(Lemma31Instance((1e308, 1.5e308), (1.0, 1.0)))
        assert (res.s, res.a, res.b, res.bound) == (math.inf, math.inf, 2.0, math.inf)

    def test_hypothesis_is_exact(self):
        # s, a and b all round to 1.0, yet r is nonzero at a second distinct value
        res = lemma31_check(Lemma31Instance((1.0, 1.0 + 2.0**-50), (1.0, 1e-10)))
        assert (res.s, res.a, res.b) == (1.0, 1.0, 1.0)
        assert res.hypothesis_ok
        # r vanishes past the leading multiplet: Cauchy-Schwarz holds with equality
        assert not lemma31_check(Lemma31Instance((0.1, 0.1, 0.3), (0.3, 0.7, 0.0))).hypothesis_ok

    def test_two_term_equality_random(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            mu1 = rng.uniform(0.1, 5.0)
            mu2 = mu1 + rng.uniform(0.01, 5.0)
            r = rng.uniform(-2.0, 2.0, size=2)
            r[0] = r[0] if r[0] != 0 else 1.0
            res = lemma31_check(Lemma31Instance((mu1, mu2), tuple(r)))
            assert abs(res.s - res.bound) <= 1e-12

    def test_seeded_generator_reproducible(self):
        a = [random_lemma31_instance(np.random.default_rng(9)) for _ in range(5)]
        b = [random_lemma31_instance(np.random.default_rng(9)) for _ in range(5)]
        assert a == b

    def test_two_level_rows_meet_the_bound(self):
        # with two distinct values the bound holds with equality:
        # sum (mu_i - mu1)(mu_i - mu2) r_i^2 = 0 gives S (mu1 + mu2) = A + mu1 mu2 B
        rng = np.random.default_rng(7)
        for _ in range(300):
            m1, length = sorted(rng.choice(np.arange(1, 51), size=2, replace=False))
            mu1 = rng.uniform(0.1, 5.0)
            mu = (mu1,) * m1 + (mu1 + rng.uniform(0.01, 3.0),) * (length - m1)
            r = rng.uniform(-1.0, 1.0, size=length)
            r[m1 - 1] = r[m1 - 1] or 1.0
            res = lemma31_check(Lemma31Instance(mu, tuple(r)))
            assert res.conclusion_ok
            assert abs(res.s - res.bound) <= 1e-12
            mu = np.array(mu)
            assert np.all(r**2 * (mu - mu[m1 - 1]) * (mu - mu[m1]) == 0.0)


class TestLemma31Suite:
    def test_one_trial_matches_the_single_instance_path(self, every_conclusion_fails):
        for seed in range(20):
            suite = lemma31_suite(np.random.default_rng(seed), 1)
            inst = random_lemma31_instance(np.random.default_rng(seed))
            res = lemma31_check(inst)
            assert suite.hypothesis_satisfied == int(res.hypothesis_ok)
            assert suite.counterexamples == ([(inst, res)] if res.hypothesis_ok else [])

    def test_chunk_boundary_checks_every_trial_once(self, monkeypatch, every_conclusion_fails):
        rows_checked = []
        check_rows = bounds._lemma31_rows

        def counting(mu, r, m1):
            rows_checked.append(mu.shape[0])
            return check_rows(mu, r, m1)

        monkeypatch.setattr(bounds, "_lemma31_rows", counting)
        suite = lemma31_suite(np.random.default_rng(2), LEMMA31_CHUNK + 1)
        assert rows_checked == [LEMMA31_CHUNK, 1]
        assert len(suite.counterexamples) == suite.hypothesis_satisfied > 0.9 * LEMMA31_CHUNK

    def test_no_counterexamples_on_seeded_runs(self):
        for seed in range(3):
            suite = lemma31_suite(np.random.default_rng(seed), 10_000)
            assert suite.counterexamples == []
            assert suite.hypothesis_satisfied > 9_000


class TestTheorem11:
    def test_interval_trivial_constants(self):
        res = theorem11_constant(1.0, trivial_consts(1))
        assert res.value == pytest.approx(4.0 * math.sqrt(5.0), rel=1e-15)
        assert res.exponent == 1.0
        assert res.corollaries["laplacian"] == pytest.approx(res.value)

    def test_square_trivial_constants(self):
        res = theorem11_constant(2.0, trivial_consts(2))
        assert res.value == pytest.approx(8.0 * math.sqrt(1.5), rel=1e-15)
        assert res.exponent == 0.5

    def test_drifted_interval_closed_form(self):
        res = theorem11_constant(1.25, trivial_consts(1, c0=-0.25))
        assert res.value == pytest.approx(4.0 * math.sqrt(5.0), rel=1e-15)
        assert res.corollaries["drifted_laplacian"] == pytest.approx(res.value)

    def test_nonpositive_radicand(self):
        with pytest.raises(NonpositiveRadicand):
            theorem11_constant(0.1, trivial_consts(2, c0=-1.0))

    def test_corollary_specializations_shapes(self):
        consts = OperatorConstants(n=2, epsilon=2.0, delta=3.0, t0=0.5, c0=1.0)
        res = theorem11_constant(5.0, consts)
        root = math.sqrt(3.0 / (4.0 * 2.0) * (1.0 + 12.0 / 4.0))
        assert res.value == pytest.approx(4.0 * (5.0 + (4.0 + 0.25) / 12.0) * root)
        assert res.corollaries["drifted_cheng_yau"] == pytest.approx(4.0 * (5.0 + 1.0 / 3.0) * root)
        assert res.corollaries["cheng_yau"] == pytest.approx(20.0 * root)
        flat = math.sqrt(0.5 * 3.0)
        assert res.corollaries["drifted_laplacian"] == pytest.approx(24.0 * flat)
        assert res.corollaries["laplacian"] == pytest.approx(20.0 * flat)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "fields",
        [{}, {"epsilon": 0.5, "delta": 2.0, "t0": 1.3, "c0": 0.7}, {"epsilon": 3.0, "delta": 3.0, "c0": -0.4, "eta1": 2.0}],
    )
    def test_laplacian_corollary_closed_form(self, n, fields):
        # T = I and no drift fix every constant the formula reads, so any consts give
        # 4 lambda1 sqrt((1/n)(1 + 4/n)); the bound is that times k^(1/n)
        res = theorem11_constant(2.5, trivial_consts(n, **fields))
        assert res.corollaries["laplacian"] == pytest.approx(4.0 * 2.5 * math.sqrt((1.0 + 4.0 / n) / n), rel=1e-15)

    def test_conformal_scaling_consistency(self):
        # for T = c id the operator is c times the drifted flat one, so the
        # main constant equals c times the flat corollary on rescaled inputs
        rng = np.random.default_rng(12)
        for _ in range(50):
            c = rng.uniform(0.2, 4.0)
            lam = rng.uniform(0.5, 20.0)
            c0 = rng.uniform(-0.2, 2.0)
            n = int(rng.integers(1, 4))
            main = theorem11_constant(c * lam, OperatorConstants(n=n, epsilon=c, delta=c, c0=c**2 * c0))
            flat = theorem11_constant(lam, trivial_consts(n, c0=c0))
            assert main.value == pytest.approx(c * flat.corollaries["drifted_laplacian"], rel=1e-12)
            assert main.exponent == pytest.approx(flat.exponent, rel=1e-14)


class TestTheorem12:
    def test_arithmetic_example(self):
        res = theorem12_constant(3.0, trivial_consts(2, h0=1.0))
        assert res.value == pytest.approx(4.0 * math.sqrt(33.0), rel=1e-15)

    def test_ground_state_threshold(self):
        with pytest.raises(NonpositiveRadicand):
            theorem12_constant(0.25, trivial_consts(2, h0=1.0))

    @pytest.mark.parametrize("h0, error", [(1e300, "overflows"), (math.inf, "is inf"), (math.nan, "is nan")])
    def test_a_constant_that_is_not_finite_raises(self, h0, error):
        # 1e300^2 overflows a float, and an infinite or nan constant would pass every gap
        with pytest.raises(ValueError, match=f"the thm12 constant {error}"):
            theorem12_constant(3.0, trivial_consts(2, h0=h0))

    def test_anisotropic_arithmetic(self):
        res = theorem12_constant(1.0, OperatorConstants(n=2, epsilon=1.0, delta=2.0))
        assert res.value == pytest.approx(4.0 / math.sqrt(3.0) * math.sqrt(8.75), rel=1e-15)

    def test_corollaries(self):
        res = theorem12_constant(3.0, trivial_consts(2, h0=1.0, c0=0.5))
        fac, rad1 = 3.0, 3.0 - 0.25
        assert res.value == pytest.approx(4.0 * math.sqrt(fac * rad1 * (3.0 + 6.0 / 4.0)))
        assert res.corollaries["drifted_cheng_yau"] == pytest.approx(
            4.0 * math.sqrt(fac * rad1 * (3.0 + 6.0 / 4.0))
        )
        assert res.corollaries["cheng_yau"] == pytest.approx(4.0 * math.sqrt(fac * rad1 * 4.0))

    def test_laplacian_corollaries(self):
        # epsilon = delta = 1 in the corollaries: factor 3, rad1 = 3 - 1/4
        consts = OperatorConstants(n=2, epsilon=1.0, delta=2.0, t0=1.0, c0=0.5, h0=1.0)
        res = theorem12_constant(3.0, consts)
        assert res.corollaries["drifted_laplacian"] == pytest.approx(4.0 * math.sqrt(3.0 * 2.75 * 4.5), rel=1e-15)
        assert res.corollaries["laplacian"] == pytest.approx(4.0 * math.sqrt(33.0), rel=1e-15)


class TestTheorem13:
    def test_unit_example(self):
        consts = trivial_consts(2, h0=1.0, kappa1=1.0, kappa2=1.0, d=1.0)
        res = theorem13_constant(3.0, consts)
        assert res.value == pytest.approx(24.0, rel=1e-12)
        assert res.details["a_nT"] == 1.0

    def test_flat_limit_reduces_to_growth_shape(self):
        # kappa = 0 and d -> inf: C = 4 sqrt(l1 (1+4/n) (l1 + n^2 H0^2 / 4))
        consts = trivial_consts(3, h0=0.7, d=float("inf"))
        res = theorem13_constant(2.0, consts)
        expect = 4.0 * math.sqrt(2.0 * (1.0 + 4.0 / 3.0) * (2.0 + 9.0 * 0.49 / 4.0))
        assert res.value == pytest.approx(expect, rel=1e-14)

    def test_distance_term(self):
        # n=2, eps=delta=1, d=1/2: a/(4d^2) = 1 enters the radicand
        base = theorem13_constant(3.0, trivial_consts(2, d=float("inf")))
        with_d = theorem13_constant(3.0, trivial_consts(2, d=0.5))
        inner_base = base.details["inner"]
        inner_d = with_d.details["inner"]
        assert inner_d - inner_base == pytest.approx(1.0, abs=1e-14)

    def test_corollaries(self):
        consts = OperatorConstants(
            n=2, epsilon=1.0, delta=2.0, c0=0.5, h0=1.0, eta1=0.5, eta_r=0.25, kappa1=1.0, kappa2=1.0, d=1.0
        )
        res = theorem13_constant(3.0, consts)
        assert set(res.corollaries) == {"cheng_yau", "drifted_laplacian", "laplacian"}
        # cheng_yau: a_nT = 7, curv = 7 - 2, inner = 6 + 5/4 + 7/4, factor 5, last = 3 + 4/8, sigma 3
        assert res.corollaries["cheng_yau"] == pytest.approx(4.0 / math.sqrt(3.0) * math.sqrt(9.0 * 5.0 * 3.5), rel=1e-15)
        # epsilon = delta = 1: a_nT = 1, curv = 1 - 2, inner = 3 + 0 + 1/4 + 1/4, factor 3, last = 3 + 6/4
        assert res.corollaries["drifted_laplacian"] == pytest.approx(4.0 * math.sqrt(3.5 * 3.0 * 4.5), rel=1e-15)
        assert res.corollaries["laplacian"] == pytest.approx(24.0, rel=1e-15)

    def test_curvature_radicand_error(self):
        consts = OperatorConstants(n=3, epsilon=1.0, delta=1.0, kappa1=1.0, kappa2=1.0, d=1.0)
        # n=3, eps=delta=1: curv = (4-3) k1^2 - 5 k2^2 = -4, inner = l1 - 1
        with pytest.raises(NonpositiveRadicand):
            theorem13_constant(0.5, consts)


@pytest.mark.parametrize(
    "theorem, lambda1, consts, nan_names",
    [
        # main: 1 + (-8 + 9)/4 > 0; with t0 = 0 the shifted factor is 1 - 2
        (theorem11_constant, 1.0, trivial_consts(2, t0=3.0, c0=-2.0), {"drifted_cheng_yau", "drifted_laplacian"}),
        (theorem12_constant, 1.0, trivial_consts(2, t0=3.0, c0=-2.0), {"drifted_cheng_yau", "drifted_laplacian"}),
        # last = 1.5 - 2/2 with delta = 2, but 1.5 - 2 with delta = 1
        (theorem13_constant, 1.5, OperatorConstants(n=2, epsilon=1.0, delta=2.0, c0=-2.0), {"drifted_laplacian"}),
    ],
    ids=["thm11", "thm12", "thm13"],
)
def test_nonpositive_corollary_radicand_reads_nan(theorem, lambda1, consts, nan_names):
    res = theorem(lambda1, consts)
    assert math.isfinite(res.value)
    assert {name for name, v in res.corollaries.items() if math.isnan(v)} == nan_names
    assert all(math.isfinite(v) for name, v in res.corollaries.items() if name not in nan_names)


# Hand-written main and corollary expressions, one set per theorem, kept as
# references for the corollaries bounds derives by fixing constants in the
# theorem formulas.  nan stands for a nonpositive radicand, also in thm11.
def _safe_sqrt_product(*factors):
    prod = math.prod(factors)
    return math.nan if prod <= 0.0 or any(f <= 0.0 for f in factors) else math.sqrt(prod)


def _positive(x):
    return x if x > 0.0 else math.nan


def theorem11_reference(lambda1, c):
    n, eps, dlt, sig, c0 = c.n, c.epsilon, c.delta, c.sigma, c.c0
    root = math.sqrt(dlt / (sig * n) * (1.0 + 4.0 * dlt / (n * eps)))
    flat_root = math.sqrt((1.0 / n) * (1.0 + 4.0 / n))
    return {
        "value": 4.0 * _positive(lambda1 + (4.0 * c0 + c.t0**2) / (4.0 * dlt)) * root,
        "drifted_cheng_yau": 4.0 * _positive(lambda1 + c0 / dlt) * root,
        "cheng_yau": 4.0 * _positive(lambda1) * root,
        "drifted_laplacian": 4.0 * _positive(lambda1 + c0) * flat_root,
        "laplacian": 4.0 * _positive(lambda1) * flat_root,
    }


def theorem12_reference(lambda1, c):
    n, eps, dlt, sig, c0, h0 = c.n, c.epsilon, c.delta, c.sigma, c.c0, c.h0
    fac, rad1 = 1.0 + 4.0 * dlt / (n * eps), dlt * lambda1 - (eps**2 / 4.0) * (n - 1) ** 2
    fac_flat, rad1_flat = 1.0 + 4.0 / n, lambda1 - (n - 1) ** 2 / 4.0
    rad2 = lambda1 + (n**2 * h0**2 + 4.0 * c0 + c.t0**2) / (4.0 * dlt)
    return {
        "value": 4.0 / math.sqrt(sig) * _safe_sqrt_product(fac, rad1, rad2),
        "drifted_cheng_yau": 4.0
        / math.sqrt(sig)
        * _safe_sqrt_product(fac, rad1, lambda1 + (n**2 * h0**2 + 4.0 * c0) / (4.0 * dlt)),
        "cheng_yau": 4.0 / math.sqrt(sig) * _safe_sqrt_product(fac, rad1, lambda1 + n**2 * h0**2 / (4.0 * dlt)),
        "drifted_laplacian": 4.0 * _safe_sqrt_product(fac_flat, rad1_flat, lambda1 + (n**2 * h0**2 + 4.0 * c0) / 4.0),
        "laplacian": 4.0 * _safe_sqrt_product(fac_flat, rad1_flat, lambda1 + n**2 * h0**2 / 4.0),
    }


def theorem13_reference(lambda1, c):
    n, eps, dlt, sig, c0, h0 = c.n, c.epsilon, c.delta, c.sigma, c.c0, c.h0
    k1, k2, d, eta1, eta_r = c.kappa1, c.kappa2, c.d, c.eta1, c.eta_r
    a = a_nT(n, eps, dlt)
    curv = (2.0 * (n - 1) * dlt**2 - (2 * n - 3) * eps**2) * k1**2 - (n**2 - 2 * n + 2) * eps**2 * k2**2
    fac = 1.0 + 4.0 * dlt / (n * eps)
    a_flat, fac_flat = max(0.0, (n - 1) * (3.0 - n)), 1.0 + 4.0 / n
    curv_flat = k1**2 - (n**2 - 2 * n + 2) * k2**2
    inner = (
        dlt * lambda1
        + (curv + 2.0 * dlt**2 * eta1) / 4.0
        + dlt**2 * eta_r * (n - 1) * (k1 + 1.0 / d) / 2.0
        + a / (4.0 * d**2)
    )
    last = lambda1 + (n**2 * h0**2 + 4.0 * c0) / (4.0 * dlt)
    inner_b = dlt * lambda1 + curv / 4.0 + a / (4.0 * d**2)
    inner_c = (
        lambda1 + (curv_flat + 2.0 * eta1) / 4.0 + eta_r * (n - 1) * (k1 + 1.0 / d) / 2.0 + a_flat / (4.0 * d**2)
    )
    inner_d = lambda1 + curv_flat / 4.0 + a_flat / (4.0 * d**2)
    return {
        "value": 4.0 / math.sqrt(sig) * math.sqrt(_positive(inner)) * math.sqrt(fac) * math.sqrt(_positive(last)),
        "cheng_yau": 4.0 / math.sqrt(sig) * _safe_sqrt_product(inner_b, fac, lambda1 + n**2 * h0**2 / (4.0 * dlt)),
        "drifted_laplacian": 4.0 * _safe_sqrt_product(inner_c, fac_flat, lambda1 + (n**2 * h0**2 + 4.0 * c0) / 4.0),
        "laplacian": 4.0 * _safe_sqrt_product(inner_d, fac_flat, lambda1 + n**2 * h0**2 / 4.0),
    }


def random_constants(rng):
    eps = rng.uniform(0.2, 3.0)
    k2 = rng.uniform(0.0, 2.0)
    consts = OperatorConstants(
        n=int(rng.integers(2, 5)),
        epsilon=eps,
        delta=eps * rng.uniform(1.0, 2.0),
        t0=rng.uniform(0.0, 2.0),
        c0=rng.uniform(-3.0, 3.0),
        h0=rng.uniform(0.0, 1.5),
        eta1=rng.uniform(0.0, 1.0),
        eta_r=rng.uniform(0.0, 1.0),
        kappa1=k2 + rng.uniform(0.0, 1.0),
        kappa2=k2,
        d=float("inf") if rng.random() < 0.2 else rng.uniform(0.2, 5.0),
    )
    return rng.uniform(0.1, 10.0), consts


@pytest.mark.parametrize(
    "theorem, reference, rtol",
    [
        (theorem11_constant, theorem11_reference, 0.0),
        (theorem12_constant, theorem12_reference, 0.0),
        (theorem13_constant, theorem13_reference, 2e-15),
    ],
    ids=["thm11", "thm12", "thm13"],
)
def test_corollaries_match_hand_written_reference(theorem, reference, rtol):
    # main values are equal; thm13 corollaries multiply three roots where the
    # reference takes one root of the product
    rng = np.random.default_rng(20)
    checked = nans = 0
    for _ in range(3000):
        lambda1, consts = random_constants(rng)
        expect = reference(lambda1, consts)
        main = expect.pop("value")
        if math.isnan(main):
            with pytest.raises(NonpositiveRadicand):
                theorem(lambda1, consts)
            continue
        res = theorem(lambda1, consts)
        checked += 1
        assert res.value == main, (lambda1, consts)
        assert res.corollaries.keys() == expect.keys()
        for name, want in expect.items():
            got = res.corollaries[name]
            if math.isnan(want):
                nans += 1
                assert math.isnan(got), (name, lambda1, consts)
            elif rtol:
                assert abs(got - want) <= rtol * abs(want), (name, lambda1, consts)
            else:
                assert got == want, (name, lambda1, consts)
    assert checked > 1000 and nans > 0


class TestANT:
    def test_values(self):
        assert a_nT(3, 1.0, 1.0) == 0.0
        assert a_nT(2, 1.0, 1.0) == 1.0
        assert a_nT(3, 1.0, 2.0) == 12.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            a_nT(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            a_nT(2, 2.0, 1.0)


class TestYangCheck:
    def test_square_analytic(self):
        lam = np.array([2.0, 5.0, 5.0, 8.0, 10.0])
        rows = yang_check(lam, trivial_consts(2))
        assert sides(rows[0], "growth")[0] == 5.0
        assert sides(rows[0], "growth")[1] == pytest.approx(6.0)
        assert all(row.status == "pass" for row in rows)

    def test_drifted_interval_closed_form(self):
        # ups_{k+1} = (k+1)^2 <= 5 k^2 ups_1 with ups_1 = 1
        lam = np.arange(1, 10) ** 2 + 0.25
        rows = yang_check(lam, trivial_consts(1, c0=-0.25))
        assert sides(rows[0], "growth")[1] / 5.0 == pytest.approx(1.0)  # ups_1, the k = 1 bound over 1 + 4 delta/(n eps)
        for row in rows:
            ups_next, rhs = sides(row, "growth")
            assert ups_next == pytest.approx((row.k + 1) ** 2)
            assert rhs == pytest.approx(5.0 * row.k**2)
            assert row.status == "pass"

    def test_degenerate_ground_pair(self):
        rows = yang_check(np.array([1.0, 1.0]), trivial_consts(2))
        assert rows[0].status == "pass"  # 1 <= 1 + 4/n strictly

    def test_first_row_is_growth_factor(self):
        # at k = 1 the bound is exactly (1 + 4 delta/(n epsilon)) ups_1
        consts = OperatorConstants(n=2, epsilon=2.0, delta=3.0)
        rows = yang_check(np.array([4.0, 5.0]), consts)
        assert sides(rows[0], "growth")[1] == pytest.approx((1.0 + 12.0 / 4.0) * 4.0)


class TestGapCheck:
    def test_interval_analytic_gaps(self):
        lam = np.arange(1, 12, dtype=float) ** 2
        c = 4.0 * math.sqrt(5.0)  # trivial-constant interval value with l1 = 1
        rep = gap_check(lam, c, 1.0, k_range=(2, 9))
        for row in rep.rows:
            if row.status == "info":
                continue
            gap, bound = sides(row, "gap")
            assert gap == 2 * row.k + 1
            assert bound == pytest.approx(c * row.k)
            assert row.status == "pass"
        assert rep.counts()["fail"] == 0

    def test_square_row_example(self):
        lam = np.array([2.0, 5.0, 5.0, 8.0, 10.0])
        c = 8.0 * math.sqrt(1.5)
        rep = gap_check(lam, c, 0.5, k_range=(2, 3))
        row3 = rep.rows[-1]
        assert row3.k == 3 and sides(row3, "gap")[0] == 3.0
        assert sides(row3, "gap")[1] == pytest.approx(9.797958971132712 * math.sqrt(3.0))
        assert row3.status == "pass"

    def test_anisotropic_row_example(self):
        lam = np.array([5.0, 11.0, 14.0, 20.0])
        consts = OperatorConstants(n=2, epsilon=2.0, delta=3.0)
        c = theorem11_constant(5.0, consts).value
        assert c == pytest.approx(20.0 * math.sqrt(1.5), rel=1e-15)  # 24.495
        rep = gap_check(lam, c, consts.exponent, k_range=(2, 2))
        row = rep.rows[-1]
        assert sides(row, "gap")[0] == 3.0
        assert sides(row, "gap")[1] == pytest.approx(c * 2.0**0.75)
        assert row.status == "pass"

    @pytest.mark.parametrize("constant", [0.0, -1.0, math.inf, math.nan])
    def test_constant_must_be_finite_and_positive(self, constant):
        # against an infinite or nan constant every gap row would pass
        with pytest.raises(ValueError, match="bound constant must be finite and positive"):
            gap_check(np.array([1.0, 100.0, 101.0]), constant, 1.0)

    def test_k1_row_is_informational(self):
        lam = np.array([1.0, 100.0, 101.0])
        rep = gap_check(lam, 1.0, 1.0, k_range=(2, 2))
        assert rep.rows[0].k == 1
        assert rep.rows[0].status == "info"

    def test_multiplet_gap_zero(self):
        lam = np.array([2.0, 5.0, 5.0 + 1e-9, 8.0])
        rep = gap_check(lam, 1e-6, 1.0, k_range=(2, 2))
        assert sides(rep.rows[-1], "gap")[0] == 0.0
        assert rep.rows[-1].status == "pass"

    def test_negative_control_tiny_constant(self):
        lam = np.arange(1, 12, dtype=float) ** 2
        c = 4.0 * math.sqrt(5.0) / 1e6
        rep = gap_check(lam, c, 1.0, k_range=(2, 9))
        assert rep.counts()["fail"] == 8
        assert all(r.status == "fail" for r in rep.rows if r.status != "info")

    def test_inconclusive_band(self):
        # violation within 3x the estimated numerical error: flagged, not failed
        lam = np.array([10.0, 20.0, 30.2])
        rep = gap_check(lam, 10.0, 0.0, k_range=(2, 2), h=0.05)
        row = rep.rows[-1]
        assert sides(row, "gap")[0] == pytest.approx(10.2)
        assert row.status == "inconclusive"
        rep2 = gap_check(lam, 10.0, 0.0, k_range=(2, 2))  # no error model
        assert rep2.rows[-1].status == "fail"

    def test_bound_monotone_in_k(self):
        lam = np.linspace(1, 30, 12)
        rep = gap_check(lam, 2.0, 0.7, k_range=(2, 10))
        bounds_col = [sides(r, "gap")[1] for r in rep.rows]
        assert all(b2 > b1 for b1, b2 in zip(bounds_col, bounds_col[1:]))

    def test_insufficient_spectrum(self):
        with pytest.raises(InsufficientSpectrum):
            gap_check(np.array([1.0, 2.0]), 1.0, 1.0, k_range=(2, 5))

    @pytest.mark.parametrize("k_range", [(6, 2), (1, 5)], ids=["reversed", "from_one"])
    def test_bad_k_range_raises(self, k_range):
        with pytest.raises(ValueError, match="2 <= lo <= hi"):
            gap_check(np.arange(1, 12, dtype=float) ** 2, 10.0, 1.0, k_range=k_range)

    def test_csv_roundtrip(self, tmp_path):
        lam = np.arange(1, 8, dtype=float) ** 2
        rep = gap_check(lam, 10.0, 1.0, k_range=(2, 5), tag="t")
        path = tmp_path / "gap.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("k,lambda_k,")
        assert len(lines) == 1 + len(rep.rows)


class TestCor32:
    def test_flat_square_reduction(self, square_setup):
        # T = id, eta = 0, f = x1: Lf = 0 so the bound collapses to
        # gap <= 4 sqrt(lambda_1 lambda_{k+2})
        pair, spectrum = square_setup
        consts = trivial_consts(2)
        tf = axis_test_function(EUC2, 0)
        rows = cor32_check(spectrum, pair, {"x1": tf}, consts, j=1)
        lam = spectrum.eigenvalues
        checked = [r for r in rows if r.status != "skipped"]
        assert checked, "no admissible rows"
        for r in checked:
            assert r.status == "pass"
            expect = 4.0 * math.sqrt(lam[0] * lam[r.k + 1])
            assert sides(r, "3.15")[1] == pytest.approx(expect, rel=1e-12)
        ks = {r.k for r in checked}
        assert {2, 3, 5, 7} <= ks
        skipped = {r.k for r in rows if r.status == "skipped"}
        assert {1, 4, 6, 8} <= skipped  # multiplet pairs of the square

    def test_square_k2_magnitudes(self, square_setup):
        pair, spectrum = square_setup
        consts = trivial_consts(2)
        tf = axis_test_function(EUC2, 1)
        rows = {r.k: r for r in cor32_check(spectrum, pair, {"x2": tf}, consts, j=1)}
        row = rows[2]
        # analytic values: gap = 3, bound = 4 sqrt(2 * 8) = 16
        assert sides(row, "3.15")[0] == pytest.approx(3.0, rel=2e-2)
        assert sides(row, "3.15")[1] == pytest.approx(16.0, rel=2e-2)

    def test_unit_gradient_violation(self, square_setup):
        pair, spectrum = square_setup
        consts = trivial_consts(2)
        bad = axis_test_function(EUC2, 0)
        from etagap.fields import OperatorTestFunction

        tampered = OperatorTestFunction(AffineScalar([2.0, 0.0]), bad.lf_and_grad)
        with pytest.raises(UnitGradientViolation, match="x1"):
            cor32_check(spectrum, pair, {"x2": axis_test_function(EUC2, 1), "x1": tampered}, consts, j=1)

    def test_homogeneity_negative_control(self, square_setup):
        # doubling u_j multiplies every u_j-integral by 4 and cannot flip
        # a holding inequality
        pair, spectrum = square_setup
        consts = trivial_consts(2)
        tf = axis_test_function(EUC2, 0)
        rows1 = cor32_check(spectrum, pair, {"x1": tf}, consts, j=1)
        scaled = SpectrumResult(
            spectrum.eigenvalues,
            spectrum.eigenvectors * 2.0,
            spectrum.residuals,
            dict(spectrum.meta),
        )
        rows2 = cor32_check(scaled, pair, {"x1": tf}, consts, j=1)
        for r1, r2 in zip(rows1, rows2):
            if r1.status == "skipped":
                continue
            assert sides(r2, "3.14")[1] == pytest.approx(4.0 * sides(r1, "3.14")[1], rel=1e-12)
            assert holds(*sides(r2, "3.14")) == holds(*sides(r1, "3.14"))

    @pytest.mark.parametrize("ratio, status", [(1.0 - 1e-11, "pass"), (1.0 + 1e-11, "fail")])
    def test_link_takes_the_one_pass_rule(self, square_setup, ratio, status):
        # I1 <= delta lambda_j at the relative tolerance of holds, 1e-12
        pair, spectrum = square_setup
        _, gu = interpolate_at_quadrature(pair, spectrum.eigenvectors[:, 0])
        _, dm, _ = quad_data(pair.domain, pair.drift)
        i1 = float(np.sum(gu[:, 0] ** 2 * dm))  # T = id, f = x1 and rho = 1
        delta = i1 / (ratio * spectrum.eigenvalues[0])
        consts = trivial_consts(2, epsilon=delta, delta=delta)
        rows = cor32_check(spectrum, pair, {"x1": axis_test_function(EUC2, 0)}, consts, j=1)
        assert {r.status for r in rows if r.status != "skipped"} == {status}

    def test_rows_of_each_test_function_in_turn(self, square_setup):
        # one call over a mapping: each function's rows, label by label, as a call of its own gives them
        pair, spectrum = square_setup
        consts = trivial_consts(2)
        fns = {"x2": axis_test_function(EUC2, 1), "x1": axis_test_function(EUC2, 0)}
        rows = cor32_check(spectrum, pair, fns, consts, j=1)
        singles = [row for label, tf in fns.items() for row in cor32_check(spectrum, pair, {label: tf}, consts, j=1)]
        assert rows == singles
        assert [r.extra["test_function"] for r in rows] == ["x2"] * (spectrum.k - 2) + ["x1"] * (spectrum.k - 2)
        assert cor32_check(spectrum, pair, {}, consts, j=1) == []

    def test_hyperbolic_log_reduction(self):
        # T = id, eta = 0, f = ln x2: Lf = -1, grad Lf = 0, so (3.15) has
        # bracket lambda_1 - 1/4, the half-space ground-level shape
        dom = make_box_domain([(0, 1), (1, 2)], [24, 24], HYP2)
        pair = assemble(dom, identity_tensor(2), ConstantScalar(2))
        spectrum = solve_lowest(pair, 6)
        consts = trivial_consts(2)
        tf = axis_test_function(HYP2, 1)
        rows = [r for r in cor32_check(spectrum, pair, {"ln_xn": tf}, consts, j=1) if r.status != "skipped"]
        assert rows
        lam = spectrum.eigenvalues
        for r in rows:
            assert r.status == "pass"
            expect = 4.0 * math.sqrt((lam[0] - 0.25) * lam[r.k + 1])
            assert sides(r, "3.15")[1] == pytest.approx(expect, rel=1e-10)


def _by_k(rows):
    return {r.k: r for r in rows}


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.fixture(scope="module")
def square128():
    cfg = apply_overrides(builtin_config("square_laplacian"), {"resolution": 128})
    pair = assemble(*build_problem(cfg)[1:])
    return pair, solve_lowest(pair, 12)


def _traced_peak(pair, call):
    """(result, tracemalloc peak of call() in doubles per quadrature point)."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1] / (8.0 * pair.domain.n_cells * 2**pair.domain.dim)
    finally:
        tracemalloc.stop()
    return out, peak


def test_cor32_working_set(square128):
    """u_j is read and every integral summed by chunks of cells, so cor32 holds no per-point array:
    at most 2.5 doubles per quadrature point (0.83 measured, with chunks of 1024 of the 16384 cells).

    Holding one (m,) I1 integrand per test function took 2.4; the
    whole-array interpolation held an (m, 1 + n) mode array beside its
    corner index and values, 5.14 doubles per point in all.
    """
    pair, spectrum = square128
    test_fns = {f"x{a + 1}": axis_test_function(EUC2, a) for a in range(2)}
    rows, peak = _traced_peak(pair, lambda: cor32_check(spectrum, pair, test_fns, trivial_consts(2), j=1))
    assert {r.status for r in rows} == {"pass", "skipped"}
    assert peak <= 2.5


def test_lemma32_working_set(square128):
    """lemma32 reads u_j and the multiplet members in one pass of chunks and sums every integral by chunks:
    at most 4 doubles per quadrature point (2.3 measured, most of it one chunk's arrays, with chunks of
    1024 of the 16384 cells; 3.6 holding two integrands and g u_j whole, 16.0 with whole-array modes,
    grad g, L g and T grad g)."""
    pair, spectrum = square128
    rows, peak = _traced_peak(pair, lambda: lemma32_check(spectrum, pair, lemma32_test_function(2)))
    assert {r.status for r in rows} == {"pass", "skipped"}
    assert peak <= 4.0


def _hex(v):
    return float(v).hex() if isinstance(v, float) else v


def _bits(rows):
    """Every row's k, status, reason, and its claims and float extras as hex."""
    return [
        (r.k, r.status, r.reason, [tuple(map(_hex, c)) for c in r.claims], {k: _hex(v) for k, v in r.extra.items()})
        for r in rows
    ]


def _halfspace_pencil():
    from etagap.fields import tensor_preset

    dom = make_box_domain([(0, 1), (1, 2)], [15, 14], HYP2)
    field = tensor_preset(
        "diag_profile",
        2,
        entries=[
            {"profile": "sin", "c0": 3.0, "c1": 0.5, "axis": 0},
            {"profile": "sin", "c0": 2.5, "c1": 0.7, "axis": 0},
        ],
    )
    return assemble(dom, field, AffineScalar([0.3, 0.0])), {"ln_xn": axis_test_function(HYP2, 1)}


def _disk_pencil():
    dom = make_box_domain([(-1, 1), (-1, 1)], [17, 17], EUC2, lambda c: np.linalg.norm(c, axis=1) <= 1.0)
    pair = assemble(dom, identity_tensor(2), ConstantScalar(2))
    return pair, {f"x{a + 1}": axis_test_function(EUC2, a) for a in range(2)}


def _square_pencil():
    pair = assemble(make_box_domain([(0, np.pi), (0, np.pi)], [16, 16], EUC2), identity_tensor(2), ConstantScalar(2))
    return pair, {f"x{a + 1}": axis_test_function(EUC2, a) for a in range(2)}


def _box3_pencil():
    from etagap.fields import tensor_preset

    box = euclidean(3)
    field = tensor_preset(
        "diag_profile",
        3,
        entries=[{"profile": "sin", "c0": 3.0, "c1": 0.5, "axis": a} for a in range(3)],
    )
    pair = assemble(make_box_domain([(0, np.pi)] * 3, [7, 6, 5], box), field, AffineScalar([0.3, 0.1, 0.2]))
    return pair, {f"x{a + 1}": axis_test_function(box, a) for a in range(3)}


@pytest.mark.parametrize(
    "make", [_square_pencil, _halfspace_pencil, _disk_pencil, _box3_pencil], ids=["square", "halfspace", "disk", "box3"]
)
def test_chunked_integrals_equal_whole_array_bits(make, monkeypatch):
    """Read by chunks of a few cells, cor32 and lemma32 keep every claim of the whole-array integrals bit for bit.

    The references in ``quadrature_reference`` form the integrals from
    whole (m,) and (m, n) arrays and sum each with one ``np.sum``; the
    chunked integrands are summed by ``assembly.pairwise_sums`` with the same
    bits, so every lhs, rhs and lemma32 cross term is the same double.
    Chunks of 2 or 3 cells make many chunks of unequal length, each
    straddling runs of 128 values.
    """
    import quadrature_reference as ref

    from etagap import assembly

    pair, test_fns = make()
    n = pair.domain.dim
    spectrum = solve_lowest(pair, 12)
    consts = trivial_consts(n, epsilon=pair.epsilon, delta=pair.delta)
    g = lemma32_test_function(n)

    def rows():
        return _bits(cor32_check(spectrum, pair, test_fns, consts, j=1)), _bits(lemma32_check(spectrum, pair, g))

    default = rows()
    monkeypatch.setattr(assembly, "QUAD_CELLS", 3)
    monkeypatch.setattr(assembly, "PAIRWISE_RUN", 128)  # numpy's smallest run: many runs, summed up a deep tree
    assert len(assembly.even_chunks(pair.domain.n_cells, assembly.QUAD_CELLS)) > 50
    chunked = rows()
    monkeypatch.setattr(bounds, "_cor32_integrals", ref.cor32_integrals)
    monkeypatch.setattr(bounds, "_lemma32_integrals", ref.lemma32_integrals)
    whole = rows()
    cor32_rows, lemma32_rows = whole
    assert any(r[1] != "skipped" for r in cor32_rows) and any("cross_term" in r[4] for r in lemma32_rows)
    assert chunked == whole and default == whole


class TestLemma32:
    def test_coordinate_g_positive_margin(self, lemma32_setup):
        pair, spectrum = lemma32_setup
        rows = lemma32_check(spectrum, pair, AffineScalar([1.0, 0.0]))
        assert [r.k for r in rows] == list(range(1, 9))
        row = _by_k(rows)[2]
        lhs, rhs = sides(row, "lemma32")
        assert row.status == "pass" and rhs > lhs
        # x1 keeps the box's symmetry in x2: every other row is degenerate or has no cross term
        assert {r.k for r in rows if r.status != "skipped"} == {2}

    def test_constant_g_hypothesis_violated(self, lemma32_setup):
        pair, spectrum = lemma32_setup
        rows = lemma32_check(spectrum, pair, ConstantScalar(2, 1.0))
        assert rows and all(r.status == "skipped" for r in rows)
        assert {r.reason for r in rows} == {"degenerate gap", "cross term int g u_j u_{k+1} dm vanishes"}

    @pytest.mark.parametrize("check", ["cor32", "lemma32"])
    @pytest.mark.parametrize("setup, j", [("lemma32_setup", 3), ("disk_setup", 2)], ids=["square_j3", "disk_j2"])
    def test_j_equal_kplus1_skipped(self, check, setup, j, request):
        # lambda_j and lambda_3 share a multiplet, so row k = 2 is skipped by either check
        pair, spectrum = request.getfixturevalue(setup)
        if check == "cor32":
            rows = cor32_check(spectrum, pair, {"x1": axis_test_function(EUC2, 0)}, trivial_consts(2), j=j)
        else:
            rows = lemma32_check(spectrum, pair, AffineScalar([1.0, 0.0]), j=j)
        row = _by_k(rows)[2]
        assert (row.status, row.reason) == ("skipped", "lambda_j >= lambda_{k+1}")

    def test_quadratic_g_rows(self, lemma32_setup):
        # a second, asymmetric test function to exercise more admissible rows
        pair, spectrum = lemma32_setup
        g = QuadraticScalar(np.diag([1.0, 0.4]), [0.3, 0.0])
        checked = [r for r in lemma32_check(spectrum, pair, g) if r.status != "skipped"]
        assert len(checked) >= 2 and all(r.status == "pass" for r in checked)

    def test_rows_invariant_under_rotation_in_a_multiplet(self, lemma32_setup):
        pair, spectrum = lemma32_setup
        assert multiplet_labels(spectrum.eigenvalues)[1] == multiplet_labels(spectrum.eigenvalues)[2]  # lambda_2 = lambda_3
        c, s = math.cos(0.7), math.sin(0.7)
        vecs = spectrum.eigenvectors.copy()
        vecs[:, 1:3] = vecs[:, 1:3] @ np.array([[c, -s], [s, c]])
        rotated = SpectrumResult(spectrum.eigenvalues, vecs, spectrum.residuals, dict(spectrum.meta))
        g = lemma32_test_function(2)
        base, rows = lemma32_check(spectrum, pair, g), lemma32_check(rotated, pair, g)
        assert [r.status for r in rows] == [r.status for r in base]
        assert base[1].status == "pass" and base[1].extra["cross_term"] > 1.0
        # a row skipped on its eigenvalues alone forms no cross term
        assert ["cross_term" in r.extra for r in rows] == ["cross_term" in r.extra for r in base]
        for a, b in zip(rows, base):
            if "cross_term" in b.extra:
                assert a.extra["cross_term"] >= 0.0
                assert a.extra["cross_term"] == pytest.approx(b.extra["cross_term"], rel=1e-10, abs=1e-14)

    def test_rows_reach_k_equal_K_minus_2(self, lemma32_setup):
        pair, _ = lemma32_setup
        rows = lemma32_check(solve_lowest(pair, 8), pair, lemma32_test_function(2))
        assert [r.k for r in rows] == [1, 2, 3, 4, 5, 6]
        assert lemma32_check(solve_lowest(pair, 2), pair, lemma32_test_function(2)) == []

    def test_statuses_invariant_under_scaling_g(self, lemma32_setup):
        pair, spectrum = lemma32_setup
        g = lemma32_test_function(2)
        base = lemma32_check(spectrum, pair, g)
        assert sum(r.status == "pass" for r in base) >= 2
        for s in (1e-11, 1e6):
            scaled = lemma32_check(spectrum, pair, QuadraticScalar(s * g.Q, s * g.b))
            assert [r.status for r in scaled] == [r.status for r in base]
            for a, b in zip(scaled, base):
                if b.status != "skipped":
                    (a_lhs, a_rhs), (b_lhs, b_rhs) = sides(a, "lemma32"), sides(b, "lemma32")
                    assert a_lhs / a_rhs == pytest.approx(b_lhs / b_rhs, rel=1e-12)

    @pytest.mark.parametrize(
        "box, res, mask, path",
        [
            ([(0, np.pi), (0, np.pi)], 20, None, "separable"),
            ([(-1, 1), (-1, 1)], 24, lambda centers: np.linalg.norm(centers, axis=1) <= 1.0, "superlu"),
        ],
        ids=["square", "disk"],
    )
    def test_partial_spectrum_rows_match_full(self, box, res, mask, path):
        dom = make_box_domain(box, [res, res], EUC2, mask)
        pair = assemble(dom, identity_tensor(2), ConstantScalar(2))
        partial = solve_lowest(pair, 12)
        assert partial.meta["method"] == path
        full = solve_lowest(pair, pair.ndof, method="dense")
        g = lemma32_test_function(2)
        rows, ref = lemma32_check(partial, pair, g), lemma32_check(full, pair, g)
        assert [(r.k, r.status) for r in rows] == [(r.k, r.status) for r in ref]
        assert [r.k for r in rows] == list(range(1, 9))
        assert any(r.status == "pass" for r in rows)
        for a, b in zip(rows, ref):
            if not b.claims:  # skipped on the eigenvalues alone, before any integral
                continue
            # u_{k+1} is fixed only up to a rotation in its multiplet, so the cross term is not compared
            residuals = (a.extra["projection_residual"], b.extra["projection_residual"])
            for x, y in (*zip(sides(a, "lemma32"), sides(b, "lemma32")), residuals):
                assert _rel(x, y) <= 1e-12
