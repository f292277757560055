"""Regime classification and explicit-constant inequality certification."""

import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from diskpoisson.kernel import _ANGULAR_CAP, BoundaryData, QuadSpec, radial_grid
from diskpoisson.regimes import (
    DISTANCE_INTEGRAL_GRID,
    KERNEL_MEAN_GRID,
    PREDICTIONS,
    certification_grid,
    check_angular_derivative_bound,
    check_distance_integral_bound,
    check_kernel_mean_bound,
    check_scaled_kernel_bound,
    classify,
)
from diskpoisson.regimes import _mean_distance_power


@pytest.fixture(scope="module")
def q():
    return QuadSpec()


class TestClassify:
    @pytest.mark.parametrize(
        "alpha,p,label",
        [
            (0.5, 3.0, "Pi1"),
            (2.0, 1.0, "Pi1"),
            (1.0, math.inf, "Pi1"),
            (0.0, 2.0, "Pi1"),
            (0.0, 1.0, "Pi2"),
            (0.0, math.inf, "Pi3"),
            (-0.5, 1.0, "Pi2"),
            (-0.5, 1.9999, "Pi2"),
            (-0.5, 2.0, "Pi3"),  # p = -1/alpha is already the third regime
            (-0.5, 5.0, "Pi3"),
            (-0.5, math.inf, "Pi3"),
            (-0.9, 1.1, "Pi2"),
            (-0.1, 9.9, "Pi2"),
            (-0.1, 10.0, "Pi3"),
        ],
    )
    def test_labels(self, alpha, p, label):
        got = classify(alpha, p)
        assert got.label == label
        assert got.alpha == alpha
        assert got.p == p
        assert got.predictions == PREDICTIONS[label]

    def test_partition(self):
        rng = np.random.default_rng(17)
        alphas = rng.uniform(-1.0, 10.0, size=10000)
        alphas = alphas[alphas > -1.0]
        ps = rng.uniform(1.0, 100.0, size=len(alphas))
        ps[rng.uniform(size=len(ps)) < 0.05] = math.inf
        for alpha, p in zip(alphas, ps):
            got = classify(alpha, p)
            assert got.label in ("Pi1", "Pi2", "Pi3")

    def test_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            classify(-1.0, 2.0)
        with pytest.raises(ValueError, match="p must"):
            classify(0.5, 0.5)
        with pytest.raises(ValueError, match="p must"):
            classify(0.5, math.nan)

    def test_prediction_content(self):
        assert "hardy_all_partials_bounded" in classify(1.0, 2.0).predictions
        assert "bergman_bounded" in classify(-0.5, 1.5).predictions
        assert "counterexample_exists_bergman" in classify(-0.5, 3.0).predictions


class TestKernelMeanBound:
    def test_center_is_sharp_at_alpha_one(self, q):
        rec = check_kernel_mean_bound(1.0, 0.0, q)
        assert rec.lhs == pytest.approx(1.0, rel=1e-14)
        assert rec.rhs == pytest.approx(1.0, rel=1e-14)
        assert rec.holds

    def test_holds_across_radii(self, q):
        for alpha in KERNEL_MEAN_GRID["alphas"]:
            for r in (0.0, 0.5, 0.9, 0.99):
                rec = check_kernel_mean_bound(alpha, r, q)
                assert rec.holds, (alpha, r, rec.lhs, rec.rhs)

    def test_domain(self, q):
        with pytest.raises(ValueError, match="alpha"):
            check_kernel_mean_bound(0.0, 0.5, q)
        with pytest.raises(ValueError, match="alpha"):
            check_kernel_mean_bound(-0.5, 0.5, q)
        with pytest.raises(ValueError, match="radius"):
            check_kernel_mean_bound(1.0, 1.0, q)

    def test_record_shape(self, q):
        rec = check_kernel_mean_bound(2.0, 0.5, q)
        d = rec.as_dict()
        assert d["check"] == "kernel_mean_bound"
        assert d["params"]["alpha"] == 2.0
        assert isinstance(d["holds"], bool)


class TestDistanceIntegralBound:
    def test_explicit_constant(self, q):
        rec = check_distance_integral_bound(-0.5, 0.5, q)
        want_rhs = 3.0**0.25 * 2.0**1.5 * math.pi
        assert rec.rhs == pytest.approx(want_rhs, rel=1e-12)
        assert rec.holds

    def test_holds_across_grid(self, q):
        for alpha in DISTANCE_INTEGRAL_GRID["alphas"]:
            for r in DISTANCE_INTEGRAL_GRID["radii"]:
                rec = check_distance_integral_bound(alpha, r, q)
                assert rec.holds, (alpha, r, rec.lhs, rec.rhs)

    def test_domain(self, q):
        with pytest.raises(ValueError, match="alpha"):
            check_distance_integral_bound(0.5, 0.75, q)
        with pytest.raises(ValueError, match="alpha"):
            check_distance_integral_bound(-1.2, 0.75, q)
        with pytest.raises(ValueError, match="radius"):
            check_distance_integral_bound(-0.5, 0.3, q)
        with pytest.raises(ValueError, match="radius"):
            check_distance_integral_bound(-0.5, 1.0, q)


class TestCertificateSums:
    # The certificates' trapezoid sums themselves, against mpmath: |1 - r e^{it}|
    # as a complex modulus and 1 - r r cancelled as r -> 1. The certificates sum
    # on a resolved node count; the sum is checked here at 256 nodes.
    @pytest.mark.parametrize("check,alpha", [(check_kernel_mean_bound, 0.5),
                                             (check_kernel_mean_bound, 2.0),
                                             (check_distance_integral_bound, -0.5)])
    def test_no_cancellation_near_the_boundary(self, check, alpha):
        mpmath = pytest.importorskip("mpmath")
        r, n = 1.0 - 1e-6, 256
        mean = _mean_distance_power(r, alpha + 1.0, n)
        with mpmath.workdps(40):
            R, a = mpmath.mpf(r), mpmath.mpf(alpha)
            dist = [abs(1 - R * mpmath.expjpi(mpmath.mpf(2 * j) / n)) for j in range(n)]
            if check is check_kernel_mean_bound:
                want = (1 - R * R) ** a * mpmath.fsum(d ** -(a + 1) for d in dist) / n
                lhs = ((1.0 - r) * (1.0 + r)) ** alpha * mean
            else:
                want = 2 * mpmath.pi * mpmath.fsum(d ** -(a + 1) for d in dist) / n
                lhs = 2.0 * np.pi * mean
            assert abs(lhs / want - 1) <= 1e-14

    @pytest.mark.parametrize("check", [check_kernel_mean_bound, check_distance_integral_bound])
    def test_sums_on_the_resolved_node_count(self, check):
        # 32/(1 - r) = 3200 nodes resolve r = 0.99: 256 doubles to 4096.
        alpha = 1.0 if check is check_kernel_mean_bound else -0.5
        rec = check(alpha, 0.99, QuadSpec(angular_nodes=256))
        assert rec.params["nodes"] == 4096
        assert rec.holds

    def test_poisson_kernel_mean_is_one(self):
        # At alpha = 1 the left side is the mean of the Poisson kernel, 1, for every r.
        rec = check_kernel_mean_bound(1.0, 0.99, QuadSpec(angular_nodes=1024))
        assert rec.lhs == pytest.approx(1.0, rel=1e-12)


class TestAngularDerivativeBound:
    def test_constant_boundary_trivial(self, q):
        F = BoundaryData.from_function(
            lambda th: np.full(len(th), 1.0 + 2.0j), 2048,
            deriv=lambda th: np.zeros(len(th), dtype=complex),
        )
        rec = check_angular_derivative_bound(0.0, F, 2.0, q)
        assert rec.lhs == 0.0
        assert rec.holds

    def test_unweighted_power_ratio_is_radius(self, q):
        # alpha = 0, F = e^{it}: df/dtheta = i z, so M_p(r)/||dF|| = r.
        F = BoundaryData.from_function(
            lambda th: np.exp(1j * np.asarray(th)), 2048,
            deriv=lambda th: 1j * np.exp(1j * np.asarray(th)),
        )
        rec = check_angular_derivative_bound(0.0, F, 2.0, q)
        assert rec.lhs == pytest.approx(q.r_max, rel=1e-6)
        assert rec.holds
        assert rec.params["p"] == 2.0

    def test_sampled_only_native_resolution(self):
        n = 512
        thetas = 2.0 * np.pi * np.arange(n) / n
        F = BoundaryData.from_samples(thetas, np.exp(1j * thetas))
        q_small = QuadSpec(angular_nodes=n, r_max=0.9,
                           radial_grid=np.linspace(0.0, 0.9, 10))
        rec = check_angular_derivative_bound(-0.5, F, 1.0, q_small)
        assert rec.holds
        assert rec.params["nodes"] == n

    def test_closed_form_derivative_sampled_per_node_count_not_per_circle(self):
        def evaluations(n_radii):
            seen = []

            def dfn(th):
                seen.append(len(th))
                return 1j * np.exp(1j * np.asarray(th))

            F = BoundaryData.from_function(lambda th: np.exp(1j * np.asarray(th)), 64,
                                           deriv=dfn)
            q_small = QuadSpec(angular_nodes=64, r_max=0.99,
                               radial_grid=radial_grid(0.99, n_radii))
            assert check_angular_derivative_bound(0.0, F, 2.0, q_small).holds
            return Counter(seen)

        few, many = evaluations(8), evaluations(32)
        # Both grids are swept at 64 ... 4096 nodes; four times the circles
        # must not cost one more evaluation at any node count.
        assert sorted(few) == [64, 128, 256, 512, 1024, 2048, 4096]
        assert few == many

    @pytest.mark.parametrize("base", [3000, 81920])
    def test_resolved_node_count_stops_at_the_cap(self, base):
        # 32/(1-r) at r = 0.9999 is 320000; doubling a base that is not a
        # power of two would step past 2^17 without the clamp.
        seen = []

        def dfn(th):
            seen.append(len(th))
            return 1j * np.exp(1j * np.asarray(th))

        F = BoundaryData.from_function(lambda th: np.exp(1j * np.asarray(th)), base,
                                       deriv=dfn)
        q_far = QuadSpec(angular_nodes=base, r_max=0.9999,
                         radial_grid=np.array([0.0, 0.9999]))
        rec = check_angular_derivative_bound(0.0, F, 2.0, q_far)
        assert rec.holds
        assert max(seen) == _ANGULAR_CAP

    def test_threads_sharing_one_boundary_agree(self):
        # Threads calling the library may share one F with its resample cache
        # and memoized derivatives; racing fills must not change a record.
        def make():
            return BoundaryData.from_function(lambda th: np.exp(2j * np.asarray(th)), 64,
                                              deriv=lambda th: 2j * np.exp(2j * np.asarray(th)))

        q_small = QuadSpec(angular_nodes=64, r_max=0.99, radial_grid=radial_grid(0.99, 8))
        want = check_angular_derivative_bound(-0.5, make(), 2.0, q_small).lhs
        F = make()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(check_angular_derivative_bound, -0.5, F, 2.0, q_small)
                           for _ in range(12)]
                got = [f.result(timeout=60).lhs for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 12

    def test_p_must_be_finite(self, q):
        F = BoundaryData.from_function(lambda th: np.exp(1j * np.asarray(th)), 2048)
        with pytest.raises(ValueError, match="finite"):
            check_angular_derivative_bound(0.0, F, math.inf, q)
        with pytest.raises(ValueError, match="finite"):
            check_angular_derivative_bound(0.0, F, 0.5, q)


class TestScaledKernelBound:
    def test_holds_for_smooth_boundary(self, q):
        F = BoundaryData.from_function(
            lambda th: np.exp(1j * np.asarray(th))
            + 0.3 * np.exp(-2j * np.asarray(th)) + 0.7,
            2048,
        )
        for alpha in (-0.5, 1.0):
            rec = check_scaled_kernel_bound(alpha, F, q)
            assert rec.holds
            assert rec.rhs == pytest.approx(
                abs(alpha) * float(np.max(np.abs(F.values))), rel=1e-14
            )

    def test_unweighted_case_is_zero(self, q):
        F = BoundaryData.from_function(lambda th: np.exp(1j * np.asarray(th)), 2048)
        rec = check_scaled_kernel_bound(0.0, F, q)
        assert rec.lhs == 0.0
        assert rec.rhs == 0.0
        assert rec.holds


class TestCertificationGrid:
    def test_full_grid_holds(self, q):
        records = certification_grid(q)
        n_mean = len(KERNEL_MEAN_GRID["alphas"]) * len(KERNEL_MEAN_GRID["radii"])
        n_dist = len(DISTANCE_INTEGRAL_GRID["alphas"]) * len(
            DISTANCE_INTEGRAL_GRID["radii"]
        )
        assert len(records) == n_mean + n_dist == 67
        assert all(rec.holds for rec in records)
        checks = {rec.check for rec in records}
        assert checks == {"kernel_mean_bound", "distance_integral_bound"}
