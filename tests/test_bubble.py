import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import even_gaussian_field
from paneitz import bubble as bubble_module
from paneitz.bubble import (
    BubbleParams,
    RadialField,
    bubble_energy,
    bubble_field,
    expected_bubble_energy,
    pde_residual,
    pohozaev_identity_residual,
    pohozaev_witness,
    power_profile_field,
)
from paneitz.constants import bubble_coefficient, sharp_constant
from paneitz.geometry import sphere_volume


def radial_energy_oracle(params: BubbleParams) -> float:
    """Independent check of the critical integral: adaptive quadrature of
    omega_(n-1) int v^(2#) r^(n-1) dr on edges 0, 1, 10, ..., 1e4 over
    lambda0.  The integrand decays like r^(-n-1), so the tail past the last
    edge is below 1e-19 of the total for n >= 5; an infinite last edge made
    ``quad`` warn."""
    n = params.n
    p = 2.0 * n / (n - 4)
    v = bubble_field(params).value

    def integrand(r):
        return v(r) ** p * r ** (n - 1)

    edges = [edge / params.lambda0 for edge in (0.0, 1.0, 10.0, 100.0, 1e3, 1e4)]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        val, _ = quad(integrand, a, b, limit=200, epsabs=0.0, epsrel=1e-13)
        total += val
    return sphere_volume(n - 1) * total


def profile_derivatives(params: BubbleParams, radii, order: int) -> list:
    """Radial derivatives 1..order of the extremal amp (1 + lam^2 r^2)^(-m)
    at each radius, by mpmath at 40 digits: an oracle independent of the
    closed-form w-forms it checks."""
    with mpmath.workdps(40):
        m, lam = mpmath.mpf(params.n - 4) / 2, mpmath.mpf(params.lambda0)
        amp = mpmath.mpf(float(bubble_field(params).value(0.0)))
        return [
            list(mpmath.diffs(lambda x: amp * (1 + (lam * x) ** 2) ** (-m), mpmath.mpf(r), order))[1:]
            for r in radii
        ]


class TestBubbleEval:
    def test_peak_values(self):
        c5 = bubble_coefficient(5)
        assert bubble_field(BubbleParams(5)).value(0.0) == pytest.approx(c5, rel=1e-14)
        assert bubble_field(BubbleParams(5, lambda0=2.0)).value(0.0) == pytest.approx(
            c5 * math.sqrt(2.0), rel=1e-14
        )

    def test_far_field_value(self):
        c5 = bubble_coefficient(5)
        assert bubble_field(BubbleParams(5)).value(10.0) == pytest.approx(c5 / math.sqrt(101.0), rel=1e-14)

    def test_strictly_decreasing(self):
        r = np.linspace(0.0, 30.0, 400)
        v = bubble_field(BubbleParams(7, lambda0=0.7)).value(r)
        assert np.all(np.diff(v) < 0)
        assert np.all(v > 0)

    @pytest.mark.parametrize("n", [5, 6, 8, 12])
    def test_dilation_family(self, n):
        # v_lam'(r) = (lam'/lam)^((n-4)/2) v_lam((lam'/lam) r)
        r = np.linspace(0.0, 20.0, 157)
        lam, lam2 = 0.8, 2.7
        ratio = lam2 / lam
        v2 = bubble_field(BubbleParams(n, lambda0=lam2)).value(r)
        v1 = bubble_field(BubbleParams(n, lambda0=lam)).value(ratio * r)
        assert np.max(np.abs(v2 - ratio ** ((n - 4) / 2) * v1)) < 1e-12 * np.max(v2)


class TestPowerProfileField:
    @pytest.mark.parametrize("n", [5, 8])
    def test_exponent_zero_is_a_constant(self, n):
        # exponent 0 is the constant field: the amplitude, with every
        # derivative zero in closed form, r = 0 included
        field = power_profile_field(n, 0.0, amplitude=2.5)
        r = np.append(0.0, np.geomspace(1e-8, 1e8, 49))
        assert np.all(field.value(r) == 2.5)
        for derivative in (field.deriv1, field.laplacian, field.bilaplacian):
            assert np.all(derivative(r) == 0.0)


class TestPdeResidual:
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 10, 12])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_extremal_is_exact(self, n, lam):
        assert pde_residual(bubble_field(BubbleParams(n, lambda0=lam))) <= 1e-10

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.7])
    def test_extremal_is_exact_in_every_dimension(self, lam):
        # sampled at r = 0 and the ball rule's nodes: the sup reads at most
        # 7.1e-14 over n = 5..143
        for n in range(5, 144):
            assert pde_residual(bubble_field(BubbleParams(n, lambda0=lam))) <= 1e-13, n

    def test_samples_inside_half_the_radius(self):
        # a geomspace from min(1e-3/lambda0, rmax/2) saw only r = 0 and
        # [rmax/2, rmax] once lambda0 <= 2e-3/rmax; the ball rule's nodes are
        # geometric toward 0 at every scale, so a defect at r = 1 is seen
        params = BubbleParams(5, lambda0=1e-5)
        exact = bubble_field(params)
        defect = lambda r: exact.bilaplacian(r) * (1.0 + np.exp(-((np.asarray(r) - 1.0) ** 2)))
        assert pde_residual(dataclasses.replace(exact, bilaplacian=defect)) >= 0.99

    def test_replaced_callback_starts_with_no_ball(self):
        # the field keeps its ball; a copy with another callback starts with
        # none, so the defect is seen even after the exact field was checked
        params = BubbleParams(5, lambda0=1e-5)
        exact = bubble_field(params)
        assert pde_residual(exact, rmax=50.0) <= 1e-13
        assert pohozaev_identity_residual(exact, rmax=50.0) <= 1e-14
        defect = lambda r: exact.bilaplacian(r) * (1.0 + np.exp(-((np.asarray(r) - 1.0) ** 2)))
        replaced = dataclasses.replace(exact, bilaplacian=defect)
        assert replaced._slot == [] and [radius for radius, *_ in exact._slot] == [50.0]
        assert pde_residual(replaced, rmax=50.0) >= 0.99
        with pytest.raises(dataclasses.FrozenInstanceError):
            exact.bilaplacian = defect

    @pytest.mark.parametrize("n", [5, 6, 8, 12])
    def test_exponent_is_that_of_the_field_dimension(self, n):
        # 2# comes from field.dim: the same callbacks labelled one dimension
        # higher are checked against that dimension's exponent, and read
        # 28.6, 13.7, 5.93 and 2.64 for n = 5, 6, 8, 12
        exact = bubble_field(BubbleParams(n, lambda0=1.7))
        assert pde_residual(exact) <= 1e-13
        assert pde_residual(dataclasses.replace(exact, dim=n + 1)) >= 1.0

    def test_scaled_profile_is_not_a_solution(self):
        params = BubbleParams(5)
        scaled = power_profile_field(5, (5 - 4) / 2, params.lambda0, 1.1 * bubble_field(params).value(0.0))
        assert pde_residual(scaled) >= 0.1

    def test_constant_field_residual_is_one(self):
        res = pde_residual(power_profile_field(5, 0.0, amplitude=1.0))
        assert res == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_stable_assembly_matches_derivative_form(self, n):
        # away from the large-r cancellation regime, the reduced bi-Laplacian
        # must agree with the direct f'''' + 2(n-1)f'''/r + ... assembly, here
        # on derivatives of the profile taken by mpmath
        params = BubbleParams(n, lambda0=1.3)
        r = np.linspace(0.1, 5.0, 25)
        direct = [
            d4 + 2 * (n - 1) * d3 / x + (n - 1) * (n - 3) * (d2 / x**2 - d1 / x**3)
            for x, (d1, d2, d3, d4) in zip(r, profile_derivatives(params, r, 4))
        ]
        stable = bubble_field(params).bilaplacian(r)
        assert np.max(np.abs(np.array(direct, dtype=float) - stable)) < 1e-14 * np.max(np.abs(stable))

    @pytest.mark.parametrize("n", [5, 8])
    def test_laplacian_matches_derivative_form(self, n):
        params = BubbleParams(n, lambda0=0.7)
        r = np.linspace(0.05, 10.0, 25)
        direct = [d2 + (n - 1) * d1 / x for x, (d1, d2) in zip(r, profile_derivatives(params, r, 2))]
        lap = bubble_field(params).laplacian(r)
        assert np.max(np.abs(np.array(direct, dtype=float) - lap)) < 1e-14 * np.max(np.abs(lap))


class TestBubbleParams:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"lambda0": math.inf}, "concentration scale must be positive and finite"),
            ({"lambda0": math.nan}, "concentration scale must be positive and finite"),
            ({"lambda0": 0.0}, "concentration scale must be positive and finite"),
        ],
        ids=["inf-scale", "nan-scale", "zero-scale"],
    )
    def test_rejects_bad_scales(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            BubbleParams(5, **kwargs)


class TestBubbleEnergy:
    def test_reference_value_n5(self):
        params = BubbleParams(5)
        energy = bubble_energy(params)
        expected = expected_bubble_energy(5)
        assert energy == pytest.approx(expected, rel=1e-6)
        assert energy == pytest.approx(radial_energy_oracle(params), rel=1e-4)
        assert expected == pytest.approx(sharp_constant(5)[1] ** 1.25, rel=1e-12)

    def test_scale_invariance(self):
        e1 = bubble_energy(BubbleParams(5, lambda0=1.0))
        e2 = bubble_energy(BubbleParams(5, lambda0=2.0))
        assert e2 == pytest.approx(e1, rel=1e-8)

    @pytest.mark.parametrize("lambda0", [1e-3, 0.5, 2.0, 1e3])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_field_integral_at_every_scale(self, n, lambda0):
        # the sum never reads lambda0; the oracle integrates the field of that
        # scale in r, and read within 3.1e-15 of the sum
        params = BubbleParams(n, lambda0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = radial_energy_oracle(params)
        assert abs(oracle / bubble_energy(params) - 1) <= 1e-12

    def test_n8_against_squared_constant(self):
        energy = bubble_energy(BubbleParams(8))
        assert energy == pytest.approx(sharp_constant(8)[1] ** 2, rel=1e-3)
        assert energy == pytest.approx(653.8**2, rel=1e-2)

    def test_quantum_is_finite_until_gamma_overflows(self):
        # K0^(-n/2) reads up to 3.4e244 at n = 171; from n = 172 Gamma(n)
        # leaves float64 inside sharp_constant, which names it
        assert all(0.0 < expected_bubble_energy(n) < math.inf for n in range(5, 172))
        with pytest.raises(FloatingPointError, match=r"sharp constant for n=172: Gamma\(n\) is outside the float64 range"):
            expected_bubble_energy(172)


def wallis_energy(n, lambda0):
    """omega_(n-1) amp^(2#) lambda0^(-n) 2^(-n) sqrt(pi) Gamma(n/2) / Gamma((n+1)/2)
    at 30 digits, with amp and c_n from their formulas: after
    r = tan(theta)/lambda0 the integrand is amp^(2#) lambda0^(-n) (sin(2 theta)/2)^(n-1),
    and int_0^(pi/2) sin^(n-1) = sqrt(pi) Gamma(n/2) / (2 Gamma((n+1)/2))."""
    with mpmath.workdps(30):
        n_, lam = mpmath.mpf(n), mpmath.mpf(lambda0)
        two_sharp = 2 * n_ / (n_ - 4)
        c_n = (n_ * (n_ - 4) * (n_**2 - 4)) ** ((n_ - 4) / 8)
        amp = c_n * lam ** ((n_ - 4) / 2)
        omega = 2 * mpmath.pi ** (n_ / 2) / mpmath.gamma(n_ / 2)
        wallis = mpmath.sqrt(mpmath.pi) * mpmath.gamma(n_ / 2) / mpmath.gamma((n_ + 1) / 2)
        return omega * amp**two_sharp * lam ** (-n_) * 2 ** (-n_) * wallis


class TestBubbleEnergyOracle:
    @pytest.mark.parametrize("lambda0", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 12, 20, 40, 63, 100, 143, 161])
    def test_matches_closed_form(self, n, lambda0):
        # read within 5.1e-15 for n <= 20 and 2.95e-14 above
        energy = bubble_energy(BubbleParams(n, lambda0))
        rel = abs(mpmath.mpf(energy) / wallis_energy(n, lambda0) - 1)
        assert rel <= (1e-14 if n <= 20 else 5e-14)

    @pytest.mark.parametrize("n", [5, 6, 8, 9, 12, 20, 63, 161])
    def test_scale_cancels_exactly(self, n):
        # lambda0 cancels from the sum in y = ln(lambda0 r), so every scale
        # gives the same float; 1e-300 and 1e-150 once underflowed to 0
        energies = {bubble_energy(BubbleParams(n, lam)) for lam in (1e-300, 1e-150, 0.5, 1.0, 2.0, 1e10)}
        assert len(energies) == 1
        rel = abs(mpmath.mpf(energies.pop()) / wallis_energy(n, 1.0) - 1)
        assert rel <= (1e-14 if n <= 20 else 5e-14)

    @pytest.mark.parametrize("lambda0", [1.0, 3.0])
    def test_every_dimension_matches_closed_form(self, lambda0):
        # the prefactor is raised to the exact exponent n/4: read within
        # 1.1e-15 for n <= 20 and 7.2e-15 up to n = 161, where raising
        # amp/2^m to the rounded 2# read up to 6.7e-14 off; the scale
        # lambda0 does not change the energy
        for n in range(5, 162):
            energy = bubble_energy(BubbleParams(n, lambda0))
            rel = abs(mpmath.mpf(energy) / wallis_energy(n, 1.0) - 1)
            assert rel <= (2e-15 if n <= 20 else 1e-14), n

    def test_one_evaluation_is_the_step_one_over_n_rule(self):
        # the check's nodes at step 1/(2n) hold the step-1/n nodes as their even
        # entries, (0.5/n) 2k = k/n exactly, so one sech^n evaluation gives both
        for n in range(5, 162):
            rule = bubble_module._energy_prefactor(n) * (1.0 / n) * bubble_module._energy_sum(n, 1.0 / n)
            assert bubble_energy(BubbleParams(n)) == rule, n

    @pytest.mark.parametrize("n", [5, 8, 20, 161])
    def test_halved_step_agrees(self, n):
        # the convergence check compares the sums with steps 1/n and 1/(2n):
        # they agree within 3.9e-15 for n = 5..161 (step 2/n reads 5.4e-7 off at n = 5)
        coarse = bubble_module._energy_sum(n, 1.0 / n) / n
        fine = bubble_module._energy_sum(n, 0.5 / n) / (2 * n)
        assert abs(fine / coarse - 1) <= 4e-15


class TestPohozaevIdentity:
    def test_gaussian(self):
        w = even_gaussian_field(5, 1.0, [1.0])
        assert abs(pohozaev_identity_residual(w, rmax=2.0)) <= 1e-13

    def test_slow_power_decay(self):
        w = power_profile_field(5, 4.0)
        assert abs(pohozaev_identity_residual(w, rmax=3.0)) <= 1e-13

    def test_random_family(self, rng):
        for _ in range(10):
            sigma = rng.uniform(0.4, 2.0)
            coeffs = rng.normal(size=3)
            coeffs[0] += 2.0  # keep the profile nondegenerate at the origin
            w = even_gaussian_field(int(rng.choice([5, 6, 8])), sigma, coeffs)
            assert abs(pohozaev_identity_residual(w, rmax=30.0)) <= 1e-6

    @pytest.mark.parametrize("n", range(5, 21))
    def test_extremal_at_every_radius(self, n):
        # with the boundary flux the identity holds on every ball; without
        # it these cases read up to 7.96 (n = 20, lambda0 = 0.05, R = 1)
        for lambda0 in (0.05, 1.0, 10.0, 1e6):
            w = bubble_field(BubbleParams(n, lambda0=lambda0))
            for radius in (1.0, 5.0, 40.0):
                assert abs(pohozaev_identity_residual(w, rmax=radius)) <= 1e-14, (lambda0, radius)

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_non_solutions_satisfy_it(self, n):
        # integration by parts holds for every smooth radial field: a scaled
        # extremal and a power profile of another exponent are no solutions
        params = BubbleParams(n, lambda0=1.7)
        scaled = power_profile_field(n, (n - 4) / 2, params.lambda0, 1.1 * bubble_field(params).value(0.0))
        for w in (scaled, power_profile_field(n, 0.75 * n, scale=0.3)):
            for radius in (0.5, 4.0, 50.0):
                assert abs(pohozaev_identity_residual(w, rmax=radius)) <= 1e-14

    @pytest.mark.parametrize("lambda0", [1e5, 1e6, 1e7, 1e10])
    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_concentrated_extremal_is_resolved(self, n, lambda0):
        # the tau window starts below 1/lambda0; panels from rmax 2^-20
        # whatever the scale read 0.13, -0.41 and (n-4)/2 = 2.0 for n = 8 at
        # the three largest scales
        w = bubble_field(BubbleParams(n, lambda0=lambda0))
        assert abs(pohozaev_identity_residual(w, rmax=50.0)) <= 1e-14

    def test_residual_is_the_same_at_every_radius(self):
        # the truncated identity without its flux read -1.06e-2 at n = 5,
        # rmax = 50, and a tail-mass check warned about it
        w = bubble_field(BubbleParams(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for radius in (0.1, 10.0, 50.0, 1e6):
                assert abs(pohozaev_identity_residual(w, rmax=radius)) <= 1e-14

    @pytest.mark.parametrize("n, lambda0", [(8, 1e-34), (8, 1e-90), (12, 1e-60)])
    def test_degenerate_normalization_is_named(self, n, lambda0):
        # at n = 8 the largest |Delta^2 w r w'| at a node is subnormal below
        # lambda0 = 1.5e-32, where the identity read about 1e-15, 0.0 (1e-38)
        # and 8.8e-11 (1e-40).  At 1e-90 (n = 8) and 1e-60 (n = 12) the
        # Laplacian and gradient underflow to 0 at every node, which was
        # refused as a usage error, "requires a nonzero Laplacian"
        w = bubble_field(BubbleParams(n, lambda0=lambda0))
        with pytest.raises(FloatingPointError, match=f"scaling-identity integrand for n={n} underflows float64"):
            pohozaev_identity_residual(w, rmax=50.0)

    @pytest.mark.parametrize("exponent, amplitude", [(0.0, 2.0), (0.0, 0.0), (2.0, 0.0)])
    def test_constant_has_no_laplacian_to_normalize_by(self, exponent, amplitude):
        # a constant, zero included, has no concentration scale; its
        # vanishing Laplacian is no underflow
        c = power_profile_field(8, exponent, amplitude=amplitude)
        assert c.scale == 0.0
        with pytest.raises(ValueError, match="identity normalization requires a nonzero Laplacian"):
            pohozaev_identity_residual(c, rmax=50.0)

    @pytest.mark.parametrize("rmax", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_radius(self, rmax):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            pohozaev_identity_residual(bubble_field(BubbleParams(5)), rmax=rmax)


def counting_field(w: RadialField, calls: dict) -> RadialField:
    """``w`` with each callback counting its calls in ``calls``."""

    def counted(name):
        def callback(r):
            calls[name] = calls.get(name, 0) + 1
            return getattr(w, name)(r)

        return callback

    names = ("value", "deriv1", "laplacian", "bilaplacian")
    return RadialField(w.dim, *(counted(name) for name in names), scale=w.scale)


class TestBall:
    @pytest.mark.parametrize("n", [5, 6, 8, 12, 20, 100])
    def test_last_node_is_the_rim(self, n):
        # at tau = 40, 1 + e^-40 rounds to 1: the rim the identity's flux reads
        # is the last node again, bit for bit
        for lambda0 in (1e-30, 0.5, 1.7, 1e5):
            w = bubble_field(BubbleParams(n, lambda0=lambda0))
            for radius in (1.0, 2.0, 30.0, 50.0, 1e6):
                assert bubble_module._ball_rule(w, radius)[0][-1] == radius, (lambda0, radius)

    def test_entries_each_check_reads(self):
        # the ball is r = 0 with weight 0 and the rule's nodes, the last of
        # them the rim; the residual reads all of it, the identity and the
        # witness the nodes alone
        w = bubble_field(BubbleParams(6, lambda0=1.7))
        r, wq = bubble_module._ball_rule(w, 50.0)
        parts = {"origin": (np.append(0.0, r), np.append(0.0, wq)), "nodes": (r, wq)}
        assert bubble_module._PARTS.keys() == parts.keys()
        for part, (r_part, wq_part) in parts.items():
            ball_r, ball_wq, d1 = bubble_module._ball(w, 50.0, part, "deriv1")
            assert np.array_equal(ball_r, r_part) and np.array_equal(ball_wq, wq_part), part
            assert np.array_equal(d1, w.deriv1(r_part)), part
        expected = float(np.sum(wq * w.deriv1(r) ** 2)) + 2.0 * float(np.sum(wq * w.value(r) ** 2))
        assert pohozaev_witness(w, 1.0, 1.0, 50.0) == expected

    def test_each_callback_runs_once_per_radius(self):
        calls = {}
        params = BubbleParams(7, lambda0=0.5)
        w = counting_field(bubble_field(params), calls)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            residual = pde_residual(w, rmax=50.0)
            identity = pohozaev_identity_residual(w, rmax=50.0)
            assert calls == {"value": 1, "deriv1": 1, "laplacian": 1, "bilaplacian": 1}
            # the values are those of fresh fields
            assert (residual, identity) == (
                pde_residual(bubble_field(params), rmax=50.0),
                pohozaev_identity_residual(bubble_field(params), rmax=50.0),
            )
            pde_residual(w, rmax=50.0)
            assert set(calls.values()) == {1}
            # the identity read f' with overflow ignored; the witness, which
            # would raise on it, reads it again
            pohozaev_witness(w, 1.0, 1.0, 50.0)
            assert calls == {"value": 1, "deriv1": 2, "laplacian": 1, "bilaplacian": 1}
            pohozaev_identity_residual(w, rmax=20.0)
        assert calls == {"value": 1, "deriv1": 3, "laplacian": 2, "bilaplacian": 2}
        # the field keeps the last radius' ball only
        assert [radius for radius, *_ in w._slot] == [20.0]

    def test_default_radii_share_one_ball(self):
        w = bubble_field(BubbleParams(5))
        pde_residual(w)
        pohozaev_identity_residual(w)
        assert [radius for radius, *_ in w._slot] == [50.0]

    def test_residual_after_the_identity_raises_as_on_its_own(self):
        # the identity evaluates its callbacks with overflow ignored; a residual
        # that raises on overflow evaluates Delta^2 v again rather than read
        # the identity's infinite values, in either order
        exact = bubble_field(BubbleParams(5))
        loud = lambda r: exact.bilaplacian(r) * 1e308 * 1e308
        for first in ("identity", "residual"):
            w = dataclasses.replace(exact, bilaplacian=loud)
            if first == "identity":
                with pytest.raises(FloatingPointError, match="scaling-identity integrands"):
                    pohozaev_identity_residual(w, rmax=50.0)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow encountered"):
                pde_residual(w, rmax=50.0)
            with pytest.raises(FloatingPointError, match="scaling-identity integrands"):
                pohozaev_identity_residual(w, rmax=50.0)


class TestPohozaevWitness:
    def test_zero_coefficients(self):
        w = bubble_field(BubbleParams(5))
        assert pohozaev_witness(w, 0.0, 0.0, 50.0) == 0.0

    def test_zero_field(self):
        z = power_profile_field(5, 0.0, amplitude=0.0)
        assert pohozaev_witness(z, 1.0, 1.0, 50.0) == pytest.approx(0.0, abs=1e-14)

    def test_bubble_gradient_witness_positive(self):
        w = bubble_field(BubbleParams(5))
        value = pohozaev_witness(w, 1.0, 0.0, 50.0)
        assert value > 0.0
        # compare against the independent quadrature of |v'|^2 r^4
        def integrand(r):
            return np.asarray(w.deriv1(r)) ** 2 * r**4
        oracle, _ = quad(lambda r: float(integrand(r)), 0.0, 50.0, limit=200)
        assert value == pytest.approx(sphere_volume(4) * oracle, rel=1e-8)

    def test_rejects_negative_coefficients(self):
        w = bubble_field(BubbleParams(5))
        with pytest.raises(ValueError):
            pohozaev_witness(w, -1.0, 0.0, 10.0)
