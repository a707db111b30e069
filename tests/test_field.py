import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paneitz.constants import OperatorParams
from paneitz.field import (
    PeriodicField,
    _ball_masses,
    _ball_radius,
    load_field,
    localized_mass,
    norms,
    save_field,
    transform,
)
from paneitz.geometry import ManifoldSpec, product_volume, sphere_volume

SPEC = ManifoldSpec(5, 1.0)
L = SPEC.period
OMEGA4 = sphere_volume(4)


def cosine_field(spec=SPEC, modes=64, amplitude=1.0, offset=0.0):
    return PeriodicField.from_function(
        spec, lambda s: offset + amplitude * np.cos(2 * math.pi * s / spec.period), modes
    )


class TestTransform:
    def test_constant(self):
        c = transform(np.ones(32))
        assert c[0] == pytest.approx(1.0)
        assert np.max(np.abs(c[1:])) < 1e-15

    def test_cosine_modes(self):
        # the half spectrum keeps m = 0..N/2; cos is c_1 = 1/2 (c_-1 is its conjugate)
        s = np.arange(64) * L / 64
        c = transform(np.cos(2 * math.pi * s / L))
        assert c.size == 33
        assert c[1] == pytest.approx(0.5, abs=1e-14)
        assert np.max(np.abs(np.delete(c, 1))) < 1e-15

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_round_trip_random_fields(self, seed):
        vals = np.random.default_rng(seed).normal(size=64)
        assert np.max(np.abs(PeriodicField(SPEC, transform(vals)).values - vals)) < 1e-12

    def test_parseval(self, rng):
        # discrete Parseval: c_0 and c_{N/2} once, every 0 < m < N/2 for its +-m pair
        vals = rng.normal(size=128)
        c = transform(vals)
        counts = np.full(c.size, 2.0)
        counts[0] = counts[-1] = 1.0
        assert np.sum(counts * np.abs(c) ** 2) == pytest.approx(np.mean(vals**2), rel=1e-12)

    def test_any_half_spectrum_is_a_real_field(self, rng):
        c = rng.normal(size=17) + 1j * rng.normal(size=17)
        c[0], c[-1] = c[0].real, c[-1].real
        vals = PeriodicField(SPEC, c).values
        assert vals.dtype == np.float64 and vals.size == 32
        assert np.max(np.abs(transform(vals) - c)) < 1e-15


class TestPeriodicField:
    def test_round_trip_through_values(self, rng):
        vals = rng.normal(size=64)
        u = PeriodicField.from_values(SPEC, vals)
        assert np.max(np.abs(u.values - vals)) < 1e-12

    def test_non_power_of_two_grid(self, rng):
        # mode numbers stay exact integers for any even size
        vals = rng.normal(size=96)
        u = PeriodicField.from_values(SPEC, vals)
        assert u.modes == 96 and u.coeffs.size == 49
        assert np.max(np.abs(np.fft.irfft(u.coeffs * 96, 96) - vals)) < 1e-12
        kap = u.wavenumbers()
        assert kap[1] == 1.0 and kap[47] == 47.0 and kap[48] == 48.0

    def test_from_function_samples_the_grid(self):
        u = PeriodicField.from_function(SPEC, lambda s: np.exp(np.sin(s)), 64)
        assert u.grid[0] == 0.0 and u.grid.size == 64
        assert np.diff(u.grid) == pytest.approx(np.full(63, L / 64), rel=1e-13)
        assert np.array_equal(u.values, np.exp(np.sin(u.grid)))

    def test_rejects_odd_or_small(self):
        for modes in (15, 8):
            with pytest.raises(ValueError):
                PeriodicField.from_function(SPEC, np.cos, modes)

    def test_cosine_seed(self):
        u = PeriodicField.cosine(SPEC, 2.0, 0.1, 32)
        s = u.grid
        assert u.modes == 32
        assert np.max(np.abs(u.values - 2.0 * (1.0 + 0.1 * np.cos(s / SPEC.t)))) < 1e-15
        assert np.array_equal(PeriodicField.constant(SPEC, 2.0, 32).values, np.full(32, 2.0))

    def test_nyquist_cosine_is_kept_in_galerkin_space(self):
        # cos(N s / 2) splits evenly when padded and comes back whole when truncated
        u = PeriodicField.from_function(SPEC, lambda s: np.cos(16 * s / SPEC.t), 32)
        assert u.coeffs[-1] == pytest.approx(1.0, abs=1e-14)
        up = u.resample(64)
        assert np.max(np.abs(up.values - np.cos(16 * up.grid / SPEC.t))) < 1e-13
        assert np.max(np.abs(up.resample(32).coeffs - u.coeffs)) < 1e-15
        assert u.derivative(1).coeffs[-1] == 0.0
        assert norms(u).l2 == pytest.approx(0.5 * OMEGA4 * L, rel=1e-13)

    def test_fine_values_interpolate(self):
        u = cosine_field()
        fine = u.fine_values()
        s = u.fine_grid()
        assert np.max(np.abs(fine - np.cos(2 * math.pi * s / L))) < 1e-12

    def test_resample_round_trip(self, rng):
        u = PeriodicField.from_values(SPEC, rng.normal(size=32))
        up = u.resample(128)
        back = up.resample(32)
        assert np.max(np.abs(back.values - u.values)) < 1e-13

    def test_shift(self):
        u = cosine_field()
        shifted = u.shift(L / 4)
        s = u.grid
        assert np.max(np.abs(shifted.values - np.cos(2 * math.pi * (s + L / 4) / L))) < 1e-12

    def test_derivative_and_laplacian(self):
        u = cosine_field()
        kap = 2 * math.pi / L
        s = u.grid
        assert np.max(np.abs(u.derivative(1).values + kap * np.sin(kap * s))) < 1e-12
        # geometer sign: Delta cos = -cos'' = +kap^2 cos
        assert np.max(np.abs(-u.derivative(2).values - kap**2 * np.cos(kap * s))) < 1e-12


class TestParityByType:
    # the half spectrum's dtype is the field's parity: real for an even field
    # (a cosine series), complex for a general one
    def test_constructors(self, rng):
        ints = PeriodicField(SPEC, np.arange(9))
        assert ints.coeffs.dtype == np.float64 and ints.coeffs[8] == 8.0
        assert PeriodicField(SPEC, np.zeros(9, dtype=complex)).coeffs.dtype == np.complex128
        assert PeriodicField.cosine(SPEC, 2.0, 0.1, 32).coeffs.dtype == np.float64
        assert PeriodicField.constant(SPEC, 2.0, 32).coeffs.dtype == np.float64
        # samples carry no parity: an even function sampled is still general
        assert PeriodicField.from_values(SPEC, rng.normal(size=32)).coeffs.dtype == np.complex128
        assert cosine_field().coeffs.dtype == np.complex128

    def test_even_operations_keep_a_real_spectrum(self):
        u = PeriodicField.cosine(SPEC, 1.0, 0.3, 32)
        for even in (u.resample(64), u.resample(16), u.scaled(2.0), u.derivative(2), u.derivative(4)):
            assert even.coeffs.dtype == np.float64
        for general in (u.derivative(1), u.derivative(3), u.shift(0.3)):
            assert general.coeffs.dtype == np.complex128

    @pytest.mark.parametrize("modes", [16, 64])
    def test_real_spectrum_matches_the_general_path(self, rng, modes):
        # the same bits as the complex spectrum with zero imaginary parts
        even = PeriodicField(SPEC, rng.normal(size=modes // 2 + 1))
        general = PeriodicField(SPEC, even.coeffs.astype(complex))
        assert np.array_equal(even.values, general.values)
        assert np.array_equal(even.fine_values(), general.fine_values())
        assert np.array_equal(even.resample(2 * modes).coeffs, general.resample(2 * modes).coeffs.real)
        assert np.array_equal(even.derivative(2).coeffs, general.derivative(2).coeffs.real)
        assert norms(even) == norms(general)

    def test_dilation_refuses_a_complex_spectrum(self):
        # a complex spectrum may hold an odd part, which a cosine sum would drop
        u = PeriodicField.cosine(SPEC, 1.0, 0.3, 32)
        assert u.dilated_values(1.1).size == 32
        for general in (PeriodicField(SPEC, u.coeffs.astype(complex)), u.shift(0.3)):
            with pytest.raises(ValueError, match="dilation needs an even field: the half spectrum is complex"):
                general.dilated_values(1.1)


class TestNorms:
    def test_constant_field(self):
        u = PeriodicField.constant(SPEC, 1.0, 32)
        rep = norms(u)
        v = product_volume(SPEC)
        assert rep.l2 == pytest.approx(v, rel=1e-13)
        assert rep.grad_l2 == pytest.approx(0.0, abs=1e-20)
        assert rep.energy == pytest.approx(v, rel=1e-13)

    def test_cosine_mode_arithmetic(self):
        u = cosine_field()
        rep = norms(u)
        assert rep.l2 == pytest.approx(math.pi * OMEGA4, rel=1e-12)
        assert rep.grad_l2 == pytest.approx(rep.l2, rel=1e-12)  # (1/t)^2 = 1
        assert rep.hess_l2 == pytest.approx(rep.l2, rel=1e-12)

    def test_pairing_reference_value(self):
        u = cosine_field()
        rep = norms(u, OperatorParams(2.0, 1.0))
        assert rep.pairing == pytest.approx((1 + 2 + 1) * math.pi * OMEGA4, rel=1e-12)

    def test_pairing_is_weighted_norm_sum(self, rng):
        params = OperatorParams(3.0, 2.0)
        u = PeriodicField.from_values(SPEC, 2.0 + 0.3 * rng.normal(size=64))
        rep = norms(u, params)
        assert rep.pairing == pytest.approx(
            rep.hess_l2 + params.alpha * rep.grad_l2 + params.a_alpha * rep.l2, rel=1e-13
        )

    def test_l2_exact_for_trig_polynomials(self, rng):
        # the uniform rule integrates squares of degree < N/2 polynomials exactly
        spec = ManifoldSpec(5, 0.7)
        length, degree = spec.period, 15
        coeffs = rng.normal(size=degree + 1)

        def fn(s):
            return sum(c * np.cos(2 * math.pi * k * s / length + 0.1 * k) for k, c in enumerate(coeffs))

        exact = length * (coeffs[0] ** 2 + 0.5 * np.sum(coeffs[1:] ** 2))
        assert norms(PeriodicField.from_function(spec, fn, 32)).l2 == pytest.approx(OMEGA4 * exact, rel=1e-12)

    def test_parseval_against_grid_quadrature(self, rng):
        # quadrature must resolve u^2, hence the oversampled grid
        u = PeriodicField.from_values(SPEC, 1.0 + 0.2 * rng.normal(size=64))
        rep = norms(u)
        grid_l2 = OMEGA4 * L * np.mean(u.fine_values() ** 2)
        assert rep.l2 == pytest.approx(grid_l2, rel=1e-10)


def arc_integral(samples, t, center, delta):
    """int over |s - center| < delta of the trigonometric interpolant of
    samples on the circle of length 2 pi t, mode by mode over the full
    spectrum: mode k contributes c_k 2 e^(i kap center) sin(kap delta) / kap."""
    c = np.fft.fft(samples) / samples.size
    kap = np.fft.fftfreq(samples.size, 1.0 / samples.size)[1:] / t
    arcs = 2.0 * np.exp(1j * kap * center) * np.sin(kap * delta) / kap
    return 2.0 * delta * c[0].real + float(np.sum(c[1:] * arcs).real)


class TestLocalizedMass:
    def test_uniform_density(self):
        u = PeriodicField.constant(SPEC, 2.0, 32)
        total = norms(u).l2
        mass = localized_mass(u, 1.0, L / 8, "l2")
        assert mass == pytest.approx(total / 4.0, rel=1e-12)

    def test_cosine_closed_form(self):
        # int of cos^2 over |s| < delta is delta + sin(2 kap delta)/(4 kap) * 2
        u = cosine_field()
        kap = 2 * math.pi / L
        delta = L / 4
        exact = OMEGA4 * (delta + math.sin(2 * kap * delta) / (2 * kap))
        assert localized_mass(u, 0.0, delta, "l2") == pytest.approx(exact, rel=1e-8)

    def test_narrow_bump_mass_capture(self):
        width = L / 200.0
        u = PeriodicField.from_function(
            SPEC, lambda s: np.exp(-((np.minimum(s, L - s)) ** 2) / (2 * width**2)), 1024
        )
        total = norms(u).l2
        inside = localized_mass(u, 0.0, 5 * width, "l2")
        assert inside / total > 0.999

    def test_complement_additivity(self, rng):
        u = PeriodicField.from_values(SPEC, 1.5 + 0.5 * rng.normal(size=64))
        for kind in ("l2", "grad_l2", "hess_l2", "energy"):
            total = {
                "l2": norms(u).l2,
                "grad_l2": norms(u).grad_l2,
                "hess_l2": norms(u).hess_l2,
                "energy": norms(u).energy,
            }[kind]
            ball = localized_mass(u, 0.7, L / 5, kind)
            # complement = integral over the rest of the circle
            complement = total - ball
            assert ball + complement == pytest.approx(total, rel=1e-10)
            assert 0.0 <= ball <= total * (1 + 1e-12)

    @pytest.mark.parametrize("n, factor", [(5, 6), (8, 4)])
    @pytest.mark.parametrize("share", [None, 0.2])  # None: the default delta, L/8
    def test_ball_masses_match_an_all_modes_arc_integral(self, n, factor, share):
        # a shifted field with every mode, Nyquist included, and no symmetry;
        # _ball_masses sums the squares' modes |k| <= N from one batched
        # transform, the oracle every mode of the fine-grid squares
        spec = ManifoldSpec(n, 1.3)
        rng = np.random.default_rng(n)
        u = PeriodicField.from_values(spec, 1.5 + 0.5 * rng.normal(size=64)).shift(0.123)
        assert u.fine_size() == factor * u.modes
        assert np.max(np.abs(u.coeffs.imag)) > 1e-3 and abs(u.coeffs[-1]) > 1e-3
        delta = _ball_radius(spec, None if share is None else share * spec.period)
        center = 0.37 * spec.period + 1e-3  # between fine grid points
        assert center * u.fine_size() / spec.period % 1.0 > 0.1
        report = norms(u)
        masses = _ball_masses(u, center, delta)
        densities = (u.fine_values() ** 2, *(u.derivative(k).fine_values() ** 2 for k in (1, 2)))
        totals = (report.l2, report.grad_l2, report.hess_l2)
        for mass, density, total, kind in zip(masses, densities, totals, ("l2", "grad_l2", "hess_l2")):
            exact = sphere_volume(n - 1) * arc_integral(density, spec.t, center, delta)
            assert abs(mass - exact) <= 1e-12 * total, kind
            assert localized_mass(u, center, delta, kind) == mass, kind

    def test_rejects_bad_delta(self):
        u = PeriodicField.constant(SPEC, 1.0, 32)
        with pytest.raises(ValueError):
            localized_mass(u, 0.0, L / 2, "l2")
        with pytest.raises(ValueError):
            localized_mass(u, 0.0, 0.0, "l2")
        with pytest.raises(ValueError):
            localized_mass(u, 0.0, L / 8, "h1")


class TestFieldFiles:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        u = PeriodicField.from_values(SPEC, 1.0 + 0.25 * rng.normal(size=64))
        path = tmp_path / "u.field"
        save_field(u, path)
        v = load_field(path)
        assert v.spec == u.spec
        assert np.array_equal(v.values, u.values)
        assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-16

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("nonsense\n1 2\n")
        with pytest.raises(ValueError):
            load_field(path)

    @pytest.mark.parametrize(
        "header, why",
        [
            ("# 5 1 abc", "invalid literal for int() with base 10: 'abc'"),
            ("# 5.5 1 16", "invalid literal for int() with base 10: '5.5'"),
            ("# 4 1 16", "total dimension must be an integer >= 5, got 4"),
            ("# 5 1 15", "grid size must be even and >= 16, got 15"),
            ("# 5 1 8", "grid size must be even and >= 16, got 8"),
        ],
    )
    def test_bad_header_value_names_the_file(self, tmp_path, header, why):
        path = tmp_path / "u.field"
        path.write_text(header + "\n" + "0 1\n" * 16)
        with pytest.raises(ValueError, match=re.escape(f"bad field file header in {path}: {why}")):
            load_field(path)

    @pytest.mark.parametrize(
        "row, why",
        [
            ("0.5", "expected two columns"),
            ("0.5 1 2", "expected two columns"),
            ("0.5 nan", "sample 'nan' is not a finite number"),
            ("0.5 -inf", "sample '-inf' is not a finite number"),
            ("0.5 1,5", "sample '1,5' is not a finite number"),
        ],
    )
    def test_malformed_row_is_named(self, tmp_path, row, why):
        u = PeriodicField.from_values(SPEC, np.ones(16))
        path = tmp_path / "u.field"
        save_field(u, path)
        lines = path.read_text().splitlines()
        lines[3] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 4: {why}")):
            load_field(path)

    def test_sample_count_checked(self, tmp_path):
        path = tmp_path / "u.field"
        path.write_text("# 5 1 16\n" + "0 1\n" * 15 + "\n")
        with pytest.raises(ValueError, match="has 15 samples, header says 16"):
            load_field(path)

    def test_file_text_pinned(self, tmp_path):
        u = PeriodicField.from_values(ManifoldSpec(6, 0.75), 1.0 + np.arange(16) / 7.0)
        path = tmp_path / "u.field"
        save_field(u, path)
        assert path.read_bytes() == (
            b"# 6 0.75 16\n"
            b"0 1\n"
            b"0.2945243112740431 1.1428571428571428\n"
            b"0.58904862254808621 1.2857142857142856\n"
            b"0.88357293382212931 1.4285714285714286\n"
            b"1.1780972450961724 1.5714285714285714\n"
            b"1.4726215563702154 1.7142857142857144\n"
            b"1.7671458676442586 1.8571428571428572\n"
            b"2.0616701789183018 2\n"
            b"2.3561944901923448 2.1428571428571428\n"
            b"2.6507188014663878 2.2857142857142856\n"
            b"2.9452431127404308 2.4285714285714288\n"
            b"3.2397674240144743 2.5714285714285712\n"
            b"3.5342917352885173 2.7142857142857144\n"
            b"3.8288160465625602 2.8571428571428572\n"
            b"4.1233403578366037 3\n"
            b"4.4178646691106467 3.1428571428571428\n"
        )

    def test_round_trip_bit_exact_512(self, tmp_path, rng):
        spec = ManifoldSpec(7, 1.3)
        u = PeriodicField.from_values(spec, np.exp(rng.normal(scale=3.0, size=512)))
        path = tmp_path / "u.field"
        save_field(u, path)
        v = load_field(path)
        assert v.spec == spec
        assert np.array_equal(v.values, u.values)
        # the sample column is the grid, written to 17 digits
        grid = np.array([float(line.split()[0]) for line in path.read_text().splitlines()[1:]])
        assert np.array_equal(grid, u.grid)

    def test_any_whitespace_layout_reads_the_same_samples(self, tmp_path, rng):
        # tabs, padding, blank lines and CRLF leave save_field's layout and are
        # read row by row; the samples are bit-identical to the one-split read
        u = PeriodicField.from_values(SPEC, np.exp(rng.normal(size=32)))
        path = tmp_path / "u.field"
        save_field(u, path)
        header, *rows = path.read_text().splitlines()
        rows[3] = " " + rows[3].replace(" ", "\t  ") + "  "
        rows.insert(7, "")
        loose = tmp_path / "loose.field"
        loose.write_bytes(("\r\n".join([header, *rows]) + "\r\n\r\n").encode("ascii"))
        assert np.array_equal(load_field(loose).values, load_field(path).values)
        assert np.array_equal(load_field(path).values, u.values)

    def test_rows_of_three_and_one_columns_are_named(self, tmp_path):
        # 2N words on N lines, but not two on each
        u = PeriodicField.from_values(SPEC, np.ones(16))
        path = tmp_path / "u.field"
        save_field(u, path)
        lines = path.read_text().splitlines()
        lines[3], lines[5] = "0.5 1 2", "0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 4: expected two columns")):
            load_field(path)
