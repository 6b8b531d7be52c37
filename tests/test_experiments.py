
import numpy as np
import pytest

from wbwaves import experiments
from wbwaves.config import config_from_dict
from wbwaves.dynamics import BlowUpError, IntegratorConfig, evolve
from wbwaves.experiments import (
    conservation_check,
    dissipation_test,
    fit_rate,
    invariant_region_test,
    kappa_limit_study,
    low_capillarity_error,
    mu_limit_study,
    small_data_family,
    stability_test,
)
from wbwaves.presets import random_bandlimited, single_mode
from wbwaves.spectral import Grid
from wbwaves.state import Params, WaveState


def base_config(**overrides):
    raw = {
        "system": "wb1d",
        "grid": {"n": 64},
        "params": {"kappa": 1.0, "s": 2.0},
        "initial_data": {"preset": "single_mode", "amplitude": 0.05, "mode": 1},
        "integrator": {"dt": 5e-3},
        "T": 1.0,
        "report_every": 0.25,
        "seed": 3,
    }
    raw.update(overrides)
    return config_from_dict(raw)


class TestSweepSpec:
    """Checks on the sweep values the limit studies take."""

    def test_monotone_required(self):
        cfg = base_config()
        with pytest.raises(ValueError, match="monotone"):
            kappa_limit_study(cfg, (0.1, 0.3, 0.2))

    def test_two_values_rejected_for_rate_fit(self):
        cfg = base_config()
        with pytest.raises(ValueError, match="3"):
            kappa_limit_study(cfg, (0.1, 0.01))

    def test_mu_needs_two_values(self):
        with pytest.raises(ValueError, match="2"):
            mu_limit_study(base_config(), (0.1,))


class TestFitRate:
    def test_recovers_exact_power_law(self):
        params = [1e-1, 1e-2, 1e-3, 1e-4]
        errors = [3.0 * p**1.7 for p in params]
        order, resid = fit_rate(params, errors)
        assert order == pytest.approx(1.7, abs=1e-12)
        assert resid < 1e-12

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_rate([1.0, 0.1], [1.0, 0.1])

    @pytest.mark.parametrize("params", [[1e-2, 1e-3, -1e-4], [1e-2, 1e-3, 0.0]])
    def test_needs_positive_parameters(self, params):
        with pytest.raises(ValueError, match="positive parameters"):
            fit_rate(params, [1.0, 0.1, 0.01])


class TestKappaLimit:
    def test_self_comparison_is_zero(self):
        g = Grid(64)
        u = random_bandlimited(g, seed=1, band=4, amplitude=0.05)
        assert low_capillarity_error(u, u) == 0.0

    def test_rate_and_monotonicity_in_horizon(self):
        cfg = base_config(T=2.0, report_every=0.5)
        report = kappa_limit_study(cfg, (1e-1, 1e-2, 1e-3))
        assert report.extra["fitted_order"] >= 0.45
        assert report.extra["residual"] < 0.1
        # doubling the horizon increases every error
        cfg2 = base_config(T=4.0, report_every=0.5)
        report2 = kappa_limit_study(cfg2, (1e-1, 1e-2, 1e-3))
        assert all(b["error"] > a["error"] for a, b in zip(report.rows, report2.rows))

    def test_regularized_base_rejected(self):
        cfg = base_config(
            system="wb1d_regularized", params={"kappa": 1.0, "mu": 0.1, "s": 2.0}
        )
        with pytest.raises(ValueError, match="unregularized"):
            kappa_limit_study(cfg, (0.1, 0.01, 0.001))


class TestMuLimit:
    def test_errors_strictly_decreasing(self):
        cfg = base_config(T=1.0)
        report = mu_limit_study(cfg, (1e-1, 1e-2, 1e-3), r=1.0)
        assert report.extra["strictly_decreasing"]
        assert report.passed
        assert all(row["error"] > 0 for row in report.rows)

    def test_increasing_sweep_rejected(self):
        cfg = base_config()
        with pytest.raises(ValueError, match="decreasing"):
            mu_limit_study(cfg, (1e-3, 1e-2, 1e-1))


class TestInvariantRegion:
    def test_zero_datum_passes(self):
        g = Grid(64)
        report = invariant_region_test(
            [WaveState.zero(g)], Params(kappa=1.0), T=0.5, cfg=IntegratorConfig(dt=5e-3)
        )
        assert report.passed

    def test_small_family_passes(self):
        g = Grid(64)
        family = small_data_family(g, kappa=1.0, count=3, seed=11, band=4)
        report = invariant_region_test(
            family, Params(kappa=1.0, mu=0.2), T=2.0, cfg=IntegratorConfig(dt=5e-3)
        )
        assert report.passed
        for row in report.rows:
            assert row["gate_norm"] <= 0.025 * (1 + 1e-9)
            assert row["ok_mu0"] and row["ok_mu"]

    def test_large_datum_flagged_not_failed(self):
        g = Grid(64)
        big = single_mode(g, 10.0)
        family = small_data_family(g, kappa=1.0, count=1, seed=12, band=4) + [big]
        report = invariant_region_test(
            family, Params(kappa=1.0), T=0.5, cfg=IntegratorConfig(dt=5e-3)
        )
        assert report.passed  # the large datum is skipped, not failed
        assert report.rows[-1]["skipped"]
        assert report.summary()["skipped"] == 1


class TestDissipation:
    def test_family_dissipates_and_control_conserves(self):
        g = Grid(64)
        family = small_data_family(g, kappa=0.5, count=2, seed=21, band=4)
        report = dissipation_test(
            family, Params(kappa=0.5, mu=0.2, p=1.0), T=2.0, cfg=IntegratorConfig(dt=2e-3)
        )
        assert report.passed
        for row in report.rows:
            assert row["monotone"]
            assert row["total_drop"] > 0
            assert row["control_drift"] <= 1e-8

    def test_zero_datum(self):
        g = Grid(32)
        report = dissipation_test(
            [WaveState.zero(g)], Params(kappa=1.0, mu=0.2, p=1.0), T=0.5,
            cfg=IntegratorConfig(dt=5e-3),
        )
        assert report.passed

    def test_requires_viscosity(self):
        g = Grid(32)
        with pytest.raises(ValueError, match="mu > 0"):
            dissipation_test([WaveState.zero(g)], Params(kappa=1.0), T=0.5,
                             cfg=IntegratorConfig())

    def test_oversized_datum_skipped(self):
        g = Grid(64)
        report = dissipation_test(
            [single_mode(g, 5.0)], Params(kappa=1.0, mu=0.2, p=1.0), T=0.5,
            cfg=IntegratorConfig(dt=5e-3), delta=0.1,
        )
        assert report.rows[0]["skipped"]


class TestStability:
    def test_zero_perturbation_stays_zero(self):
        g = Grid(64)
        u0 = single_mode(g, 0.05)
        params = Params(kappa=1.0, s=1.5)
        res = evolve(u0, params, IntegratorConfig(dt=5e-3), T=0.5, report_every=0.1)
        from wbwaves.functionals import difference_energy

        for st in res.states:
            assert difference_energy(st, st, 0.5, params) == 0.0

    def test_quadratic_scaling(self):
        g = Grid(64)
        u0 = single_mode(g, 0.05)
        report = stability_test(
            u0, [1e-2, 1e-3, 1e-4], r=0.5, params=Params(kappa=1.0, s=1.5),
            T=1.0, cfg=IntegratorConfig(dt=5e-3), seed=5,
        )
        assert abs(report.extra["slope"] - 2.0) <= 0.2
        assert report.passed

    @pytest.mark.parametrize("sizes", [[1e-2, 1e-3, -1e-4], [1e-2, 1e-3, 0.0]])
    def test_sizes_must_be_positive(self, sizes):
        with pytest.raises(ValueError, match="sizes must be positive"):
            stability_test(single_mode(Grid(32), 0.01), sizes, r=0.5,
                           params=Params(kappa=1.0, s=1.5), T=0.1,
                           cfg=IntegratorConfig(dt=5e-3))

    def test_fewer_than_three_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least 3 perturbation sizes, got 2"):
            stability_test(single_mode(Grid(32), 0.01), [1e-2, 1e-3], r=0.5,
                           params=Params(kappa=1.0, s=1.5), T=0.1,
                           cfg=IntegratorConfig(dt=5e-3))

    def test_r_range_validated(self):
        g = Grid(32)
        with pytest.raises(ValueError, match="r in"):
            stability_test(single_mode(g, 0.01), [1e-2, 1e-3], r=2.0,
                           params=Params(kappa=1.0, s=1.0), T=0.1,
                           cfg=IntegratorConfig(dt=5e-3))


class TestMemberBlowup:
    """A member that blows up aborts its study, named; ``evolve`` is wrapped
    so that only the chosen members blow up, in a single run or a batch."""

    @staticmethod
    def blow_up_when(monkeypatch, chosen):
        real = experiments.evolve

        def wrapped(u0, params, cfg, T, report_every=None, keep=None):
            results = real(u0, params, cfg, T, report_every, keep)
            single = isinstance(u0, WaveState)
            members = [u0] if single else u0
            per = [params] * len(members) if isinstance(params, Params) else params
            for state, p, res in zip(members, per, [results] if single else results):
                if chosen(state, p):
                    res.blown_up, res.blowup_time = True, T
            return results

        monkeypatch.setattr(experiments, "evolve", wrapped)

    def test_dissipation_names_the_control_run(self, monkeypatch):
        self.blow_up_when(monkeypatch, lambda u0, params: params.mu == 0)
        with pytest.raises(BlowUpError) as info:
            dissipation_test(
                [WaveState.zero(Grid(32))], Params(kappa=1.0, mu=0.2, p=1.0), T=0.1,
                cfg=IntegratorConfig(dt=5e-3),
            )
        assert info.value.member == "datum=0 control"

    def test_dissipation_names_the_first_member_in_datum_order(self, monkeypatch):
        # Datum 1's viscous run and datum 0's control blow up; one at a time,
        # datum 0's control would have run first.
        family = small_data_family(Grid(32), kappa=1.0, count=2, seed=3, band=4)
        self.blow_up_when(
            monkeypatch,
            lambda u0, params: (u0 is family[1] and params.mu > 0)
            or (u0 is family[0] and params.mu == 0),
        )
        with pytest.raises(BlowUpError) as info:
            dissipation_test(
                family, Params(kappa=1.0, mu=0.2, p=1.0), T=0.1,
                cfg=IntegratorConfig(dt=5e-3),
            )
        assert info.value.member == "datum=0 control"

    @pytest.mark.parametrize("study, field, values", [
        (kappa_limit_study, "kappa", (0.1, 0.01, 0.001)), (mu_limit_study, "mu", (0.1, 0.01)),
    ], ids=["kappa_limit", "mu_limit"])
    def test_limit_study_names_the_reference_first(self, monkeypatch, study, field, values):
        # The reference and the last sweep member blow up; the reference is named.
        self.blow_up_when(
            monkeypatch, lambda u0, params: getattr(params, field) in (0.0, values[-1])
        )
        with pytest.raises(BlowUpError) as info:
            study(base_config(T=0.1), values)
        assert info.value.member == f"{field}=0"

    def test_stability_names_the_perturbed_run(self, monkeypatch):
        u0 = single_mode(Grid(64), 0.05)
        self.blow_up_when(monkeypatch, lambda u, params: u is not u0)
        with pytest.raises(BlowUpError) as info:
            stability_test(
                u0, [1e-2, 1e-3, 1e-4], r=0.5, params=Params(kappa=1.0, s=1.5), T=0.1,
                cfg=IntegratorConfig(dt=5e-3),
            )
        assert info.value.member == "size=0.01"


@pytest.mark.parametrize("study", [
    lambda u0, cfg, **kw: conservation_check(u0, Params(kappa=1.0), 0.1, cfg, **kw),
    lambda u0, cfg, **kw: invariant_region_test([u0], Params(kappa=1.0), 0.1, cfg, **kw),
    lambda u0, cfg, **kw: dissipation_test([u0], Params(kappa=1.0, mu=0.2), 0.1, cfg, **kw),
    lambda u0, cfg, **kw: stability_test(
        u0, [1e-2, 1e-3, 1e-4], 0.5, Params(kappa=1.0, s=1.5), 0.1, cfg, **kw
    ),
], ids=["conservation", "invariant_region", "dissipation", "stability"])
def test_zero_report_cadence_is_not_the_default(study):
    """Only None takes the default cadence: report_every = 0 reaches evolve,
    which rejects it."""
    with pytest.raises(ValueError, match="report_every must be positive, got 0"):
        study(single_mode(Grid(32), 0.001), IntegratorConfig(dt=5e-3), report_every=0)


class TestConservationCheck:
    def test_reference_run(self):
        g = Grid(128)
        report = conservation_check(
            single_mode(g, 0.1), Params(kappa=1.0, s=0.5), T=1.0,
            cfg=IntegratorConfig(dt=1e-3), report_every=0.25,
        )
        assert report.passed
        assert report.rows[0]["drift_hamiltonian"] <= 1e-8


class TestDeterminism:
    def test_family_and_study_deterministic(self):
        g = Grid(64)
        fam1 = small_data_family(g, kappa=1.0, count=2, seed=7, band=4)
        fam2 = small_data_family(g, kappa=1.0, count=2, seed=7, band=4)
        for a, b in zip(fam1, fam2):
            assert np.array_equal(a.eta, b.eta)
        r1 = invariant_region_test(fam1, Params(kappa=1.0), T=0.3, cfg=IntegratorConfig(dt=5e-3))
        r2 = invariant_region_test(fam2, Params(kappa=1.0), T=0.3, cfg=IntegratorConfig(dt=5e-3))
        assert r1.rows == r2.rows
