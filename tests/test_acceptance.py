"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here; run times are desk scale (the full
module takes on the order of two minutes).
"""

import math

import numpy as np

from wbwaves.config import config_from_dict
from wbwaves.dynamics import (
    IntegratorConfig,
    energy_derivative_check,
    evolve,
    picard_solve,
)
from wbwaves.experiments import (
    dissipation_test,
    fit_rate,
    invariant_region_test,
    kappa_limit_study,
    mu_limit_study,
    small_data_family,
    stability_test,
)
from wbwaves.functionals import hamiltonian, modified_energy, smallness_threshold
from wbwaves.inequalities import symbol_chain_report
from wbwaves.presets import random_bandlimited, single_mode
from wbwaves.spectral import Field, Grid
from wbwaves.state import Params, WaveState, curl_residue, weighted_pair_norm

from full_spectrum import index, state_of, transform


def report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {detail} -> {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def test_criterion_01_conservation():
    g = Grid(256)
    u0 = single_mode(g, 0.1, mode=1)
    params = Params(kappa=1.0, s=0.5)
    res = evolve(u0, params, IntegratorConfig(method="exponential_rk4", dt=1e-3),
                 T=10.0, report_every=0.5)
    h = [r.hamiltonian for r in res.reports]
    m = [r.momentum for r in res.reports]
    drift_h = max(abs(x - h[0]) for x in h) / abs(h[0])
    drift_m = max(abs(x - m[0]) for x in m) / (1.0 + abs(m[0]))
    ok = drift_h <= 1e-8 and drift_m <= 1e-8
    report(1, "conservation", ok,
           f"H drift {drift_h:.2e}, I drift {drift_m:.2e} (tol 1e-8)")


def test_criterion_02_energy_is_hamiltonian_at_half():
    g = Grid(128)
    params = Params(kappa=0.7, s=0.5)
    worst = 0.0
    for seed in range(100):
        st = random_bandlimited(g, seed=seed, band=8, amplitude=0.2)
        h = hamiltonian(st, params)
        e = modified_energy(st, params)
        worst = max(worst, abs(e - h) / max(abs(h), 1e-30))
    ok = worst <= 1e-12
    report(2, "E^(1/2) == H on 100 states", ok, f"worst rel diff {worst:.2e} (tol 1e-12)")


def test_criterion_03_symbol_chain():
    worst = 0.0
    total = checked = 0
    for n in (16, 64, 256, 1024, 4096):
        rep = symbol_chain_report(Grid(n))
        worst = max(worst, rep.max_violation_ulp)
        total += rep.passed
        checked += rep.checked
    ok = total == checked and worst <= 4.0
    report(3, "pointwise symbol chain", ok,
           f"{total}/{checked} nonzero modes exact, worst violation {worst:.2f} ulp (tol 4)")


def test_criterion_04_invariant_region():
    eps = smallness_threshold()
    cfg = IntegratorConfig(dt=1e-2)
    ok = True
    peaks = []
    for kappa in (0.1, 1.0):
        g = Grid(256)
        family = small_data_family(g, kappa=kappa, count=10, seed=0, band=6)
        params = Params(kappa=kappa, mu=0.2, p=1.0, s=0.5)
        rep = invariant_region_test(family, params, T=20.0, cfg=cfg, report_every=1.0)
        assert not any(r.get("skipped") for r in rep.rows)
        peak = max(max(r["max_norm_mu0"], r["max_norm_mu"]) for r in rep.rows)
        peaks.append(peak)
        ok = ok and rep.passed and peak <= eps
    report(4, "invariant region", ok,
           f"10 data, kappa in (0.1, 1), T=20: peak norms {peaks[0]:.4f}, {peaks[1]:.4f} "
           f"never exceed eps={eps}")


def test_criterion_05_dissipation():
    g = Grid(256)
    family = small_data_family(g, kappa=1.0, count=10, seed=0, band=6)
    params = Params(kappa=1.0, mu=0.2, p=1.0, s=0.5)
    rep = dissipation_test(family, params, T=10.0, cfg=IntegratorConfig(dt=2.5e-3),
                           delta=0.1, report_every=0.5)
    assert not any(r.get("skipped") for r in rep.rows)
    worst_ctrl = max(r["control_drift"] for r in rep.rows)
    monotone = all(r["monotone"] for r in rep.rows)
    ok = rep.passed and monotone and worst_ctrl <= 1e-8
    report(5, "dissipation", ok,
           f"H non-increasing on 10 viscous runs (roundoff tol 1e-10 rel); "
           f"mu=0 control drift {worst_ctrl:.2e} (tol 1e-8)")


def test_criterion_06_kappa_rate():
    raw = {
        "system": "wb1d", "grid": {"n": 256},
        "params": {"kappa": 1.0, "s": 2.0},
        "initial_data": {"preset": "single_mode", "amplitude": 0.05, "mode": 1},
        "integrator": {"dt": 2e-3}, "T": 5.0, "report_every": 0.5, "seed": 0,
    }
    rep = kappa_limit_study(config_from_dict(raw), (1e-1, 1e-2, 1e-3, 1e-4))
    ok = rep.extra["fitted_order"] >= 0.45 and rep.extra["residual"] < 0.1
    report(6, "kappa->0 rate", ok,
           f"fitted order {rep.extra['fitted_order']:.3f} (need >= 0.45), "
           f"log-log residual {rep.extra['residual']:.4f} (need < 0.1)")


def test_criterion_07_mu_limit():
    raw = {
        "system": "wb1d", "grid": {"n": 256},
        "params": {"kappa": 1.0, "s": 2.0},
        "initial_data": {"preset": "single_mode", "amplitude": 0.05, "mode": 1},
        "integrator": {"dt": 2e-3}, "T": 3.0, "report_every": 0.5, "seed": 0,
    }
    rep = mu_limit_study(config_from_dict(raw), (1e-1, 1e-2, 1e-3), r=1.5)
    ok = rep.extra["strictly_decreasing"]
    report(7, "mu->0 convergence", ok,
           "errors " + ", ".join(f"{row['error']:.3e}" for row in rep.rows) + " strictly decreasing")


def test_criterion_08_picard_vs_direct():
    g = Grid(256)
    u0 = random_bandlimited(g, seed=8, band=6, amplitude=0.05)
    params = Params(kappa=1.0, mu=0.1, p=1.0, s=1.0)
    cfg = IntegratorConfig(dt=2e-3, picard_tol=1e-8, picard_max_iter=30)
    pic = picard_solve(u0, params, cfg, T=0.5)
    ref = evolve(u0, params, IntegratorConfig(method="reference_rk4", dt=2e-3), T=0.5)
    diff = WaveState(g, pic.final.samples - ref.final.samples)
    err = weighted_pair_norm(diff, params.s, params.kappa)
    ok = err <= 1e-6 and pic.iterations <= 30
    report(8, "Duhamel fixed point vs direct integration", ok,
           f"difference {err:.2e} (tol 1e-6), {pic.iterations} iterations (max 30)")


def test_criterion_09_stability_scaling():
    g = Grid(256)
    rep = stability_test(
        single_mode(g, 0.05), [1e-2, 1e-3, 1e-4], r=0.5,
        params=Params(kappa=1.0, s=1.0), T=5.0,
        cfg=IntegratorConfig(dt=5e-3), seed=9,
    )
    ok = abs(rep.extra["slope"] - 2.0) <= 0.2 and rep.passed
    report(9, "stability / continuous dependence", ok,
           f"sup_t difference-energy slope {rep.extra['slope']:.4f} vs size (need 2 +- 0.2)")


def test_criterion_10_two_dimensional_structure():
    g = Grid((128, 128))
    u0 = random_bandlimited(g, seed=7, band=8, amplitude=0.05)
    params = Params(kappa=1.0, s=1.0)
    res = evolve(u0, params, IntegratorConfig(dt=2e-3), T=2.0, report_every=0.25)
    h = [r.hamiltonian for r in res.reports]
    drift = max(abs(x - h[0]) for x in h) / abs(h[0])
    worst_curl = 0.0
    for st in res.states:
        scale = 1.0 + math.sqrt(sum(float(np.sum(np.abs(transform(g, c)) ** 2)) for c in st.vel))
        worst_curl = max(worst_curl, curl_residue(g, st.vel) / scale)
    ok = worst_curl <= 1e-10 and drift <= 1e-7
    report(10, "2D curl-free structure", ok,
           f"curl residue {worst_curl:.2e} (tol 1e-10), H drift {drift:.2e} (tol 1e-7)")


def test_criterion_11_numerics_sanity():
    # refinement: embed band-limited data at n = 256 into n = 512
    coarse, fine = Grid(256), Grid(512)
    u_c = random_bandlimited(coarse, seed=42, band=8, amplitude=0.1)
    c_eta = np.zeros(512, dtype=complex)
    c_v = np.zeros(512, dtype=complex)
    for k in range(-85, 86):
        c_eta[index(fine, k)] = transform(coarse, u_c.eta)[index(coarse, k)]
        c_v[index(fine, k)] = transform(coarse, u_c.v)[index(coarse, k)]
    u_f = state_of(Field.from_coeffs(fine, c_eta), Field.from_coeffs(fine, c_v))
    params = Params(kappa=1.0, s=1.0)
    fa = evolve(u_c, params, IntegratorConfig(dt=1e-3), T=1.0).final
    fb = evolve(u_f, params, IntegratorConfig(dt=1e-3), T=1.0).final
    refine_diff = 0.0
    for k in range(-128, 128):
        refine_diff += abs(transform(coarse, fa.eta)[index(coarse, k)]
                           - transform(fine, fb.eta)[index(fine, k)]) ** 2
        refine_diff += abs(transform(coarse, fa.v)[index(coarse, k)]
                           - transform(fine, fb.v)[index(fine, k)]) ** 2
    refine_diff = math.sqrt(refine_diff)

    # temporal order of the exponential integrator
    g = Grid(64)
    u0 = single_mode(g, 0.2, mode=2)
    def final(dt):
        return evolve(u0, params, IntegratorConfig(dt=dt), T=1.0).final
    ref = final(1.0 / 3200)
    dts = [0.02, 0.01, 0.005, 0.0025]
    errs = []
    for dt in dts:
        f = final(dt)
        d = WaveState(g, f.samples - ref.samples)
        errs.append(weighted_pair_norm(d, 1.0, 1.0))
    order, _ = fit_rate(dts, errs)
    ok = refine_diff < 1e-10 and abs(order - 4.0) <= 0.5
    report(11, "numerical analysis sanity", ok,
           f"n->2n solution change {refine_diff:.2e} (tol 1e-10), "
           f"temporal order {order:.3f} (need 4 +- 0.5)")


def test_criterion_12_derivative_consistency():
    g = Grid(64)
    params = Params(kappa=1.0, s=1.0)
    worst_rel = 0.0
    for seed in range(20):
        u = random_bandlimited(g, seed=100 + seed, band=4, amplitude=0.05)
        chk = energy_derivative_check(u, params)
        rel = abs(chk.chain_rule - chk.evolution) / max(
            abs(chk.chain_rule), abs(chk.evolution), 1e-300
        )
        worst_rel = max(worst_rel, rel)
        assert chk.agree
    params_half = Params(kappa=1.0, s=0.5)
    worst_half = 0.0
    for seed in range(20):
        u = random_bandlimited(g, seed=200 + seed, band=4, amplitude=0.05)
        chk = energy_derivative_check(u, params_half)
        worst_half = max(worst_half, abs(chk.chain_rule))
    ok = worst_rel <= 1e-5 and worst_half <= 1e-8
    report(12, "energy derivative consistency", ok,
           f"chain rule vs evolution rel diff {worst_rel:.2e} (tol 1e-5); "
           f"s=1/2 mu=0 derivative {worst_half:.2e} (tol 1e-8)")
