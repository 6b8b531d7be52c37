"""Desk-scale studies that turn the analytical guarantees into checks.

Every study is deterministic given its configuration and seed, re-verifies
its preconditions numerically before running, and returns a ``StudyReport``:
its raw points (one dict per CSV row), its verdict and the extra fields of
its JSON summary.  Rate fits are least squares on log10-log10 points with
the RMS fit residual reported alongside the slope.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import product
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (
    BlowUpError,
    EvolveResult,
    IntegratorConfig,
    PicardError,
    _report_cadence,
    evolve,
)
from .functionals import difference_energy, smallness_threshold
from .inequalities import (
    brezis_gallouet_report,
    kato_ponce_report,
    leibniz_report,
    symbol_chain_report,
    trilinear_report,
)
from .presets import random_bandlimited
from .state import Params, WaveState, _sobolev_sq, _weighted_sq_coeffs, weighted_pair_norm

# Each comparison norm of a difference (theta, w): the Sobolev pair
# sqrt(||theta||^2_{H^a} + ||w||^2_{H^b}) by its orders (a, b), or None for
# HskappaxHs, the weighted pair norm at the study's s and kappa.
COMPARISON_NORMS = {"L2xH12": (0.0, 0.5), "H1xH12": (1.0, 0.5), "HskappaxHs": None}


@dataclass
class StudyReport:
    """A study's outcome: its CSV rows, its verdict and its summary fields."""

    study: str
    rows: list
    passed: bool
    extra: dict = field(default_factory=dict)

    def summary(self):
        return {"study": self.study, "pass": self.passed, **self.extra}


def _table_report(study, rows, **extra) -> StudyReport:
    """Verdict over per-datum rows: every row not skipped is ok, and one at least ran."""
    active = [r for r in rows if not r.get("skipped")]
    passed = bool(active) and all(r.get("ok", False) for r in active)
    skipped = len(rows) - len(active)
    return StudyReport(study, rows, passed, {"rows": len(rows), "skipped": skipped, **extra})


def fit_rate(params, errors):
    """Least-squares slope of log10(error) against log10(param) plus RMS residual."""
    params = np.asarray(params, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(params) < 3:
        raise ValueError("rate fitting needs at least 3 points")
    if np.any(params <= 0):
        raise ValueError("rate fitting needs positive parameters")
    if np.any(errors <= 0):
        raise ValueError("rate fitting needs positive errors")
    x = np.log10(params)
    y = np.log10(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(math.sqrt(np.mean(resid**2)))


def low_capillarity_error(a: WaveState, b: WaveState) -> float:
    """sqrt(||theta||_L2^2 + ||K^-1 w||_L2^2), the zero-surface-tension metric:
    HskappaxHs at s = 1/2 and kappa = 0."""
    return _comparison_error("HskappaxHs", a, b, 0.5, 0.0)


def _sobolev_pair(grid, u, eta_order, vel_order) -> float:
    """sqrt(||eta||^2_{H^eta_order} + ||v||^2_{H^vel_order}) of a packed pair."""
    return math.sqrt(_sobolev_sq(grid, u[0], eta_order) + _sobolev_sq(grid, u[1:], vel_order))


def _checked(member, res: EvolveResult) -> EvolveResult:
    """A study member's result; a blow-up aborts the whole study."""
    if res.blown_up:
        raise BlowUpError(member, res.blowup_time)
    return res


def _integrate(members, cfg, T, report_every, keep=None, checked=True):
    """The results of ``members``, (name, state, Params) triples, in their
    order and each ``_checked`` unless ``checked`` is false, from one
    ``evolve`` call per integrator: under picard_duhamel a mu = 0 member
    steps by ERK4.  A solve that does not contract names its member."""
    inviscid = "exponential_rk4" if cfg.method == "picard_duhamel" else cfg.method
    methods = [cfg.method if p.mu > 0 else inviscid for _, _, p in members]
    results = {}
    for m in dict.fromkeys(methods):
        idx = [i for i, method in enumerate(methods) if method == m]
        names, states, params = zip(*(members[i] for i in idx))
        try:
            results.update(zip(idx, evolve(states, params, replace(cfg, method=m), T,
                                           report_every, keep=keep)))
        except PicardError as exc:
            exc.member = names[exc.member]
            raise
    results = [results[i] for i in range(len(members))]
    return list(map(_checked, [m[0] for m in members], results)) if checked else results


def _comparison_error(name, a, b, s, kappa):
    d, orders = a.packed() - b.packed(), COMPARISON_NORMS[name]
    if orders is None:
        return math.sqrt(_weighted_sq_coeffs(a.grid, d, s, kappa))
    return _sobolev_pair(a.grid, d, *orders)


def _sweep(base, key, values, cfg):
    """The checked runs of ``base``'s datum with the Params field ``key`` at
    0 (the reference, first) and at each of ``values``, as one batch."""
    u0 = base.initial_state()
    members = [(f"{key}={v:g}", u0, replace(base.params, **{key: v})) for v in (0.0, *values)]
    return _integrate(members, cfg, base.T, base.report_every)


def _sup_error(result_a: EvolveResult, result_b: EvolveResult, metric) -> float:
    pairs = zip(result_a.states, result_b.states, strict=True)
    return max(metric(x, y) for x, y in pairs)


def kappa_limit_study(base, kappas) -> StudyReport:
    """Convergence rate of the solution as the surface tension vanishes.

    Runs the zero-surface-tension system and each kappa in the sweep as one
    batch and fits the order of sup-in-time error decay (guaranteed at least
    1/2 up to constants).  ``base`` is the RunConfig the members share but
    for kappa; each point also carries its error in every comparison norm."""
    kappas = tuple(float(k) for k in kappas)
    if len(kappas) < 3:
        raise ValueError("kappa_limit_study needs at least 3 sweep values")
    diffs = np.diff(kappas)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("kappa sweep values must be strictly monotone")
    if any(not (0 < k <= 1) for k in kappas):
        raise ValueError("kappa sweep values must lie in (0, 1]")
    if base.params.mu != 0:
        raise ValueError("kappa_limit_study runs the unregularized system")
    reference, *runs = _sweep(base, "kappa", kappas, base.integrator)
    points = []
    for kappa, res in zip(kappas, runs):
        point = {"kappa": kappa, "error": _sup_error(res, reference, low_capillarity_error)}
        for norm in COMPARISON_NORMS:
            metric = partial(_comparison_error, norm, s=base.params.s, kappa=kappa)
            point[norm] = _sup_error(res, reference, metric)
        points.append(point)
    order, resid = fit_rate(kappas, [pt["error"] for pt in points])
    extra = {"fitted_order": order, "residual": resid, "points": points}
    return StudyReport("kappa_limit", points, order >= 0.45 and resid < 0.1, extra)


def mu_limit_study(base, mus, r=None) -> StudyReport:
    """Cauchy behavior of the viscous approximations as mu decreases.

    Errors against the mu = 0 run, measured in the (r+1/2, r) Sobolev pair
    for 0 < r <= s (default max(1/2, s - 1/2)), must decrease strictly along the
    sweep; the fitted order is reported without asserting a value (NaN for
    fewer than 3 values).  The reference and the sweep are one batch; if a
    Duhamel solve does not contract, the sweep steps by ERK4 instead."""
    mus = tuple(float(m) for m in mus)
    if len(mus) < 2:
        raise ValueError("mu_limit_study needs at least 2 sweep values")
    if any(not (0 < m < 1) for m in mus) or any(b <= a for a, b in zip(mus[1:], mus)):
        raise ValueError("mu sweep values must be strictly decreasing in (0, 1)")
    s = base.params.s
    if base.params.p != 1.0:
        raise ValueError("mu_limit_study fixes p = 1")
    if base.params.kappa <= 0:
        raise ValueError("mu_limit_study needs kappa > 0")
    if r is None:
        r = max(0.5, s - 0.5)
    r = float(r)
    if not 0 < r <= s:
        raise ValueError(f"mu_limit_study needs 0 < r <= s, got r={r}")
    cfg = base.integrator
    try:
        reference, *runs = _sweep(base, "mu", mus, cfg)
        fallback = False
    except PicardError:
        reference, *runs = _sweep(base, "mu", mus, replace(cfg, method="exponential_rk4"))
        fallback = True

    def metric(a, b):
        return _sobolev_pair(a.grid, a.packed() - b.packed(), r + 0.5, r)

    errors = [_sup_error(res, reference, metric) for res in runs]
    order, resid = fit_rate(mus, errors) if len(mus) >= 3 else (math.nan, math.nan)
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    extra = {
        "fitted_order": order,
        "residual": resid,
        "strictly_decreasing": decreasing,
        "r": r,
        "fallback_integrator": fallback,
    }
    rows = [{"mu": m, "error": e} for m, e in zip(mus, errors)]
    return StudyReport("mu_limit", rows, decreasing, extra)


def invariant_region_test(
    data, params: Params, T, cfg: IntegratorConfig, epsilon=None, report_every=None
) -> StudyReport:
    """Small data stays small: norms gated at eps/2 never reach eps.

    Each datum's H_kappa^1 x H^(1/2) norm is computed (not assumed); data
    above eps/2 are flagged as precondition violations and skipped.  Both
    the conservative and, when params.mu > 0, the viscous flow are run, both
    variants of the admitted data as one batch, the conservative one by ERK4
    under picard_duhamel."""
    eps = smallness_threshold(epsilon)
    report_every = _report_cadence(report_every, T, cfg.dt)
    rows = []
    for i, u0 in enumerate(data):
        gate = weighted_pair_norm(u0, 0.5, params.kappa)
        rows.append({"index": i, "gate_norm": gate, "epsilon": eps})
        if gate > 0.5 * eps * (1 + 1e-12):
            rows[-1].update(skipped=True, reason="initial norm exceeds epsilon/2")
    active = [(row, u0) for row, u0 in zip(rows, data) if not row.get("skipped")]
    variants = {"mu0": replace(params, mu=0.0)}
    if params.mu > 0:
        variants["mu"] = params
    pairs = list(product(variants.items(), active))
    results = _integrate(
        [(f"datum={row['index']}", u0, pv) for (_, pv), (row, u0) in pairs], cfg, T, report_every,
        keep=lambda st: weighted_pair_norm(st, 0.5, params.kappa), checked=False,
    )
    for ((label, _), (row, _)), res in zip(pairs, results):
        peak = max(res.states)
        row[f"max_norm_{label}"] = peak
        row[f"ok_{label}"] = (not res.blown_up) and peak <= eps
    for row, _ in active:
        row["ok"] = all(row[f"ok_{label}"] for label in variants)
    return _table_report("invariant_region", rows, epsilon=eps)


def dissipation_test(
    data, params: Params, T, cfg: IntegratorConfig, delta=0.1, report_every=None
) -> StudyReport:
    """Viscosity makes the Hamiltonian non-increasing for small data.

    Hamiltonian increases below 1e-10 relative are counted as roundoff;
    the mu = 0 control run (by ERK4 under picard_duhamel) must instead
    conserve to 1e-8 relative.  The viscous runs and the controls are one
    batch, each run next to its control; a blow-up names the first blown
    member in datum order, the run before its control."""
    if not delta > 0:
        raise ValueError(f"dissipation_test needs delta > 0, got {delta}")
    if not (params.mu > 0 and params.p == 1.0):
        raise ValueError("dissipation_test needs mu > 0 and p = 1")
    report_every = _report_cadence(report_every, T, cfg.dt)
    rows = []
    for i, u0 in enumerate(data):
        u, grid = u0.packed(), u0.grid
        size = math.sqrt(_sobolev_sq(grid, u[0], 0.0)) + math.sqrt(_sobolev_sq(grid, u[1:], 0.5))
        rows.append({"index": i, "data_size": size, "delta": delta})
        if size > delta:
            rows[-1].update(skipped=True, reason="data size exceeds delta")
    active = [(row, u0) for row, u0 in zip(rows, data) if not row.get("skipped")]

    pairs = (("", params), (" control", replace(params, mu=0.0)))
    members = [(f"datum={row['index']}{tag}", u0, pv) for row, u0 in active for tag, pv in pairs]
    # The runs read only their reports.
    results = _integrate(members, cfg, T, report_every, keep=lambda st: None)
    series = [[rep.hamiltonian for rep in res.reports] for res in results]
    for (row, _), h, ctrl_h in zip(active, series[::2], series[1::2]):
        tol = 1e-10 * max(abs(h[0]), 1e-300)
        row["monotone"] = all(b <= a + tol for a, b in zip(h, h[1:]))
        row["total_drop"] = h[0] - h[-1]

        drift = max(abs(x - ctrl_h[0]) for x in ctrl_h)
        row["control_drift"] = drift / max(abs(ctrl_h[0]), 1e-300)
        row["ok"] = row["monotone"] and row["control_drift"] <= 1e-8
    return _table_report("dissipation", rows, delta=delta)


def stability_test(
    u0: WaveState,
    sizes,
    r,
    params: Params,
    T,
    cfg: IntegratorConfig,
    seed=0,
    report_every=None,
) -> StudyReport:
    """Continuous dependence via the difference energy.

    Perturbs the datum along a fixed random band-limited direction at the
    given sizes, evolves the base and the perturbed runs as one batch (a
    blow-up names the first blown member, base first), and checks that
    sup_t E^r scales quadratically in the perturbation size while the fitted
    exponential growth rate of E^r(t) stays comparable across sizes."""
    r = float(r)
    if not (0 < r <= params.s - 0.5):
        raise ValueError(f"stability_test needs r in (0, s - 1/2], got {r}")
    sizes = [float(s_) for s_ in sizes]
    if any(not (s_ > 0 and math.isfinite(s_)) for s_ in sizes):
        raise ValueError(f"perturbation sizes must be positive and finite, got {sizes}")
    if any(b >= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("perturbation sizes must be strictly decreasing")
    if len(sizes) < 3:
        raise ValueError(f"stability_test needs at least 3 perturbation sizes, got {len(sizes)}")
    report_every = _report_cadence(report_every, T, cfg.dt)
    direction = random_bandlimited(u0.grid, seed=seed, band=4, amplitude=1.0)
    dnorm = weighted_pair_norm(direction, params.s, params.kappa)
    members = [("base", u0, params)] + [
        (f"size={size:g}", WaveState.from_packed(
            u0.grid, u0.packed() + (size / dnorm) * direction.packed(), u0.time), params)
        for size in sizes
    ]
    base, *runs = _integrate(members, cfg, T, report_every)

    times = np.asarray(base.times) - base.times[0]
    sups = []
    rates = []
    for res in runs:
        series = [difference_energy(a, b, r, params) for a, b in zip(res.states, base.states)]
        sups.append(max(series))
        logs = np.log(np.maximum(series, 1e-300))
        rates.append(float(np.polyfit(times, logs, 1)[0]))
    slope, resid = fit_rate(sizes, sups)
    lo, hi = min(rates), max(rates)
    passed = (
        all(math.isfinite(a) for a in rates)
        and hi - lo <= 0.5 * max(abs(lo), abs(hi), 1e-6)
        and all(b < a for a, b in zip(sups, sups[1:]))
        and abs(slope - 2.0) <= 0.2
    )
    rows = [{"size": s_, "sup_energy": e} for s_, e in zip(sizes, sups)]
    extra = {"slope": slope, "slope_residual": resid, "growth_rates": rates}
    return StudyReport("stability", rows, passed, extra)


def small_data_family(grid, kappa, count=10, epsilon=None, seed=0, band=6) -> list:
    """Random band-limited states rescaled to gate norm epsilon/2."""
    if count < 1:
        raise ValueError(f"the small-data family needs count >= 1, got {count}")
    eps = smallness_threshold(epsilon)
    family = []
    for i in range(count):
        raw = random_bandlimited(grid, seed=seed + i, band=band, amplitude=1.0)
        norm = weighted_pair_norm(raw, 0.5, kappa)
        family.append(WaveState.from_packed(grid, (0.5 * eps / norm) * raw.packed(), raw.time))
    return family


def conservation_check(u0: WaveState, params: Params, T, cfg, report_every=None) -> StudyReport:
    """Relative drift of the invariants along the conservative flow."""
    if params.mu != 0:
        raise ValueError("conservation_check runs the unregularized system (mu = 0)")
    report_every = _report_cadence(report_every, T, cfg.dt)
    res = evolve(u0, params, cfg, T, report_every, keep=lambda state: None)
    h = [rep.hamiltonian for rep in res.reports]
    drift_h = max(abs(x - h[0]) for x in h) / max(abs(h[0]), 1e-300)
    row = {"drift_hamiltonian": drift_h, "blown_up": res.blown_up}
    if u0.dim == 1:
        mom = [rep.momentum for rep in res.reports]
        drift_i = max(abs(x - mom[0]) for x in mom) / (1.0 + abs(mom[0]))
        row["drift_momentum"] = drift_i
        row["ok"] = (not res.blown_up) and drift_h <= 1e-8 and drift_i <= 1e-8
    else:
        row["ok"] = (not res.blown_up) and drift_h <= 1e-7
    return _table_report("conservation", [row])


def inequality_study(grid, count, seed) -> StudyReport:
    """The inequality chain behind the energy estimates, on random data.

    The exact symbol-comparison chain on the grid's wavenumbers, plus the
    Kato-Ponce, Leibniz, trilinear and Brezis-Gallouet ratios on ``count``
    random band-limited states; passes when the chain holds and every ratio
    is finite."""
    if grid.dim != 1:
        raise ValueError("the inequalities study runs on a 1D grid")
    if count < 1:
        raise ValueError(f"the inequalities study needs count >= 1, got {count}")
    chain = symbol_chain_report(grid)
    states = [random_bandlimited(grid, seed=seed + i, band=6, amplitude=0.5) for i in range(count)]
    u = np.stack([st.packed() for st in states])
    eta, v = u[:, 0], u[:, 1]
    reports = {
        "kato_ponce": kato_ponce_report(grid, eta, v),
        "leibniz": leibniz_report(grid, eta, v),
        "trilinear": trilinear_report(grid, eta, v, eta),
        "brezis_gallouet": brezis_gallouet_report(grid, v),
    }
    rows = [
        {"check": which, "sample": i, "lhs": sm["lhs"], "rhs": sm["rhs"], "ratio": sm["ratio"]}
        for which, rep in reports.items()
        for i, sm in enumerate(rep.samples)
    ]
    passed = chain.ok and all(rep.all_finite for rep in reports.values())
    extra = {
        "symbol_chain": {
            "checked": chain.checked,
            "passed": chain.passed,
            "max_violation_ulp": chain.max_violation_ulp,
        },
        **{f"{k}_max_ratio": rep.max_ratio for k, rep in reports.items()},
    }
    return StudyReport("inequalities", rows, bool(passed), extra)
