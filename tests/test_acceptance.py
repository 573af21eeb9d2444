"""Acceptance gates for the benchmark reproduction.

Each criterion prints one PASS/FAIL line (run pytest -s to see them inline)
and then asserts. The expensive descent runs come from the session-scoped
`optimized` fixture.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from circulant_ilc import (
    analyze,
    contraction_mapping_law,
    dft_verify,
    error_propagation,
    gain_sweep,
    inverse_circulant_law,
    make_trajectory,
    partial_isometry_law,
    quadratic_cost_law,
    run_ilc,
    sensitivity_matrix,
    worst_case_experiment,
    accelerated_law,
)
from circulant_ilc.optimizer import _corner_positions

N = 51
T = 0.02


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def rel_ok(got, want, rtol=1e-2, small_atol=5e-4):
    if abs(want) < 0.01:
        return abs(got - want) < small_atol
    return abs(got - want) / abs(want) < rtol


def test_criterion_1_full_map_table(third):
    dm = third.deleted(0)
    rep = analyze(error_propagation(dm.toeplitz, inverse_circulant_law(dm)))
    expected = [18.2151, 1.3772, 0.2477, 0.0034, 0.0034, 0.0033]
    sv_ok = all(rel_ok(g, w) for g, w in zip(rep.singular_values[:6], expected))
    lam_ok = abs(rep.eigenvalue_magnitudes[0] - 1.0) < 1e-3
    report(
        1,
        sv_ok and lam_ok,
        f"full-map spectrum sigma={np.round(rep.singular_values[:6], 4).tolist()} "
        f"lambda1={rep.eigenvalue_magnitudes[0]:.6f}",
    )


def test_criterion_2_power_tables(third):
    dm = third.deleted(0)
    E = error_propagation(dm.toeplitz, inverse_circulant_law(dm))
    s3 = analyze(np.linalg.matrix_power(E, 3)).singular_values
    s6 = analyze(np.linalg.matrix_power(E, 6)).singular_values
    ok = (
        rel_ok(s3[0], 12.7055)
        and rel_ok(s6[0], 12.7055)
        and 0.1 < s3[1] / 1.1210e-5 < 10.0
        and 0.1 < s6[1] / 2.6757e-13 < 10.0
    )
    report(
        2,
        ok,
        f"powers: sigma1(E^3)={s3[0]:.4f} sigma2={s3[1]:.4e} "
        f"sigma1(E^6)={s6[0]:.4f} sigma2={s6[1]:.4e}",
    )


def test_criterion_3_deleted_table(third):
    dm = third.deleted(1)
    rep = analyze(error_propagation(dm.toeplitz, inverse_circulant_law(dm)))
    expected = [13.8093, 0.5417, 0.1135]
    ok = all(rel_ok(g, w) for g, w in zip(rep.singular_values[:3], expected))
    ok = ok and abs(rep.eigenvalue_magnitudes[0] - 0.9987) < 1e-3
    report(
        3,
        ok,
        f"deleted spectrum sigma={np.round(rep.singular_values[:3], 4).tolist()} "
        f"lambda1={rep.eigenvalue_magnitudes[0]:.6f}",
    )


def test_criterion_4_gain_sweep(third):
    grid = np.round(-1.0 + 0.05 * np.arange(61), 10)
    sweep = gain_sweep(third.deleted(1), grid)
    at_zero = np.isclose(sweep.gains, 0.0, atol=1e-12)
    ok = (
        sweep.best_gain == pytest.approx(0.0, abs=1e-12)
        and abs(sweep.sigma_max[sweep.best_index] - 1.0) < 1e-10
        and np.all(sweep.sigma_max[~at_zero] > 1.0)
    )
    report(
        4,
        ok,
        f"sweep minimum sigma={sweep.sigma_max[sweep.best_index]:.12f} at "
        f"phi={sweep.best_gain:+.2f}; every nonzero gain exceeds one",
    )


def test_criterion_5_optimizer_endpoints(optimized):
    t1 = optimized[("third_order", 1)]
    t0 = optimized[("third_order", 0)]
    f2 = optimized[("fourth_order", 2)]
    v2 = optimized[("fifth_order", 2)]
    checks = {
        "third q=1 sigma<1": t1.sigma[-1] < 1.0,
        "third q=1 rho<1": t1.rho[-1] < 1.0,
        "third q=0 sigma<1.6": t0.sigma[-1] < 1.6,
        "third q=0 unit eigenvalue persists": abs(t0.rho[-1] - 1.0) < 1e-2,
        "fourth rho<0.01": f2.rho[-1] < 0.01,
        "fifth rho<0.5": v2.rho[-1] < 0.5,
        # downtrend shape: crossing blips are bounded by 1% of the start
        "third q=1 trace non-increasing": float(np.max(np.diff(t1.sigma)))
        < 0.01 * t1.sigma[0],
    }
    detail = (
        f"endpoints: third q=1 sigma={t1.sigma[-1]:.4f} rho={t1.rho[-1]:.4f} "
        f"(reference 0.2224); third q=0 sigma={t0.sigma[-1]:.4f} (reference 1.3017); "
        f"fourth rho={f2.rho[-1]:.4f} (reference 0.0052); "
        f"fifth rho={v2.rho[-1]:.4f} (reference 0.3436)"
    )
    failed = [k for k, v in checks.items() if not v]
    report(5, not failed, detail + (f"; failed: {failed}" if failed else ""))


def test_criterion_6_worst_case_stall(third):
    law = accelerated_law(third.deleted(0), 6)
    result = worst_case_experiment(third.model, law, 10)
    ratios = result.rms[1:] / result.rms[1]
    ok = bool(np.all(np.abs(ratios - 1.0) < 0.05))
    report(
        6,
        ok,
        f"stalled RMS ratio range [{ratios.min():.4f}, {ratios.max():.4f}] "
        f"over iterations 1..10",
    )


def test_criterion_7_comparison_ordering(benches, optimized):
    cases = [("third_order", 1), ("fourth_order", 2), ("fifth_order", 2)]
    kinds = ("optimized_inverse_circulant", "partial_isometry", "contraction_mapping",
             "quadratic_cost")  # the failure labels of the competitors, in order
    failures = []
    lines = []
    for name, q in cases:
        bench = benches[name]
        dm = bench.deleted(q)
        competitors = [
            optimized[(name, q)].law,
            partial_isometry_law(dm.toeplitz),
            contraction_mapping_law(dm.toeplitz),
            quadratic_cost_law(dm.toeplitz),
        ]
        for label in ("yd1", "yd2"):
            traj = make_trajectory(label, bench.plant, N)
            runs = [run_ilc(bench.model, law, traj, 20) for law in competitors]
            opt, others = runs[0], runs[1:]
            for it in (3, 5):
                losers = [
                    kind for kind, o in zip(kinds[1:], others) if not opt.rms[it] < o.rms[it]
                ]
                if losers:
                    failures.append(f"{name}/{label}/iter{it} not below {losers}")
            lines.append(
                f"{name}/{label}: opt rms[3]={opt.rms[3]:.2e} rms[5]={opt.rms[5]:.2e} "
                f"best-other rms[3]={min(o.rms[3] for o in others):.2e} "
                f"rms[5]={min(o.rms[5] for o in others):.2e}"
            )
            for sim, law, kind in zip(runs, competitors, kinds):
                rep = analyze(error_propagation(dm.toeplitz, law))
                if rep.monotonic:
                    # tolerance relative to the problem scale: fast laws reach
                    # the double-precision floor where the RMS merely dithers
                    if not np.all(np.diff(sim.rms) <= 1e-12 * sim.rms[0]):
                        failures.append(f"{name}/{label}/{kind} not monotone")
    detail = "; ".join(lines)
    if failures:
        detail += " | FAILED SUB-CHECKS: " + "; ".join(failures)
    report(7, not failures, detail)


def test_criterion_8_oracle_equivalences(benches, third):
    failures = []

    # lifted map vs direct state recursion, 1e-12
    rng = np.random.default_rng(41)
    for name, bench in benches.items():
        u = rng.standard_normal(N)
        x = np.zeros(bench.plant.order)
        y = []
        for uk in u:
            x = bench.plant.A @ x + bench.plant.B[:, 0] * uk
            y.append((bench.plant.C @ x)[0])
        if np.max(np.abs(bench.model.toeplitz @ u - np.array(y))) >= 1e-12:
            failures.append(f"lifted-vs-recursion {name}")

    # sampled recursion vs adaptive ODE integration, 1e-8
    for name, bench in benches.items():
        inputs = rng.standard_normal(10)
        x = np.zeros(bench.css.order)
        oracle = []
        for uk in inputs:
            sol = solve_ivp(
                lambda t, s: bench.css.A @ s + bench.css.B[:, 0] * uk,
                (0.0, T),
                x,
                method="DOP853",
                rtol=1e-11,
                atol=1e-13,
            )
            x = sol.y[:, -1]
            oracle.append((bench.css.C @ x)[0])
        xd = np.zeros((bench.plant.order, 1))
        rec = []
        for uk in inputs:
            xd = bench.plant.A @ xd + bench.plant.B * uk
            rec.append((bench.plant.C @ xd)[0, 0])
        if np.max(np.abs(np.array(rec) - np.array(oracle))) >= 1e-8:
            failures.append(f"zoh-vs-ode {name}")

    # analytic vs central-difference sensitivities, 1e-4 relative
    for name, q in [("third_order", 1), ("fourth_order", 2), ("fifth_order", 2)]:
        dm = benches[name].deleted(q)
        S = sensitivity_matrix(dm.toeplitz, dm.circulant_inverse)
        rows, cols = _corner_positions(dm.circulant_inverse.shape, 5)
        picks = rng.choice(rows.size, size=5, replace=False)
        for idx in picks:
            i, j = int(rows[idx]), int(cols[idx])
            step = 1e-6
            up = dm.circulant_inverse.copy()
            dn = dm.circulant_inverse.copy()
            up[i, j] += step
            dn[i, j] -= step
            n = dm.toeplitz.shape[0]
            f = lambda L: np.linalg.svd(np.eye(n) - dm.toeplitz @ L, compute_uv=False)[0]
            fd = (f(up) - f(dn)) / (2 * step)
            if abs(S[i, j] - fd) / max(abs(fd), 1e-12) >= 1e-4:
                failures.append(f"sensitivity-fd {name} ({i},{j})")

    # closed-form propagation vs direct simulation, 1e-8 (normwise)
    dm = third.deleted(1)
    traj = make_trajectory("yd1", third.plant, N)
    for kind, law in (
        ("inverse_circulant", inverse_circulant_law(dm)),
        ("partial_isometry", partial_isometry_law(dm.toeplitz)),
        ("contraction_mapping", contraction_mapping_law(dm.toeplitz)),
        ("quadratic_cost", quadratic_cost_law(dm.toeplitz)),
    ):
        sim = run_ilc(third.model, law, traj, 10)
        E = error_propagation(dm.toeplitz, law)
        e = sim.errors[0].copy()
        for j in range(1, 11):
            e = E @ e
            if np.linalg.norm(sim.errors[j] - e) >= 1e-8 * (1.0 + np.linalg.norm(e)):
                failures.append(f"closed-form {kind} iter {j}")
                break

    # DFT diagonal vs one-sample-advanced transfer, bound tied to ||A^(N-1)||
    for name, bench in benches.items():
        rep = dft_verify(bench.model)
        if not rep.max_aligned_error <= 5.0 * rep.tail_norm:
            failures.append(f"dft-diagonal {name}")

    report(
        8,
        not failures,
        "oracle equivalences (recursion, ODE, finite differences, closed form, DFT)"
        + (f"; failed: {failures}" if failures else ""),
    )
