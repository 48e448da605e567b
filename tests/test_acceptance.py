"""Acceptance gate: every release-blocking criterion, one test each.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and then
asserts, so a red run names the criterion that broke.  Stochastic criteria
run at pinned seeds; the margins were checked against nearby seeds when the
protocols were frozen.
"""

import time

import numpy as np
from numpy.testing import assert_allclose
from scipy.sparse.linalg import lsqr

import helmrff as hr
from helmrff import cli
from helmrff import features as ft
from helmrff import kernels as kn
from helmrff import regression as rg


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def run_benchmark(name, n_seeds=10):
    config = cli.parse_config(cli.bundled_config_path(name))
    t0 = time.perf_counter()
    reports = []
    for master in range(n_seeds):
        result = cli.run_protocol(config, master)
        reports.append((result["report_helmholtz"], result["report_gaussian"]))
    elapsed = time.perf_counter() - t0
    med = {
        "helm_train": float(np.median([h["train_mse"] for h, _ in reports])),
        "helm_test": float(np.median([h["test_mse"] for h, _ in reports])),
        "gauss_test": float(np.median([g["test_mse"] for _, g in reports])),
    }
    return med, elapsed


def test_criterion_1_pendulum_reproduction():
    med, elapsed = run_benchmark("pendulum")
    ok = (med["helm_train"] <= 0.01
          and med["helm_test"] <= 0.01
          and med["gauss_test"] >= 100.0 * med["helm_test"]
          and elapsed <= 60.0)
    report(1, ok,
           f"median over 10 seeds: helm train {med['helm_train']:.2e} (<=0.01), "
           f"helm test {med['helm_test']:.2e} (<=0.01), baseline/helm ratio "
           f"{med['gauss_test'] / med['helm_test']:.0f}x (>=100x), {elapsed:.1f}s (<=60s)")


def test_criterion_2_msd_reproduction():
    med, elapsed = run_benchmark("msd")
    ok = (med["helm_test"] <= 0.05
          and med["helm_test"] <= 0.5 * med["gauss_test"]
          and elapsed <= 60.0)
    report(2, ok,
           f"median over 10 seeds: helm test {med['helm_test']:.2e} (<=0.05), "
           f"helm/baseline {med['helm_test'] / med['gauss_test']:.3f} (<=0.5), "
           f"{elapsed:.1f}s (<=60s)")


def test_criterion_3_dataset_counts():
    msd = cli.parse_config(cli.bundled_config_path("msd"))
    pend = cli.parse_config(cli.bundled_config_path("pendulum"))
    n_msd = len(cli.simulate_dataset(msd, 0))
    n_pend = len(cli.simulate_dataset(pend, 0))
    report(3, n_msd == 15 and n_pend == 24,
           f"N = {n_msd} (msd, want 15), N = {n_pend} (pendulum, want 24)")


def fd_divergence(part, x, step):
    total = 0.0
    for i in range(2):
        e = np.zeros(2)
        e[i] = step
        total += (part(x + e)[i] - part(x - e)[i]) / (2 * step)
    return total


def fd_jacobian(part, x, step):
    J = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        J[:, j] = (part(x + e) - part(x - e)) / (2 * step)
    return J


def test_criterion_4_structural_suite():
    t0 = time.perf_counter()
    system = hr.mass_spring_damper(0.5, 1.0, 0.25)
    ics = np.array([[1.0, 0.0], [2.25, 0.0], [3.5, 0.0]])
    ds = hr.generate_dataset(system, ics, 0.25, 1.0, hr.NoiseSpec(0.1, 2),
                             include_t0=True)
    model = hr.fit_helmholtz(ds, rg.Hyperparameters(2.0, 1e-4, 1e-4, d=200), seed=9)
    rng = np.random.default_rng(21)

    # odd symmetry of the learned field at unit-scale states
    X = rng.uniform(-1, 1, size=(50, 2))
    odd_dev = float(np.abs(model.predict(-X) + model.predict(X)).max())

    sym = lambda x: model.decompose(x)[0]
    dis = lambda x: model.decompose(x)[1]
    probes = rng.uniform(-3.5, 3.5, size=(50, 2))
    div_max = 0.0
    asym_max = 0.0
    for x in probes:
        step = 1e-4 * max(1.0, float(np.linalg.norm(x)))
        div_max = max(div_max, abs(fd_divergence(sym, x, step)))
        J = fd_jacobian(dis, x, step)
        asym_max = max(asym_max, float(np.linalg.norm(J - J.T) / np.linalg.norm(J)))

    # energy orthogonality with the closed-form gradient
    fs = model.decompose(probes)[0]
    ortho = float(np.abs(np.sum(model.hamiltonian_gradient(probes) * fs, axis=1)).max())

    pts = rng.normal(size=(20, 2))
    min_eig = np.inf
    for kind in ("curl-free", "symplectic", "odd-curl-free", "odd-symplectic"):
        G = kn.gram_matrix(kind, pts, 0.8)
        eigs = np.linalg.eigvalsh(G)
        min_eig = min(min_eig, eigs.min() / max(eigs.max(), 1.0))
    elapsed = time.perf_counter() - t0

    ok = (odd_dev <= 1e-12 and div_max <= 1e-5 and asym_max <= 1e-4
          and ortho <= 1e-10 and min_eig >= -1e-10 and elapsed <= 10.0)
    report(4, ok,
           f"odd {odd_dev:.1e} (<=1e-12), div {div_max:.1e} (<=1e-5), "
           f"Jac asym {asym_max:.1e} (<=1e-4), gradH.fs {ortho:.1e} (<=1e-10), "
           f"relative Gram eig {min_eig:.1e} (>=-1e-10), {elapsed:.1f}s (<=10s)")


def test_criterion_5_rff_convergence():
    rng = np.random.default_rng(11)
    pairs = rng.uniform(-1.0, 1.0, size=(20, 2, 2))
    ratios = []
    abs_err = 0.0
    for flag, kind in enumerate((ft.ODD_CURL_FREE, ft.ODD_SYMPLECTIC)):
        exact = np.array([kn.kernel_blocks(kind, x, z, 1.0)[0, 0] for x, z in pairs])
        med = {}
        for d in (2000, 8000):
            errs = []
            for trial in range(10):
                basis = ft.sample_basis(kind, d, 2, 1.0, seed=11000 + 10 * trial + flag)
                approx = np.array([ft.feature_design(basis, x).T
                                   @ ft.feature_design(basis, z) for x, z in pairs])
                errs.append(np.abs(approx - exact).max())
            med[d] = float(np.median(errs))
        ratios.append(med[2000] / med[8000])

        big = ft.sample_basis(kind, 20000, 2, 1.0, seed=7)
        approx = np.array([ft.feature_design(big, x).T @ ft.feature_design(big, z)
                           for x, z in pairs])
        abs_err = max(abs_err, float(np.abs(approx - exact).max()))

    ok = min(ratios) >= 2.0 and abs_err <= 0.05
    report(5, ok,
           f"error ratios d=2000/d=8000: curl-free {ratios[0]:.2f}, symplectic "
           f"{ratios[1]:.2f} (>=2.0); abs err at d=2e4 {abs_err:.3f} (<=0.05)")


def test_criterion_6_oracle_equivalence():
    system = hr.damped_pendulum(1.0, 1.0, 1.2, 9.81)
    ics = np.array([[2 * np.pi / 5, 0.0], [4 * np.pi / 5, 0.0],
                    [19 * np.pi / 20, -4.0]])
    full = hr.generate_dataset(system, ics, 0.1, 0.7, hr.NoiseSpec(0.01, 3),
                               include_t0=True)
    sub = full.subset(np.arange(0, 24, 3))
    assert len(sub) == 8

    lam = 1e-2
    exact = hr.fit_exact_kernel(sub, "helmholtz", sigma=1.0, lam=lam)
    rff = hr.fit_helmholtz(sub, rg.Hyperparameters(1.0, lam, lam, d=20000), seed=5)

    rng = np.random.default_rng(17)
    probes = sub.states[rng.integers(0, len(sub), 20)] + rng.normal(0, 0.15, (20, 2))
    pe = exact.predict(probes)
    pr = rff.predict(probes)
    rel = np.linalg.norm(pr - pe, axis=1) / np.linalg.norm(pe, axis=1)
    ok = float(rel.max()) <= 0.05
    report(6, ok, f"max relative deviation over 20 probes {rel.max():.4f} (<=0.05), "
                  f"N=8 pendulum subset, d=2e4")


def test_criterion_7_closed_form_matches_iterative_optimum():
    rng = np.random.default_rng(4)
    ds = rg.Dataset(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
    hyper = rg.Hyperparameters(1.0, 1e-2, 3e-3, d=64)
    model = hr.fit_helmholtz(ds, hyper, seed=6)
    xi = np.concatenate([model.alpha, model.beta])

    Phi = rg.assemble_design(ds, model.basis_c, model.basis_s)
    lam = np.concatenate([np.full(64, hyper.lambda1), np.full(64, hyper.lambda2)])
    A = np.vstack([Phi.T, np.diag(np.sqrt(len(ds) * lam))])
    b = np.concatenate([ds.target_vector(), np.zeros(128)])
    xi_iter = lsqr(A, b, atol=1e-14, btol=1e-14, iter_lim=200000)[0]

    rel = float(np.linalg.norm(xi - xi_iter) / np.linalg.norm(xi_iter))
    report(7, rel <= 1e-4, f"relative coefficient error vs LSQR {rel:.2e} (<=1e-4)")


def test_criterion_8_rk4_is_fourth_order():
    system = hr.mass_spring_damper(0.5, 1.0, 0.25)
    x0 = np.array([2.0, 0.0])
    ref = hr.integrate_rk4(system.field, x0, 1e-5, 1.0).states[-1]
    err_h = np.linalg.norm(hr.integrate_rk4(system.field, x0, 0.1, 1.0).states[-1] - ref)
    err_h2 = np.linalg.norm(hr.integrate_rk4(system.field, x0, 0.05, 1.0).states[-1] - ref)
    ratio = err_h / err_h2
    report(8, ratio >= 12.0, f"endpoint-error ratio when halving h: {ratio:.1f} (>=12)")
