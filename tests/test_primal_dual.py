import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tvsource.experiment import (ExperimentConfig, build_benchmark_problem,
                                 synthesize_observation)
from tvsource.fem_assembly import (CoefficientSet, NeumannData,
                                   assemble_stiffness, div_adjoint,
                                   elem_gradient)
from tvsource.mesh import SIDE_TAGS, GammaSpec, build_structured
from tvsource import pde_solvers, primal_dual
from tvsource.pde_solvers import DiscreteProblem, Observation
from tvsource.primal_dual import (MultilevelError, PdDriver, PdParams,
                                  certify_steps, certify_steps_empirical,
                                  coercivity_c1, compatible_start,
                                  multilevel_run, run,
                                  smooth_operator_matrix,
                                  smooth_operator_norm, trace_constant)
from tvsource.sparse_linalg import grad_operator_norm
from tvsource.tv_calculus import gradient_pairing

from conftest import (b_norm_hook, benchmark_dp, dense, div_rep,
                      gradient_terms, per_side, random_dp,
                      reference_primal_step, reference_run,
                      triangle_geometry, unit_coefficients)

# what a mesh caches on first use, all derived from its level and box
MESH_CACHES = {"axes", "vertices", "triangles", "grid"}


class TestConstants:
    def test_coercivity_reference_value(self):
        assert abs(coercivity_c1(0.1, 2, 4.0) - 0.025) <= 1e-12

    def test_coercivity_linear_in_lower_bound(self):
        assert abs(coercivity_c1(0.2, 2, 4.0) - 0.05) <= 1e-12

    def test_coercivity_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            coercivity_c1(0.0, 2, 4.0)
        with pytest.raises(ValueError):
            coercivity_c1(0.1, 2, -1.0)

    def test_trace_constant_reference_values(self):
        assert abs(trace_constant(((-1, 1), (-1, 1))) - math.sqrt(3.0)) <= 1e-12
        assert abs(trace_constant(((-2, 2), (-2, 2))) - math.sqrt(3.0)) <= 1e-12

    def test_trace_constant_requires_zero_inside(self):
        with pytest.raises(ValueError):
            trace_constant(((0.5, 1.0), (-1.0, 1.0)))


class TestCertificate:
    def test_reference_arithmetic(self):
        params = PdParams(rho=8.409e-4, tau=2e-4, theta=5e-2, max_iter=600)
        cert = certify_steps(params, benchmark_dp(4)[0])
        assert cert.c1 == pytest.approx(0.025, abs=1e-12)
        assert cert.c_gamma == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert cert.lhs == pytest.approx(50000.0, rel=1e-12)
        assert cert.rhs < cert.lhs
        assert cert.valid

    def test_too_large_tau_invalid(self):
        params = PdParams(rho=8.409e-4, tau=1.0, theta=5e-2, max_iter=600)
        cert = certify_steps(params, benchmark_dp(4)[0])
        assert cert.lhs < 0 and not cert.valid

    def test_empirical_bound_is_much_sharper(self):
        dp, _ = benchmark_dp(4)
        params = PdParams(rho=8.409e-4, tau=5.0, theta=5e-2, max_iter=600)
        cert = certify_steps_empirical(params, dp)
        assert cert.smooth_bound < 1.0  # analytic bound is 4800
        assert cert.valid

    def test_driver_refuses_invalid_certificate(self):
        # tau above 1/s (s = 0.053 here) makes the condition's left side
        # negative
        dp, _ = benchmark_dp(4)
        params = PdParams(rho=8.409e-4, tau=100.0, theta=5e-2,
                          max_iter=600)
        with pytest.raises(ValueError, match="step-size"):
            PdDriver(dp, params)

    def test_driver_makes_the_empirical_certificate(self):
        dp, _ = benchmark_dp(4, "bottom_left")
        params = PdParams(rho=8.409e-4, tau=5.0, theta=5e-2, max_iter=600)
        cert = PdDriver(dp, params).certificate
        ref = certify_steps_empirical(params, dp)
        for f in dataclasses.fields(ref):
            assert getattr(cert, f.name) == getattr(ref, f.name), f.name


class TestSmoothOperatorNorm:
    def test_matches_dense_eigenvalue(self):
        # the operator column by column; it is self-adjoint in the lumped
        # product, so W^(1/2) T W^(-1/2) is symmetric with the same spectrum
        dp, _ = benchmark_dp(4)
        nodes = dp.gamma_nodes
        T = np.column_stack([
            dp.solve_gamma_loaded(dp.solve_source_part(e)[nodes])
            for e in np.eye(dp.mesh.n_vertices)])
        sw = np.sqrt(dp.w)
        sym = sw[:, None] * T / sw[None, :]
        assert np.allclose(sym, sym.T, rtol=0, atol=1e-9 * np.abs(sym).max())
        ref = np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1]
        exact = smooth_operator_norm(dp)
        assert exact >= ref
        assert exact == pytest.approx(ref, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(),
           st.booleans(), st.sampled_from([("bottom",), ("bottom", "left")]))
    def test_bound_is_certified_and_sharp(self, level, seed, reaction,
                                          boundary_term, gamma):
        # s is admitted by the Cholesky factorization it is certified with,
        # lies above the dense largest eigenvalue and within 1e-10 of it
        dp, _ = random_dp(level, seed, reaction, boundary_term, gamma)
        K = smooth_operator_matrix(dp)
        s = smooth_operator_norm(dp)
        np.linalg.cholesky(s * np.eye(K.shape[0]) - K)
        lam = scipy.linalg.eigh(K, eigvals_only=True)[-1]
        assert lam <= s <= lam * (1.0 + 1e-10)

    @pytest.mark.parametrize("level, gamma_case", [
        (4, "bottom"), (32, "bottom_left"), (64, "bottom")])
    def test_matrix_is_exactly_symmetric(self, level, gamma_case):
        # G^T W G sums exactly symmetric syrk products over row chunks (three
        # at level 32, nine at level 64); the congruence by R is symmetrized
        dp, _ = benchmark_dp(level, gamma_case)
        K = smooth_operator_matrix(dp)
        assert np.array_equal(K, K.T)

    def test_widens_and_bisects_past_a_low_rayleigh_quotient(self,
                                                             monkeypatch):
        # with lambda_2 / lambda_1 = 0.999, 64 power steps leave the
        # Rayleigh quotient about 5e-4 below lambda_max = 1: the gap
        # doubles past it, and the bisection brings the bound back
        K = np.diag([1.0, 0.999])
        monkeypatch.setattr(primal_dual, "smooth_operator_matrix",
                            lambda dp: K)
        s = smooth_operator_norm(None)
        np.linalg.cholesky(s * np.eye(2) - K)
        assert 1.0 <= s <= 1.0 + 1e-10

    def test_nan_matrix_is_refused(self, monkeypatch):
        # no mu would ever be admitted, so the widening would not end
        K = np.eye(3)
        K[2, 0] = K[0, 2] = np.nan
        monkeypatch.setattr(primal_dual, "smooth_operator_matrix",
                            lambda dp: K)
        with pytest.raises(ValueError, match="Rayleigh quotient nan"):
            smooth_operator_norm(None)


@pytest.mark.parametrize("level", [4, 8])
def test_certificate_grad_norm_bounds_dense_eigenvalue(level):
    # the certificate's gradient norm is a bound: its square is at least
    # the largest eigenvalue of the unit stiffness in the lumped metric
    dp, _ = benchmark_dp(level)
    params = PdParams(rho=8.409e-4, tau=5.0, theta=5e-2, max_iter=600)
    cert = PdDriver(dp, params).certificate
    K_unit = assemble_stiffness(dp.mesh, unit_coefficients(dp.mesh))
    lam = scipy.linalg.eigh(dense(K_unit), np.diag(dp.w),
                            eigvals_only=True)[-1]
    assert cert.grad_norm**2 >= lam


def test_params_validation():
    valid = dict(rho=0.5, tau=5.0, theta=5e-2, max_iter=600)
    for bad in ({"rho": 0.0}, {"rho": 1.0}, {"tau": -1.0}, {"theta": 0.0},
                {"max_iter": 0}):
        with pytest.raises(ValueError):
            PdParams(**{**valid, **bad})
    # ExperimentConfig is the one home of the defaults
    with pytest.raises(TypeError):
        PdParams(rho=0.5)


def test_stopping_offsets_reference_values():
    params = PdParams(rho=0.5, tau=5.0, theta=5e-2, max_iter=600)
    h4 = math.sqrt(8.0) / 4.0
    t1, t2 = params.stopping_offsets(h4)
    assert t1 == pytest.approx(8.409e-6, rel=1e-4)
    assert t2 == pytest.approx(8.409e-5, rel=1e-4)


@pytest.fixture(scope="module")
def driver2():
    """Small driver on the level-2 benchmark problem."""
    prob, _ = build_benchmark_problem(2)
    dp = DiscreteProblem(prob, cg_tol=1e-13)
    return PdDriver(dp, PdParams(rho=1e-3, tau=0.7, theta=5e-2,
                                 max_iter=600))


def _lumped_norm(dp, u) -> float:
    """The norm sqrt(sum w u^2) of the proximal steps' inner product."""
    return math.sqrt(dp.lumped_inner(u, u))


def _quadratic_argmin_on_interval(obj, lo, hi):
    """Exact minimizer of a 1d quadratic over [lo, hi], via interpolation."""
    samples = np.array([lo, 0.5 * (lo + hi), hi])
    coef = np.polyfit(samples, [obj(s) for s in samples], 2)
    candidates = [lo, hi]
    if coef[0] > 0:
        candidates.append(float(np.clip(-coef[1] / (2 * coef[0]), lo, hi)))
    return min((obj(c), c) for c in candidates)[1]


def test_primal_step_matches_separable_oracle(driver2, rng):
    dp, params = driver2.dp, driver2.params
    lo, hi = driver2.box
    for _ in range(5):
        f = rng.uniform(lo, hi, dp.mesh.n_vertices)
        p = rng.uniform(-1, 1, (dp.mesh.n_triangles, 2))
        u_a = 0.1 * rng.standard_normal(dp.mesh.n_vertices)
        step = driver2.primal_step(f, driver2.grid.to_grid(p), u_a)
        d = div_adjoint(dp.mesh, p)
        for i in range(dp.mesh.n_vertices):
            def node_obj(v):
                return (dp.w[i] * u_a[i] * v + params.rho * d[i] * v
                        + dp.w[i] / (2 * params.tau) * (v - f[i]) ** 2)
            best = _quadratic_argmin_on_interval(node_obj, lo, hi)
            assert abs(step[i] - best) <= 1e-10


def test_dual_step_matches_separable_oracle(driver2, rng):
    dp, params = driver2.dp, driver2.params
    grid = driver2.grid
    for _ in range(5):
        f_tilde = rng.standard_normal(dp.mesh.n_vertices)
        p = rng.uniform(-1, 1, (dp.mesh.n_triangles, 2))
        step = grid.from_grid(driver2.dual_step(grid.to_grid(p), f_tilde))
        g = elem_gradient(dp.mesh, f_tilde)
        areas, _ = triangle_geometry(dp.mesh)
        for t in range(dp.mesh.n_triangles):
            for j in (0, 1):
                def comp_obj(q):  # negated concave objective
                    return -(params.rho * areas[t] * g[t, j] * q
                             - params.theta / (2 * params.tau)
                             * areas[t] * (q - p[t, j]) ** 2)
                best = _quadratic_argmin_on_interval(comp_obj, -1.0, 1.0)
                assert abs(step[t, j] - best) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 8, 16]),
       st.sampled_from([(-1.0, 3.0), (0.0, 3.0)]), st.floats(0.5, 8.0),
       st.integers(0, 2**32 - 1))
def test_folded_steps_match_textbook_steps(level, box, tau, seed):
    # the steps with the constants folded into the driver's tables equal
    # the textbook updates up to rounding in each of their terms
    dp, _ = benchmark_dp(level, box=box)
    rho = ExperimentConfig().level_params(dp.mesh.mesh_size).rho
    driver = PdDriver(dp, PdParams(rho=rho, tau=tau, theta=5e-2,
                                   max_iter=1))
    mesh, w, (lo, hi) = dp.mesh, dp.w, box
    rng = np.random.default_rng(seed)
    f = rng.uniform(lo, hi, mesh.n_vertices)
    f_tilde = rng.uniform(2 * lo - hi, 2 * hi - lo, mesh.n_vertices)
    p = rng.uniform(-1.0, 1.0, (mesh.n_triangles, 2))
    u_a = 1e-3 * rng.standard_normal(mesh.n_vertices)
    sigma = tau * rho / 5e-2

    textbook = np.clip(f - tau * (u_a - rho * div_rep(driver, p)), lo, hi)
    nodes, coefs, areas = gradient_terms(mesh)
    abs_div = np.bincount(nodes.ravel(), (np.abs(coefs) * areas
                                          * np.abs(p).ravel()).ravel(),
                          mesh.n_vertices)
    scale = np.abs(f) + tau * np.abs(u_a) + tau * rho * abs_div / w
    grid = driver.grid
    assert np.all(np.abs(driver.primal_step(f, grid.to_grid(p), u_a)
                         - textbook) <= 1e-13 * scale)

    textbook = np.clip(p + sigma * elem_gradient(mesh, f_tilde), -1.0, 1.0)
    abs_grad = (np.abs(coefs) * np.abs(f_tilde)[nodes]).sum(axis=0)
    scale = np.abs(p) + sigma * abs_grad.reshape(p.shape)
    step = grid.from_grid(driver.dual_step(grid.to_grid(p), f_tilde))
    assert np.all(np.abs(step - textbook) <= 1e-13 * scale)

    # and the stopping norm, the lumped norm of the residual over tau
    residual = f - f_tilde
    _, g_norm = driver.stopping_value(residual)
    assert g_norm == pytest.approx(_lumped_norm(dp, residual / tau),
                                   rel=1e-13)


def test_stopping_value_negative_at_fixed_point(driver2, rng):
    dp = driver2.dp
    lo, hi = driver2.box
    f = rng.uniform(lo + 0.2, hi - 0.2, dp.mesh.n_vertices)
    p = rng.uniform(-1, 1, (dp.mesh.n_triangles, 2))
    u_a = driver2.params.rho * div_rep(driver2, p)  # balances the dual pull
    f_next = driver2.primal_step(f, driver2.grid.to_grid(p), u_a)
    assert np.max(np.abs(f - f_next)) / driver2.params.tau <= 1e-12
    value, g0_norm = driver2.stopping_value(f - f_next, g0_norm=1.0)
    assert value < 0.0 and g0_norm == 1.0
    # without a first-iterate norm, this iterate's residual norm is used
    _, g0_norm = driver2.stopping_value(f - f_next)
    assert g0_norm <= 1e-12


class TestBNorm:
    def test_zero_difference(self, driver2):
        dp = driver2.dp
        assert driver2.b_norm_sq(np.zeros(dp.mesh.n_vertices),
                                 np.zeros((dp.mesh.n_triangles, 2))) == 0.0

    def test_pure_dual_block(self, rng):
        # the grid's one area gives the bits of the (n_t, 2) broadcast of
        # the vertex areas, which are exact at these levels;
        # level 64 builds its own problem, whose boundary map this driver
        # compresses, so that the cached one stays dense
        params = PdParams(rho=1e-3, tau=1e-4, theta=5e-2, max_iter=600)
        for level in (4, 16, 64):
            dp, _ = benchmark_dp(level)
            if level == 64:
                dp = DiscreteProblem(dp.prob, cg_tol=dp.cg_tol)
            driver = PdDriver(dp, params)
            areas, _ = triangle_geometry(dp.mesh)
            for scale in (1e-6, 1.0, 1e6):
                delta_p = scale * rng.standard_normal((dp.mesh.n_triangles,
                                                       2))
                expected = params.theta / params.tau * float(
                    np.sum(areas[:, None] * delta_p**2))
                assert driver.b_norm_sq(np.zeros(dp.mesh.n_vertices),
                                        delta_p) == expected

    def test_matches_two_solve_form(self, driver2, rng):
        # the smooth term read through the boundary map equals the source
        # difference paired with the adjoint of its state, two full solves
        dp, params = driver2.dp, driver2.params
        areas, _ = triangle_geometry(dp.mesh)
        for _ in range(5):
            df = rng.standard_normal(dp.mesh.n_vertices)
            dpv = rng.standard_normal((dp.mesh.n_triangles, 2))
            t_smooth = dp.lumped_inner(df, dp.solve_gamma_loaded(
                dp.solve_source_part(df)[dp.gamma_nodes]))
            expected = (dp.lumped_inner(df, df) / params.tau - t_smooth
                        - 2.0 * params.rho * gradient_pairing(dp.mesh, df,
                                                              dpv)
                        + params.theta / params.tau * float(
                            np.sum(areas[:, None] * dpv**2)))
            assert driver2.b_norm_sq(df, dpv) == pytest.approx(expected,
                                                               rel=1e-10)

    def test_positive_on_random_differences(self, driver2, rng):
        dp = driver2.dp
        for _ in range(20):
            df = rng.standard_normal(dp.mesh.n_vertices)
            dpv = rng.standard_normal((dp.mesh.n_triangles, 2))
            assert driver2.b_norm_sq(df, dpv) > 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(),
       st.booleans(), st.sampled_from([("bottom",), ("bottom", "left")]),
       st.floats(1e-3, 0.9), st.floats(0.05, 0.99))
def test_b_norm_nonnegative_under_valid_certificate(level, seed, reaction,
                                                    boundary_term, gamma,
                                                    rho, fraction):
    # random SPD coefficients, with tau a fraction of the largest step the
    # empirical certificate admits: b_norm_sq, which raises on a negative
    # value, stays positive on random iterate differences of any balance
    dp, rng = random_dp(level, seed, reaction, boundary_term, gamma)
    theta = 5e-2
    probe = certify_steps_empirical(
        PdParams(rho=rho, tau=1.0, theta=theta, max_iter=600), dp)
    s, g = probe.smooth_bound, probe.grad_norm
    # 1/tau at which (1/tau - s) * theta / tau equals rho^2 g^2
    inv_tau = 0.5 * (s + math.sqrt(s**2 + 4.0 * rho**2 * g**2 / theta))
    driver = PdDriver(dp, PdParams(rho=rho, tau=fraction / inv_tau,
                                   theta=theta, max_iter=600))
    for _ in range(5):
        df = rng.standard_normal(dp.mesh.n_vertices)
        dpv = rng.standard_normal((dp.mesh.n_triangles, 2))
        assert driver.b_norm_sq(df, dpv * 10.0 ** rng.uniform(-3, 3)) > 0.0


def _short_run(level=4, max_iter=60, tau=5.0, on_iteration=None):
    dp, f_truth = benchmark_dp(level)
    z = synthesize_observation(dp, f_truth, 0.0, 0)
    params = PdParams(
        rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho, tau=tau,
        theta=5e-2, max_iter=max_iter)
    f0, p0 = compatible_start(dp)
    driver = PdDriver(dp, params)
    state = driver.run(z, f0=f0, p0=p0, on_iteration=on_iteration)
    return driver, state, z, f0, p0


def _misfits_and_stops(dp, z, calls):
    """Each iterate's data misfit, from its trace, and its stopping value,
    from the argument tuples of the ``on_iteration`` calls of a run."""
    return ([pde_solvers.misfit(dp, u_gamma, z)
             for *_, u_gamma, _, _ in calls], [stop for *_, stop in calls])


def test_default_start_is_compatible_start():
    dp, f_truth = benchmark_dp(4)
    z = synthesize_observation(dp, f_truth, 0.0, 0)
    params = PdParams(rho=8.409e-4, tau=5.0, theta=5e-2, max_iter=5)
    f0, p0 = compatible_start(dp)
    calls, ref_calls = [], []
    from_default = run(dp, z, params, on_iteration=lambda *a: calls.append(a))
    from_compatible = run(dp, z, params, f0=f0, p0=p0,
                          on_iteration=lambda *a: ref_calls.append(a))
    assert np.array_equal(from_default.f, from_compatible.f)
    assert np.array_equal(from_default.p, from_compatible.p)
    assert (_misfits_and_stops(dp, z, calls)
            == _misfits_and_stops(dp, z, ref_calls))
    assert from_default.objective == from_compatible.objective


def test_run_descends_and_stays_feasible():
    calls = []
    driver, state, z, f0, _ = _short_run(
        on_iteration=lambda *args: calls.append(args))
    misfits, stops = _misfits_and_stops(driver.dp, z, calls)
    lo, hi = driver.box
    assert np.all(state.f >= lo) and np.all(state.f <= hi)
    assert np.max(np.abs(state.p)) <= 1.0
    assert stops[0] > 0.0 and state.final_tolerance == stops[-1]
    assert state.objective == driver.objective(state.f, misfits[-1])
    assert state.objective <= driver.objective(np.clip(f0, lo, hi),
                                               misfits[0])
    assert len(misfits) == len(stops) == state.n + 1


@pytest.mark.parametrize("max_iter, stopped", [(5000, True), (600, False)])
def test_stopped_by_tolerance_reads_the_last_stopping_value(max_iter,
                                                            stopped):
    # the level-4 benchmark run meets the stopping rule after about 2,900
    # iterations: not within the default 600
    config = ExperimentConfig(levels=(4,), max_iter=max_iter)
    dp, f_truth, params = config.setup_level(4)
    theta_l = config.noise_coef * dp.mesh.mesh_size * math.sqrt(params.rho)
    z = synthesize_observation(dp, f_truth, theta_l, [config.seed, 4])
    state = PdDriver(dp, params).run(z)
    assert state.stopped_by_tolerance is stopped
    assert (state.final_tolerance <= 0.0) is stopped
    assert (state.n < max_iter) is stopped


def test_adjoint_identity_along_iterations(rng):
    # the gradient identity holds at every visited iterate
    dp, f_truth = benchmark_dp(4)
    z = synthesize_observation(dp, f_truth, 0.0, 0)
    params = PdParams(
        rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho, tau=5.0,
        theta=5e-2, max_iter=20)
    driver = PdDriver(dp, params)
    xi = rng.standard_normal(dp.mesh.n_vertices)
    m_u_bar = dp.M_gamma @ dp.solve_source_part(xi)[dp.gamma_nodes]

    def check(n, f, p, u_gamma, u_a, stop):
        lhs = float((u_gamma - z.values) @ m_u_bar)
        rhs = dp.lumped_inner(xi, u_a)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-12)
        assert np.all(f >= driver.box[0]) and np.all(f <= driver.box[1])
        assert np.max(np.abs(p)) <= 1.0

    state = driver.run(z, on_iteration=check)
    assert state.n == 20


def test_run_caches_only_the_grid_on_the_mesh():
    # a mesh holds its level and box and what it derives from them: the
    # problem's assembly builds its arrays and its cell grid, whose
    # geometry it reads; the loop's kernels, the B-norm and the objective
    # read the same grid, which the driver takes from the mesh, and the
    # run adds nothing to the mesh
    prob, f_truth = build_benchmark_problem(8)
    fields = {f.name for f in dataclasses.fields(prob.mesh)}
    assert fields == {"level", "box"}
    assert set(vars(prob.mesh)) <= fields | MESH_CACHES
    dp = DiscreteProblem(prob)
    params = ExperimentConfig(max_iter=3).level_params(dp.mesh.mesh_size)
    assert set(vars(dp.mesh)) == fields | MESH_CACHES
    driver = PdDriver(dp, params)
    hook, norms = b_norm_hook(driver)
    driver.run(synthesize_observation(dp, f_truth, 0.0, 0), on_iteration=hook)
    assert len(norms) == 3
    assert set(vars(dp.mesh)) == fields | MESH_CACHES
    assert driver.grid is dp.mesh.grid
    # releasing the level's loop arrays frees the boundary map only
    dp.release_loop_arrays()
    assert "boundary_map" not in vars(dp)
    assert driver.grid is dp.mesh.grid


def test_run_factors_nothing_after_set_up(monkeypatch):
    # building the driver certifies its steps, which builds the boundary
    # map from the level's one factorization; the run, its B-norm checks
    # and its final trace need no other, and the trace it keeps is that of
    # a full state solve at its last iterate
    prob, f_truth = build_benchmark_problem(8, "bottom_left")
    dp = DiscreteProblem(prob)
    params = ExperimentConfig(max_iter=30).level_params(dp.mesh.mesh_size)
    driver = PdDriver(dp, params)
    z = synthesize_observation(dp, f_truth, 1e-2, 3)
    traces = []
    b_norms, norms = b_norm_hook(driver)

    def hook(n, f, p, u_gamma, u_a, stop):
        traces.append(u_gamma)
        b_norms(n, f, p, u_gamma, u_a, stop)

    def no_factor(*args, **kwargs):
        raise AssertionError("A was factored after the driver was built")

    monkeypatch.setattr(pde_solvers, "BlockTridiagonalFactor", no_factor)
    state = driver.run(z, on_iteration=hook)
    monkeypatch.undo()
    assert state.n == 30 and not hasattr(state, "u") and len(norms) == 30
    assert all(t.shape == dp.gamma_nodes.shape for t in traces)
    assert state.u_gamma is traces[-1]
    u_gamma = dp.solve_state(state.f)[dp.gamma_nodes]
    assert (np.linalg.norm(state.u_gamma - u_gamma)
            <= 1e-10 * np.linalg.norm(u_gamma))


def test_desk_levels_and_short_runs_call_no_svd(monkeypatch):
    # the driver compresses G only when it is larger than 2 MiB and the
    # run may make at least 2m iterations: every desk level, and every run
    # of fewer than 2m iterations, such as a set-up run's one, keeps one
    # dense strip, whose products are G's own gemvs, and makes no SVD
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    cases = [(level, gamma_case, 600) for level in (4, 8, 16, 32)
             for gamma_case in ("bottom", "bottom_left")]
    cases += [(64, "bottom", 1), (64, "bottom", 129), (64, "bottom_left", 257)]
    for level, gamma_case, max_iter in cases:
        dp = DiscreteProblem(build_benchmark_problem(level, gamma_case)[0])
        PdDriver(dp, ExperimentConfig(max_iter=max_iter).level_params(
            dp.mesh.mesh_size))
        bmap = dp.boundary_map
        assert not bmap.factors and bmap.dense.shape == bmap.shape
        assert bmap.matvec.__self__ is bmap.dense


def test_run_b_norms_monotone():
    dp, _ = benchmark_dp(4)
    params = PdParams(
        rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho, tau=5.0,
        theta=5e-2, max_iter=60)
    hook, norms = b_norm_hook(PdDriver(dp, params))
    driver, state, z, f0, p0 = _short_run(on_iteration=hook)
    bn = np.array(norms)
    assert len(bn) >= 50
    assert np.all(bn[1:] <= bn[:-1] * (1.0 + 1e-8))
    # decay consistent with the summability estimate
    total = driver.b_norm_sq(state.f - f0, state.p - p0)
    assert bn.sum() <= 1.1 * total


def test_run_raises_when_dual_leaves_ball(monkeypatch):
    # an explicit check, not an assert, so it also holds under python -O
    dp, f_truth = benchmark_dp(4)
    z = synthesize_observation(dp, f_truth, 0.0, 0)
    params = PdParams(
        rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho, tau=5.0,
        theta=5e-2, max_iter=5)
    driver = PdDriver(dp, params)
    # a projection that overshoots on both sides, and one that only goes
    # below -1, which a one-sided check would let through
    for spoiled in (lambda q: 1.5 * q, lambda q: q - 1.0):
        monkeypatch.setattr(primal_dual, "project_dual_ball", spoiled)
        with pytest.raises(RuntimeError,
                           match="dual iterate left the unit ball"):
            driver.run(z)


def test_run_raises_when_primal_iterate_leaves_the_box():
    # after the clip only a NaN leaves the box; the check reads it from the
    # step's stopping value, before the dual step
    driver, _, z, f0, p0 = _short_run()
    primal_step, dual_steps = driver.primal_step, []

    def nan_step(f, p, u_a):
        out = primal_step(f, p, u_a)
        out[3] = np.nan
        return out

    driver.primal_step = nan_step
    driver.dual_step = lambda *args: dual_steps.append(args)
    with pytest.raises(RuntimeError,
                       match="primal iterate left the box at iteration 1"):
        driver.run(z, f0, p0)
    assert dual_steps == []


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from([4, 8]),
       st.sampled_from([(-1.0, 3.0), (0.0, 3.0)]), st.integers(20, 40),
       st.floats(0.5, 12.0), st.integers(0, 3))
@example(data=None, level=32, box=(0.0, 3.0), max_iter=20, tau=5.0, seed=1)
@example(data=None, level=64, box=(-1.0, 3.0), max_iter=20, tau=5.0, seed=2)
@example(data=None, level=64, box=(-1.0, 3.0), max_iter=130, tau=5.0, seed=3)
def test_run_is_bit_identical_to_reference_loop(data, level, box, max_iter,
                                                tau, seed):
    # the in-place loop, with the objective at its last iterate only,
    # visits the bits of the loop written one expression per update, with
    # the @ operator, Python-float scalars and the stencil kernels written
    # as shifted slices of the node grid; -0.0 entries in the start meet
    # the zero bound of the box (0, 3).  The loop on the mesh's gradient
    # table, which sums the divergence in another order, ends within
    # 1e-12.  The fixed level-32 example, where the grid kernels pay, and
    # the level-64 one, whose G products run other BLAS kernel sizes, draw
    # their start from numpy, as hypothesis passes no data() to an
    # explicit example.  At level 64 a run of 2m = 130 iterations compresses
    # the boundary map: the reference reads the same strips, and the run
    # ends within 1e-12 of the loop on the dense G.  Level 64 builds its
    # own problem, so that the cached one stays dense
    dp, f_truth = benchmark_dp(level, box=box)
    if level == 64:
        dp = DiscreteProblem(dp.prob, cg_tol=dp.cg_tol)
        G = dp.boundary_map.dense.copy()
    z = synthesize_observation(dp, f_truth, 1e-2, seed)
    rho = ExperimentConfig().level_params(dp.mesh.mesh_size).rho
    driver = PdDriver(dp, PdParams(rho=rho, tau=tau, theta=5e-2,
                                   max_iter=max_iter))
    n, nt = dp.mesh.n_vertices, dp.mesh.n_triangles
    if data is None:
        rng = np.random.default_rng(seed)
        f0, p0 = rng.uniform(*box, n), rng.uniform(-1, 1, (nt, 2))
        f0[rng.random(n) < 0.25] = p0[rng.random((nt, 2)) < 0.25] = -0.0
        u_a = rng.uniform(-1, 1, n)
    else:
        f0 = data.draw(arrays(np.float64, n, elements=st.floats(*box)))
        f0[data.draw(arrays(bool, n))] = -0.0
        p0 = data.draw(arrays(np.float64, (nt, 2),
                              elements=st.floats(-1, 1)))
        p0[data.draw(arrays(bool, (nt, 2)))] = -0.0
        u_a = data.draw(arrays(np.float64, n, elements=st.floats(-1, 1)))
    to_grid = driver.grid.to_grid
    assert (driver.primal_step(f0, to_grid(p0), u_a).tobytes()
            == reference_primal_step(driver, f0, p0, u_a).tobytes())
    # with no adjoint and no dual pull the step is f - 0.0 - 0.0, which
    # keeps -0.0, and so does the clip at a zero bound
    zeros = np.zeros(n)
    step = driver.primal_step(f0, to_grid(0.0 * p0), zeros)
    assert (step.tobytes()
            == reference_primal_step(driver, f0, 0.0 * p0, zeros).tobytes())
    assert step.tobytes() == np.clip(f0, *box).tobytes()

    visited, hook_objectives, hook_misfits, stops = [], [], [], []

    def hook(n, f, p, u_gamma, u_a, stop):
        visited.append((f, p))
        hook_misfits.append(pde_solvers.misfit(dp, u_gamma, z))
        hook_objectives.append(driver.objective(f, hook_misfits[-1]))
        stops.append(stop)

    state = driver.run(z, f0, p0, on_iteration=hook)
    iterates, misfits, tolerances, objectives = reference_run(
        driver, z, f0, p0)
    assert len(visited) == len(iterates) == state.n + 1
    # the objective at every iterate, as a hook computes it
    assert _bytes(hook_objectives) == _bytes(objectives)
    for (f, p), (f_ref, p_ref) in zip(visited, iterates):
        assert f.tobytes() == f_ref.tobytes()
        assert p.tobytes() == p_ref.tobytes()
    assert state.f.tobytes() == iterates[-1][0].tobytes()
    assert state.p.tobytes() == iterates[-1][1].tobytes()
    # the hook's stopping values are the reference loop's tolerances
    assert _bytes(hook_misfits) == _bytes(misfits)
    assert _bytes(stops) == _bytes(tolerances)
    assert _bytes(state.final_tolerance) == _bytes(tolerances[-1])
    assert _bytes(state.objective) == _bytes(objectives[-1])
    table_iterates = reference_run(driver, z, f0, p0, tables=True)[0]
    assert len(table_iterates) == len(iterates)
    for got, want in zip(iterates[-1], table_iterates[-1]):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert bool(dp.boundary_map.factors) == (level == 64 and max_iter >= 130)
    if dp.boundary_map.factors:
        dense_iterates = reference_run(driver, z, f0, p0, products=(
            lambda x: G.T @ x, lambda c: G @ c))[0]
        assert len(dense_iterates) == len(iterates)
        for got, want in zip(iterates[-1], dense_iterates[-1]):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class _FixedCount(PdParams):
    """PdParams whose stopping value never reaches 0: a run with them makes
    exactly max_iter iterations."""

    def stopping_offsets(self, h: float) -> tuple[float, float]:
        return -math.inf, 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.sampled_from(["bottom", "bottom_left"]),
       st.floats(-4.0, 2.0), st.floats(0.1, 6.0),
       st.sampled_from([0.5, 2.0, 4.0]), st.integers(0, 2**32 - 1))
def test_power_of_two_scaling_scales_every_iterate(level, gamma, lo, width,
                                                   c, seed):
    # scaling (flux, data, box, rho, theta) to (c flux, c data, c box,
    # c rho, c^2 theta) for a power of two c scales every iterate f and the
    # trace by c, bit for bit, keeps every p and scales the objective by
    # c^2.  The stopping offsets do not scale, so both runs make a fixed
    # number of iterations
    prob, _ = build_benchmark_problem(level, gamma)
    rng = np.random.default_rng(seed)
    flux = per_side(rng.standard_normal(4 * level))
    data = rng.standard_normal(
        prob.mesh.side_nodes(prob.gamma.sides).shape[0])
    rho = ExperimentConfig().level_params(prob.mesh.mesh_size).rho
    runs = []
    for k in (1.0, c):
        dp = DiscreteProblem(dataclasses.replace(
            prob, neumann=NeumannData(k * flux),
            box=(k * lo, k * (lo + width))))
        visited = []
        driver = PdDriver(dp, _FixedCount(k * rho, 2.0, k * k * 5e-2, 30))
        state = driver.run(Observation(dp.gamma_nodes, k * data),
                           on_iteration=lambda n, f, p, *_:
                           visited.append((f, p)))
        runs.append((visited, state))
    (iterates, state), (scaled, scaled_state) = runs
    assert len(iterates) == len(scaled) == 31
    for (f, p), (f_c, p_c) in zip(iterates, scaled):
        assert (c * f).tobytes() == f_c.tobytes()
        assert p.tobytes() == p_c.tobytes()
    assert (c * state.u_gamma).tobytes() == scaled_state.u_gamma.tobytes()
    assert c * c * state.objective == scaled_state.objective


def _transposition(level):
    """Where x <-> y takes the nodes, the triangles and the sides of a
    level-``level`` mesh, as index arrays, each its own inverse: node (ix,
    iy) to (iy, ix), the lower triangle of cell (ix, iy) to the upper one
    of cell (iy, ix) and back, and edge i of the bottom, top, left and
    right sides to edge i of the left, right, bottom and top ones (rows of
    (4, level) boundary data)."""
    n = level + 1
    cells = np.arange(level * level).reshape(level, level).T.ravel()
    return (np.arange(n * n).reshape(n, n).T.ravel(),
            (2 * cells[:, None] + [1, 0]).ravel(), [2, 3, 0, 1])


SIDE_TRANSPOSED = {"bottom": "left", "left": "bottom", "top": "right",
                   "right": "top"}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.sampled_from([("bottom",), ("bottom", "left")]),
       st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_transposition_maps_every_iterate(level, gamma, width, height,
                                          reaction, boundary_term, seed):
    # x <-> y maps the triangulation onto itself.  The problem on the
    # transposed box with alpha's diagonal swapped and beta, sigma, the
    # flux and the data mapped, observed on Gamma with bottom <-> left, is
    # the transposed problem: from the default start (p0 = 0.5 maps to
    # itself) each of its iterates is the mapped f and p, p's components
    # swapped.  Its boundary map is factored in another node order and its
    # steps read the spacings the other way round, so it agrees to the
    # run's rounding: the iteration is nonexpansive in the B-norm, so the
    # rounding of N steps adds up to at most N times one step's, and the
    # bound is 2^8 N eps of the box's scale (the largest of 3,000 random
    # draws reached 7 % of it)
    # a box holding 0, which the certificate needs
    box = ((-1.0, width), (-height, 1.0))
    dp, rng = random_dp(level, seed, reaction, boundary_term, gamma, box)
    nodes, triangles, sides = _transposition(level)
    prob, c = dp.prob, dp.prob.coeffs
    dp_t = DiscreteProblem(dataclasses.replace(
        prob, mesh=build_structured(level, box[::-1]),
        coeffs=CoefficientSet(c.alpha[triangles][:, ::-1, ::-1],
                              c.beta[triangles], c.sigma[sides],
                              c.alpha_lower),
        neumann=NeumannData(prob.neumann.values[sides]),
        gamma=GammaSpec(frozenset(SIDE_TRANSPOSED[s] for s in gamma))))
    # a step size the certificate admits with a margin of 4 on both
    # problems: 1/tau = 2 s + 2 rho |grad| / sqrt(theta)
    rho, theta, n_iter = 1e-3, 5e-2, 30
    tau = 1.0 / (2.0 * smooth_operator_norm(dp) + 2.0 * rho
                 * grad_operator_norm(dp.mesh.grid.inverse_spacing)
                 / math.sqrt(theta))
    data = rng.standard_normal(dp.mesh.n_vertices)  # read on Gamma only
    runs = []
    for problem, z in ((dp, data), (dp_t, data[nodes])):
        visited = []
        state = PdDriver(problem, _FixedCount(rho, tau, theta, n_iter)).run(
            Observation(problem.gamma_nodes, z[problem.gamma_nodes]),
            on_iteration=lambda n, f, p, *_: visited.append((f, p)))
        trace = np.zeros(problem.mesh.n_vertices)
        trace[problem.gamma_nodes] = state.u_gamma
        runs.append((visited, trace))
    (iterates, trace), (mapped, trace_t) = runs
    bound = 2.0**8 * n_iter * np.finfo(float).eps * np.max(np.abs(prob.box))
    assert len(iterates) == len(mapped) == n_iter + 1
    for (f, p), (f_t, p_t) in zip(iterates, mapped):
        assert np.max(np.abs(f_t - f[nodes])) <= bound
        assert np.max(np.abs(p_t - p[triangles][:, ::-1])) <= bound
    assert np.max(np.abs(trace_t - trace[nodes])) <= bound * max(
        1.0, np.max(np.abs(trace)))


SIDE_ROTATED = {"bottom": "top", "top": "bottom", "left": "right",
                "right": "left"}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.sampled_from([("bottom",), ("bottom", "left")]),
       st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_rotation_maps_every_iterate(level, gamma, width, height, reaction,
                                     boundary_term, seed):
    # the 180 degree rotation x -> -x maps the triangulation onto itself:
    # node v to n_vertices - 1 - v, triangle t to n_triangles - 1 - t (the
    # lower triangle of a cell to the upper one of the rotated cell), and
    # edge i of a side to edge level - 1 - i of the opposite side.  The
    # problem on the rotated box with alpha, beta, sigma, the flux and the
    # data mapped (alpha is invariant), observed on Gamma with bottom <->
    # top and left <-> right, is the rotated problem.  The gradient changes
    # sign, so from the rotated start, whose dual is negated (the default
    # p0 = 0.5 is not invariant), each of its iterates is the mapped f and
    # the mapped -p.  Its boundary map is factored in another node order,
    # so it agrees to the run's rounding, bounded as in the transposition:
    # 2^8 N eps of the box's scale (the largest of 3,000 random draws
    # reached 8 % of it)
    box = ((-1.0, width), (-height, 1.0))  # holding 0, as the certificate
    dp, rng = random_dp(level, seed, reaction, boundary_term, gamma, box)
    prob, c = dp.prob, dp.prob.coeffs
    opposite = [SIDE_TAGS.index(SIDE_ROTATED[s]) for s in SIDE_TAGS]
    dp_r = DiscreteProblem(dataclasses.replace(
        prob, mesh=build_structured(level, ((-width, 1.0), (-1.0, height))),
        coeffs=CoefficientSet(c.alpha[::-1], c.beta[::-1],
                              c.sigma[opposite, ::-1], c.alpha_lower),
        neumann=NeumannData(prob.neumann.values[opposite, ::-1]),
        gamma=GammaSpec(frozenset(SIDE_ROTATED[s] for s in gamma))))
    # the transposition's step size
    rho, theta, n_iter = 1e-3, 5e-2, 30
    tau = 1.0 / (2.0 * smooth_operator_norm(dp) + 2.0 * rho
                 * grad_operator_norm(dp.mesh.grid.inverse_spacing)
                 / math.sqrt(theta))
    f0, p0 = compatible_start(dp)
    data = rng.standard_normal(dp.mesh.n_vertices)  # read on Gamma only
    runs = []
    for problem, z, start in ((dp, data, (f0, p0)),
                              (dp_r, data[::-1], (f0[::-1], -p0[::-1]))):
        visited = []
        state = PdDriver(problem, _FixedCount(rho, tau, theta, n_iter)).run(
            Observation(problem.gamma_nodes, z[problem.gamma_nodes]),
            *start, on_iteration=lambda n, f, p, *_: visited.append((f, p)))
        trace = np.zeros(problem.mesh.n_vertices)
        trace[problem.gamma_nodes] = state.u_gamma
        runs.append((visited, trace))
    (iterates, trace), (mapped, trace_r) = runs
    bound = 2.0**8 * n_iter * np.finfo(float).eps * np.max(np.abs(prob.box))
    assert len(iterates) == len(mapped) == n_iter + 1
    for (f, p), (f_r, p_r) in zip(iterates, mapped):
        assert np.max(np.abs(f_r - f[::-1])) <= bound
        assert np.max(np.abs(p_r + p[::-1])) <= bound
    assert np.max(np.abs(trace_r - trace[::-1])) <= bound * max(
        1.0, np.max(np.abs(trace)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64).flatmap(
    lambda l: st.tuples(st.just(l), st.integers(2, 2 * l + 1))),
    st.integers(0, 2**32 - 1))
def test_dot_is_matmul_byte_for_byte(shape, seed):
    # the loop's products go through ndarray.dot, which calls the BLAS
    # kernels matmul does: G^T x and G y for a C-ordered G of a boundary
    # map's shape ((l+1)^2, m), M r for a square M and the 1-d products
    l, m = shape
    rng = np.random.default_rng(seed)
    G = rng.standard_normal(((l + 1) ** 2, m))
    x, y = rng.standard_normal(G.shape[0]), rng.standard_normal(m)
    M = G[:m]
    assert G.T.dot(x).tobytes() == (G.T @ x).tobytes()
    assert G.dot(y).tobytes() == (G @ y).tobytes()
    assert M.dot(y).tobytes() == (M @ y).tobytes()
    assert _bytes(x.dot(x)) == _bytes(x @ x)
    assert _bytes(y.dot(M.dot(y))) == _bytes(y @ (M @ y))


def test_run_with_nan_start_raises_before_a_step():
    driver, _, z, f0, p0 = _short_run()
    steps = []
    driver.primal_step = lambda *args: steps.append(args)
    f0 = f0.copy()
    f0[3] = np.nan
    with pytest.raises(ValueError, match="data misfit nan at iteration 0"):
        driver.run(z, f0, p0, on_iteration=lambda *args: steps.append(args))
    assert steps == []


def test_run_never_writes_to_a_handed_over_array():
    # a hook that keeps references sees the same bytes at the end of the
    # run as when it got them
    driver, _, z, f0, p0 = _short_run()
    kept = []
    driver.run(z, f0, p0, on_iteration=lambda n, f, p, u_gamma, u_a, stop:
               kept.extend((a, a.tobytes()) for a in (f, p, u_gamma, u_a)))
    assert len(kept) == 4 * 61
    assert all(a.tobytes() == b for a, b in kept)


def test_run_rejects_an_observation_of_other_nodes():
    # the iteration reads the data as one value per observed node: data on
    # the left side's nodes, or with a node or a value missing, is refused
    dp, f_truth = benchmark_dp(4)
    z = synthesize_observation(dp, f_truth, 0.0, 0)
    params = PdParams(
        rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho, tau=5.0,
        theta=5e-2, max_iter=5)
    left = dp.mesh.side_nodes(("left",))
    assert left.shape == z.nodes.shape and not np.array_equal(left, z.nodes)
    for bad in (Observation(left, z.values),
                Observation(z.nodes[:-1], z.values[:-1]),
                Observation(z.nodes, z.values[:-1])):
        with pytest.raises(ValueError, match="observed boundary nodes"):
            run(dp, bad, params)


def test_run_rejects_bad_rho():
    with pytest.raises(ValueError):
        PdParams(rho=0.0, tau=5.0, theta=5e-2, max_iter=600)


def test_variational_inequality_at_stop(rng):
    # at the stopped iterate the box part of the first-order condition
    # holds up to the projected-gradient residual, uniformly over samples
    driver, state, z, _, _ = _short_run(max_iter=400, tau=12.0)
    dp, params = driver.dp, driver.params
    u_a = dp.solve_adjoint(dp.solve_state(state.f)[dp.gamma_nodes], z)
    grid = driver.grid
    f_next = driver.primal_step(state.f, grid.to_grid(state.p), u_a)
    g_norm = _lumped_norm(dp, (state.f - f_next) / params.tau)
    d = div_adjoint(dp.mesh, state.p)
    lo, hi = driver.box
    for _ in range(200):
        g_test = rng.uniform(lo, hi, dp.mesh.n_vertices)
        diff = g_test - state.f
        value = (dp.lumped_inner(diff, u_a) + params.rho * float(d @ diff))
        slack = g_norm * (_lumped_norm(dp, diff) + params.tau * g_norm) * 1.01
        assert value >= -slack - 1e-12

    # dual side: feasible fields pair with the gradient below the value
    # attained by the current dual variable, up to one further dual step
    areas, _ = triangle_geometry(dp.mesh)

    def p0_norm(q):
        return math.sqrt(float(np.sum(areas[:, None] * q**2)))

    p_next = grid.from_grid(driver.dual_step(grid.to_grid(state.p), state.f))
    delta = p0_norm(p_next - state.p)
    grad_f = elem_gradient(dp.mesh, state.f)
    grad_norm = p0_norm(grad_f)
    for _ in range(200):
        q = rng.uniform(-1.0, 1.0, (dp.mesh.n_triangles, 2))
        pairing = float(np.sum(areas[:, None] * grad_f
                               * (q - state.p)))
        slack = delta * (params.theta / (params.tau * params.rho)
                         * p0_norm(q - p_next) + grad_norm) * 1.01
        assert pairing <= slack + 1e-12


class TestMultilevel:
    @staticmethod
    def _make_level(level, tau=5.0):
        dp, f_truth = benchmark_dp(level)
        z = synthesize_observation(dp, f_truth, 0.0, [0, level])
        params = PdParams(
            rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho,
            tau=tau, theta=5e-2, max_iter=25)
        return dp, z, params

    def test_levels_must_double_from_four(self):
        for levels in ([], [8, 16], [4, 12]):
            with pytest.raises(ValueError):
                next(multilevel_run(levels, self._make_level))

    def test_single_level_equals_plain_run(self):
        [level_run] = multilevel_run([4], self._make_level)
        state = run(*self._make_level(4))
        assert np.allclose(level_run.state.f, state.f, atol=1e-12)
        assert np.allclose(level_run.state.p, state.p, atol=1e-12)

    def test_level_releases_factor_and_boundary_map(self):
        # no factorization is cached; the boundary map is rebuilt on
        # demand, and kept it would add its memory to every later level's
        # peak.  The mesh caches only what it derives from its level and
        # box: its arrays and its cell grid, one index per entry of a dual
        # field
        for level_run in multilevel_run([4, 8], self._make_level):
            dp = level_run.problem
            assert not any(isinstance(v, pde_solvers.BlockTridiagonalFactor)
                           for v in vars(dp).values())
            assert "boundary_map" not in vars(dp)
            assert set(vars(dp.mesh)) == MESH_CACHES | {
                field.name for field in dataclasses.fields(dp.mesh)}

    def test_two_levels_couple_rho_and_warm_start(self):
        runs = list(multilevel_run([4, 8], self._make_level))
        assert runs[0].params.rho == pytest.approx(8.4090e-4, rel=1e-4)
        assert runs[1].params.rho == pytest.approx(5.9460e-4, rel=1e-4)
        assert runs[1].problem.mesh.level == 8

    def test_next_level_is_set_up_once_the_last_is_consumed(self):
        made = []

        def make_level(level):
            made.append(level)
            return self._make_level(level)

        levels = multilevel_run([4, 8], make_level)
        assert made == []
        assert next(levels).level == 4 and made == [4]
        assert next(levels).level == 8 and made == [4, 8]
        assert next(levels, None) is None

    @staticmethod
    def _levels_before_failure(levels, make_level):
        """The levels yielded before a MultilevelError, and the error."""
        done = []
        with pytest.raises(MultilevelError) as excinfo:
            for level_run in multilevel_run(levels, make_level):
                done.append(level_run.level)
        return done, excinfo.value

    def test_failure_follows_the_completed_levels(self):
        def flaky(level):
            if level == 8:
                raise RuntimeError("synthetic breakage")
            return self._make_level(level)

        done, exc = self._levels_before_failure([4, 8], flaky)
        assert done == [4] and exc.level == 8
        assert str(exc) == "level 8 failed: synthetic breakage"

    def test_invalid_certificate_fails_its_level(self):
        # tau 15 lies between the largest steps certified at level 8 (14.3)
        # and at level 4 (16.4)
        done, exc = self._levels_before_failure(
            [4, 8], lambda level: self._make_level(level, 15.0))
        assert done == [4] and exc.level == 8
        assert "step-size" in str(exc)
