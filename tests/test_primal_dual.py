import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvsource.experiment import (ExperimentConfig, build_benchmark_problem,
                                 synthesize_observation)
from tvsource.fem_assembly import div_adjoint, elem_gradient
from tvsource import pde_solvers, primal_dual
from tvsource.pde_solvers import DiscreteProblem, Observation
from tvsource.primal_dual import (MultilevelError, PdDriver, PdParams,
                                  certify_steps, certify_steps_empirical,
                                  coercivity_c1, compatible_start, extrapolate,
                                  multilevel_run, run, smooth_operator_norm,
                                  trace_constant)
from tvsource.sparse_linalg import weighted_power_iteration
from tvsource.tv_calculus import gradient_pairing

from conftest import benchmark_dp, random_dp


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
        params = PdParams(rho=8.409e-4, tau=2e-4, theta=5e-2)
        cert = certify_steps(params, benchmark_dp(4)[0])
        assert cert.c1 == pytest.approx(0.025, abs=1e-12)
        assert cert.c_gamma == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert cert.lhs == pytest.approx(50000.0, rel=1e-12)
        assert cert.rhs < cert.lhs
        assert cert.valid

    def test_too_large_tau_invalid(self):
        params = PdParams(rho=8.409e-4, tau=1.0, theta=5e-2)
        cert = certify_steps(params, benchmark_dp(4)[0])
        assert cert.lhs < 0 and not cert.valid

    def test_empirical_bound_is_much_sharper(self):
        dp, _ = benchmark_dp(4)
        params = PdParams(rho=8.409e-4, tau=5.0, theta=5e-2)
        cert = certify_steps_empirical(params, dp)
        assert cert.smooth_bound < 1.0  # analytic bound is 4800
        assert cert.valid

    def test_driver_refuses_invalid_certificate(self):
        dp, _ = benchmark_dp(4)
        params = PdParams(rho=8.409e-4, tau=1.0, theta=5e-2)
        with pytest.raises(ValueError, match="step-size"):
            PdDriver(dp, params)


class TestSmoothOperatorNorm:
    def test_matches_dense_eigenvalue(self):
        # the operator column by column; it is self-adjoint in the lumped
        # product, so W^(1/2) T W^(-1/2) is symmetric with the same spectrum
        dp, _ = benchmark_dp(4)
        T = np.column_stack([dp.solve_gamma_loaded(dp.solve_source_part(e))
                             for e in np.eye(dp.mesh.n_vertices)])
        sw = np.sqrt(dp.w)
        sym = sw[:, None] * T / sw[None, :]
        assert np.allclose(sym, sym.T, rtol=0, atol=1e-9 * np.abs(sym).max())
        ref = np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1]
        exact = smooth_operator_norm(dp)
        assert exact == pytest.approx(ref, rel=1e-10)
        # the power-iteration estimate it replaced is a Rayleigh quotient,
        # a value from below
        estimate = weighted_power_iteration(
            lambda v: dp.solve_gamma_loaded(dp.solve_source_part(v)),
            dp.w, 20240901, 1e-3, 200)
        assert exact >= estimate


def test_params_validation():
    with pytest.raises(ValueError):
        PdParams(rho=0.0)
    with pytest.raises(ValueError):
        PdParams(rho=1.0)
    with pytest.raises(ValueError):
        PdParams(rho=0.5, tau=-1.0)
    with pytest.raises(ValueError):
        PdParams(rho=0.5, max_iter=0)


def test_stopping_offsets_reference_values():
    params = PdParams(rho=0.5)
    h4 = math.sqrt(8.0) / 4.0
    t1, t2 = params.stopping_offsets(h4)
    assert t1 == pytest.approx(8.409e-6, rel=1e-4)
    assert t2 == pytest.approx(8.409e-5, rel=1e-4)


def test_extrapolate(rng):
    f_old = rng.standard_normal(10)
    assert np.array_equal(extrapolate(f_old, f_old), f_old)
    assert np.array_equal(extrapolate(np.ones(3), np.zeros(3)), 2.0 * np.ones(3))
    f_new = rng.standard_normal(10)
    assert np.allclose(extrapolate(f_new, f_old), 2 * f_new - f_old)


@pytest.fixture(scope="module")
def driver2():
    """Small driver on the level-2 benchmark problem."""
    prob, _ = build_benchmark_problem(2)
    dp = DiscreteProblem(prob, cg_tol=1e-13)
    params = PdParams(rho=1e-3, tau=0.7, theta=5e-2)
    cert = certify_steps_empirical(params, dp)
    return PdDriver(dp, params, certificate=cert)


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
        step = driver2.primal_step(f, p, u_a)
        d = div_adjoint(dp.mesh, p)
        for i in range(dp.mesh.n_vertices):
            def node_obj(v):
                return (dp.w[i] * u_a[i] * v + params.rho * d[i] * v
                        + dp.w[i] / (2 * params.tau) * (v - f[i]) ** 2)
            best = _quadratic_argmin_on_interval(node_obj, lo, hi)
            assert abs(step[i] - best) <= 1e-10


def test_dual_step_matches_separable_oracle(driver2, rng):
    dp, params = driver2.dp, driver2.params
    for _ in range(5):
        f_tilde = rng.standard_normal(dp.mesh.n_vertices)
        p = rng.uniform(-1, 1, (dp.mesh.n_triangles, 2))
        step = driver2.dual_step(p, f_tilde)
        g = elem_gradient(dp.mesh, f_tilde)
        for t in range(dp.mesh.n_triangles):
            for j in (0, 1):
                def comp_obj(q):  # negated concave objective
                    return -(params.rho * dp.mesh.areas[t] * g[t, j] * q
                             - params.theta / (2 * params.tau)
                             * dp.mesh.areas[t] * (q - p[t, j]) ** 2)
                best = _quadratic_argmin_on_interval(comp_obj, -1.0, 1.0)
                assert abs(step[t, j] - best) <= 1e-10


def test_stopping_value_negative_at_fixed_point(driver2, rng):
    dp = driver2.dp
    lo, hi = driver2.box
    f = rng.uniform(lo + 0.2, hi - 0.2, dp.mesh.n_vertices)
    p = rng.uniform(-1, 1, (dp.mesh.n_triangles, 2))
    u_a = driver2.params.rho * driver2.div_rep(p)  # balances the dual pull
    f_next = driver2.primal_step(f, p, u_a)
    assert np.max(np.abs(f - f_next)) / driver2.params.tau <= 1e-12
    value, g0_norm = driver2.stopping_value(f, f_next, g0_norm=1.0)
    assert value < 0.0 and g0_norm == 1.0
    # without a first-iterate norm, this iterate's residual norm is used
    _, g0_norm = driver2.stopping_value(f, f_next)
    assert g0_norm <= 1e-12


class TestBNorm:
    def test_zero_difference(self, driver2):
        dp = driver2.dp
        assert driver2.b_norm_sq(np.zeros(dp.mesh.n_vertices),
                                 np.zeros((dp.mesh.n_triangles, 2))) == 0.0

    def test_pure_dual_block(self, rng):
        # the flat area weights give the bits of the (n_t, 2) broadcast
        params = PdParams(rho=1e-3, tau=1e-4)
        for level in (4, 16, 64):
            dp, _ = benchmark_dp(level)
            driver = PdDriver(dp, params)
            for scale in (1e-6, 1.0, 1e6):
                delta_p = scale * rng.standard_normal((dp.mesh.n_triangles,
                                                       2))
                expected = params.theta / params.tau * float(
                    np.sum(dp.mesh.areas[:, None] * delta_p**2))
                assert driver.b_norm_sq(np.zeros(dp.mesh.n_vertices),
                                        delta_p) == expected

    def test_matches_two_solve_form(self, driver2, rng):
        # the smooth term read through the boundary map equals the source
        # difference paired with the adjoint of its state, two full solves
        dp, params = driver2.dp, driver2.params
        for _ in range(5):
            df = rng.standard_normal(dp.mesh.n_vertices)
            dpv = rng.standard_normal((dp.mesh.n_triangles, 2))
            t_smooth = dp.lumped_inner(
                df, dp.solve_gamma_loaded(dp.solve_source_part(df)))
            expected = (dp.lumped_inner(df, df) / params.tau - t_smooth
                        - 2.0 * params.rho * gradient_pairing(dp.mesh, df,
                                                              dpv)
                        + params.theta / params.tau * float(
                            np.sum(dp.mesh.areas[:, None] * dpv**2)))
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
    probe = certify_steps_empirical(PdParams(rho=rho, theta=theta), dp)
    s, g = probe.smooth_bound, probe.grad_norm
    # 1/tau at which (1/tau - s) * theta / tau equals rho^2 g^2
    inv_tau = 0.5 * (s + math.sqrt(s**2 + 4.0 * rho**2 * g**2 / theta))
    params = PdParams(rho=rho, tau=fraction / inv_tau, theta=theta)
    cert = certify_steps_empirical(params, dp)
    assert cert.valid
    driver = PdDriver(dp, params, cert)
    for _ in range(5):
        df = rng.standard_normal(dp.mesh.n_vertices)
        dpv = rng.standard_normal((dp.mesh.n_triangles, 2))
        assert driver.b_norm_sq(df, dpv * 10.0 ** rng.uniform(-3, 3)) > 0.0


def _short_run(level=4, max_iter=60, tau=5.0, record=True):
    dp, f_truth = benchmark_dp(level)
    z = synthesize_observation(dp, f_truth, 0.0, 0)
    params = PdParams(
        rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho, tau=tau,
        theta=5e-2, max_iter=max_iter, record_b_norms=record)
    cert = certify_steps_empirical(params, dp)
    f0, p0 = compatible_start(dp)
    driver = PdDriver(dp, params, certificate=cert)
    return driver, driver.run(z, f0=f0, p0=p0), z, f0, p0


def test_default_start_is_compatible_start():
    dp, f_truth = benchmark_dp(4)
    z = synthesize_observation(dp, f_truth, 0.0, 0)
    params = PdParams(rho=8.409e-4, max_iter=5)
    f0, p0 = compatible_start(dp)
    from_default = run(dp, z, params)
    from_compatible = run(dp, z, params, f0=f0, p0=p0)
    assert np.array_equal(from_default.f, from_compatible.f)
    assert np.array_equal(from_default.p, from_compatible.p)
    assert ([r.objective for r in from_default.history]
            == [r.objective for r in from_compatible.history])


def test_run_descends_and_stays_feasible():
    driver, state, z, _, _ = _short_run()
    lo, hi = driver.box
    assert np.all(state.f >= lo) and np.all(state.f <= hi)
    assert np.max(np.abs(state.p)) <= 1.0
    assert state.history[0].tolerance > 0.0
    assert state.history[-1].objective <= state.history[0].objective
    assert len(state.history) == state.n + 1


def test_adjoint_identity_along_iterations(rng):
    # the gradient identity holds at every visited iterate
    dp, f_truth = benchmark_dp(4)
    z = synthesize_observation(dp, f_truth, 0.0, 0)
    params = PdParams(
        rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho, tau=5.0,
        theta=5e-2, max_iter=20)
    cert = certify_steps_empirical(params, dp)
    driver = PdDriver(dp, params, certificate=cert)
    xi = rng.standard_normal(dp.mesh.n_vertices)
    m_u_bar = (dp.M_gamma @ dp.solve_source_part(xi))[dp.gamma_nodes]

    def check(n, f, p, u_gamma, u_a):
        lhs = float((u_gamma - z.values) @ m_u_bar)
        rhs = dp.lumped_inner(xi, u_a)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-12)
        assert np.all(f >= driver.box[0]) and np.all(f <= driver.box[1])
        assert np.max(np.abs(p)) <= 1.0

    state = driver.run(z, on_iteration=check)
    assert state.n == 20


def test_run_factors_nothing_after_set_up(monkeypatch):
    # set-up builds the boundary map from the level's one factorization;
    # the run, its B-norm checks and its final trace need no other, and
    # the trace it keeps is that of a full state solve at its last iterate
    prob, f_truth = build_benchmark_problem(8, "bottom_left")
    dp = DiscreteProblem(prob)
    params = ExperimentConfig(max_iter=30, record_b_norms=True).level_params(
        dp.mesh.mesh_size)
    cert = certify_steps_empirical(params, dp)
    z = synthesize_observation(dp, f_truth, 1e-2, 3)
    traces = []

    def no_factor(*args, **kwargs):
        raise AssertionError("A was factored after set-up")

    monkeypatch.setattr(pde_solvers, "BlockTridiagonalFactor", no_factor)
    state = run(dp, z, params, certificate=cert,
                on_iteration=lambda n, f, p, u_gamma, u_a:
                traces.append(u_gamma))
    monkeypatch.undo()
    assert state.n == 30 and not hasattr(state, "u")
    assert all(t.shape == dp.gamma_nodes.shape for t in traces)
    assert state.u_gamma is traces[-1]
    u_gamma = dp.solve_state(state.f)[dp.gamma_nodes]
    assert (np.linalg.norm(state.u_gamma - u_gamma)
            <= 1e-10 * np.linalg.norm(u_gamma))


def test_run_b_norms_monotone():
    driver, state, z, f0, p0 = _short_run()
    bn = np.array([r.step_b_norm_sq for r in state.history
                   if r.step_b_norm_sq is not None])
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
    driver = PdDriver(dp, params, certificate=certify_steps_empirical(
        params, dp))
    monkeypatch.setattr(primal_dual, "project_dual_ball", lambda q: 1.5 * q)
    with pytest.raises(RuntimeError, match="dual iterate left the unit ball"):
        driver.run(z)


def test_run_rejects_an_observation_of_other_nodes():
    # the iteration reads the data as one value per observed node: data on
    # the left side's nodes, or with a node or a value missing, is refused
    dp, f_truth = benchmark_dp(4)
    z = synthesize_observation(dp, f_truth, 0.0, 0)
    params = PdParams(
        rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho, tau=5.0,
        theta=5e-2, max_iter=5)
    cert = certify_steps_empirical(params, dp)
    left = dp.mesh.side_nodes(("left",))
    assert left.shape == z.nodes.shape and not np.array_equal(left, z.nodes)
    for bad in (Observation(left, z.values),
                Observation(z.nodes[:-1], z.values[:-1]),
                Observation(z.nodes, z.values[:-1])):
        with pytest.raises(ValueError, match="observed boundary nodes"):
            run(dp, bad, params, certificate=cert)


def test_run_rejects_bad_rho():
    with pytest.raises(ValueError):
        PdParams(rho=0.0, tau=5.0)


def test_variational_inequality_at_stop(rng):
    # at the stopped iterate the box part of the first-order condition
    # holds up to the projected-gradient residual, uniformly over samples
    driver, state, z, _, _ = _short_run(max_iter=400, tau=12.0, record=False)
    dp, params = driver.dp, driver.params
    u = dp.solve_state(state.f)
    u_a = dp.solve_adjoint(u, z)
    f_next = driver.primal_step(state.f, state.p, u_a)
    g_norm = dp.lumped_norm((state.f - f_next) / params.tau)
    d = div_adjoint(dp.mesh, state.p)
    lo, hi = driver.box
    for _ in range(200):
        g_test = rng.uniform(lo, hi, dp.mesh.n_vertices)
        diff = g_test - state.f
        value = (dp.lumped_inner(diff, u_a) + params.rho * float(d @ diff))
        slack = g_norm * (dp.lumped_norm(diff) + params.tau * g_norm) * 1.01
        assert value >= -slack - 1e-12

    # dual side: feasible fields pair with the gradient below the value
    # attained by the current dual variable, up to one further dual step
    def p0_norm(q):
        return math.sqrt(float(np.sum(dp.mesh.areas[:, None] * q**2)))

    p_next = driver.dual_step(state.p, state.f)
    delta = p0_norm(p_next - state.p)
    grad_f = elem_gradient(dp.mesh, state.f)
    grad_norm = p0_norm(grad_f)
    for _ in range(200):
        q = rng.uniform(-1.0, 1.0, (dp.mesh.n_triangles, 2))
        pairing = float(np.sum(dp.mesh.areas[:, None] * grad_f
                               * (q - state.p)))
        slack = delta * (params.theta / (params.tau * params.rho)
                         * p0_norm(q - p_next) + grad_norm) * 1.01
        assert pairing <= slack + 1e-12


class TestMultilevel:
    @staticmethod
    def _make_level(level):
        dp, f_truth = benchmark_dp(level)
        z = synthesize_observation(dp, f_truth, 0.0, [0, level])
        params = PdParams(
            rho=ExperimentConfig().level_params(dp.mesh.mesh_size).rho,
            tau=5.0, theta=5e-2, max_iter=25)
        return dp, z, params, certify_steps_empirical(params, dp)

    def test_levels_must_double_from_four(self):
        with pytest.raises(ValueError):
            multilevel_run([], self._make_level)
        with pytest.raises(ValueError):
            multilevel_run([8, 16], self._make_level)
        with pytest.raises(ValueError):
            multilevel_run([4, 12], self._make_level)

    def test_single_level_equals_plain_run(self):
        runs = multilevel_run([4], self._make_level)
        dp, z, params, cert = self._make_level(4)
        state = run(dp, z, params, certificate=cert)
        assert np.allclose(runs[0].state.f, state.f, atol=1e-12)
        assert np.allclose(runs[0].state.p, state.p, atol=1e-12)

    def test_level_releases_factor_and_boundary_map(self):
        # no factorization is cached; the boundary map and the gradient
        # table are rebuilt on demand, and kept they would add their memory
        # to every later level's peak
        runs = multilevel_run([4, 8], self._make_level)
        for level_run in runs:
            dp = level_run.problem
            assert not any(isinstance(v, pde_solvers.BlockTridiagonalFactor)
                           for v in vars(dp).values())
            assert "boundary_map" not in vars(dp)
            assert "gradient_table" not in vars(dp.mesh)

    def test_two_levels_couple_rho_and_warm_start(self):
        runs = multilevel_run([4, 8], self._make_level)
        assert runs[0].params.rho == pytest.approx(8.4090e-4, rel=1e-4)
        assert runs[1].params.rho == pytest.approx(5.9460e-4, rel=1e-4)
        assert runs[1].problem.mesh.level == 8

    def test_failure_carries_completed_levels(self):
        def flaky(level):
            if level == 8:
                raise RuntimeError("synthetic breakage")
            return self._make_level(level)

        with pytest.raises(MultilevelError) as excinfo:
            multilevel_run([4, 8], flaky)
        assert excinfo.value.level == 8
        assert [r.level for r in excinfo.value.completed] == [4]

    def test_invalid_certificate_fails_its_level(self):
        def uncertified_at_8(level):
            dp, z, params, cert = self._make_level(level)
            if level == 8:
                cert = certify_steps(params, dp)  # tau 5 fails it
            return dp, z, params, cert

        with pytest.raises(MultilevelError, match="step-size") as excinfo:
            multilevel_run([4, 8], uncertified_at_8)
        assert excinfo.value.level == 8
        assert [r.level for r in excinfo.value.completed] == [4]
