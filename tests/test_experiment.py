import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tvsource.cli
from tvsource.cli import main as cli_main
from tvsource.experiment import (ExperimentConfig, F_HIGH, F_LOW,
                                 _uniform_noise,
                                 build_benchmark_problem, benchmark_flux,
                                 export_benchmark, export_field,
                                 read_config_file,
                                 read_observation_csv,
                                 run_benchmark, synthesize_observation,
                                 write_observation_csv)
from tvsource.mesh import build_structured
from tvsource.pde_solvers import DiscreteProblem, Observation
from tvsource.primal_dual import MultilevelError
from tvsource.sparse_linalg import CgConvergenceError

from conftest import benchmark_dp, boundary_nodes


class TestBenchmarkProblem:
    def test_alpha_sampling_by_region(self):
        prob, _ = build_benchmark_problem(16)
        cen = prob.mesh.centroids

        def alpha_at(point):
            t = int(np.argmin(np.hypot(cen[:, 0] - point[0],
                                       cen[:, 1] - point[1])))
            return prob.coeffs.alpha[t]

        # outside every subdomain
        assert np.allclose(alpha_at((0.9, 0.9)), [[1.0, 0.0], [0.0, 2.0]])
        # inside square, disk and diamond
        assert np.allclose(alpha_at((0.02, 0.02)), [[3.0, 1.0], [1.0, 4.0]])
        # inside square and disk, outside diamond
        assert np.allclose(alpha_at((0.33, 0.30)), [[3.0, 0.0], [0.0, 4.0]])
        # inside square only
        assert np.allclose(alpha_at((0.45, 0.45)), [[3.0, 0.0], [0.0, 2.0]])

    def test_truth_values(self):
        prob, f_truth = build_benchmark_problem(8)
        v = prob.mesh.vertices
        inside = v[:, 0] ** 2 + v[:, 1] ** 2 <= 0.25
        assert np.all(f_truth[inside] == F_HIGH)
        assert np.all(f_truth[~inside] == F_LOW)
        assert F_HIGH == pytest.approx(2.0 - math.pi / 8.0)

    def test_flux_edge_values(self):
        mesh = build_structured(4)
        j = benchmark_flux(mesh).values
        mids = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0]]
                      + mesh.vertices[mesh.boundary_edges[:, 1]])
        for k, (side, (mx, my)) in enumerate(zip(mesh.edge_sides, mids)):
            if side == "bottom":
                assert j[k] == (1.0 if mx > 0 else -2.0)
            elif side == "top":
                assert j[k] == (2.0 if mx > 0 else -1.0)
            elif side == "left":
                assert j[k] == (3.0 if my <= 0 else -4.0)
            else:
                assert j[k] == (-3.0 if my > 0 else 4.0)
        assert abs(np.sum(j * mesh.edge_lengths)) <= 1e-12

    def test_unknown_gamma_case(self):
        with pytest.raises(ValueError):
            build_benchmark_problem(4, "top_right")


class TestObservation:
    def test_noise_free(self):
        dp, f_truth = benchmark_dp(4)
        z = synthesize_observation(dp, f_truth, 0.0, 0)
        u = dp.solve_state(f_truth)
        assert np.allclose(z.values, u[dp.gamma_nodes], atol=1e-12)
        assert z.noise_level == 0.0

    def test_noise_level_magnitude(self):
        dp, f_truth = benchmark_dp(4)
        h = dp.mesh.mesh_size
        rho = 1e-3 * math.sqrt(h)
        theta = h * math.sqrt(rho)
        z = synthesize_observation(dp, f_truth, theta, 0)
        assert 0.2 <= z.noise_level / 2.3763e-2 <= 5.0

    def test_noise_level_quadrature_crosscheck(self):
        # boundary-mass value of the noise versus an edge-wise Simpson rule
        dp, f_truth = benchmark_dp(8)
        theta = 1e-2
        z = synthesize_observation(dp, f_truth, theta, 3)
        u = dp.solve_state(f_truth)
        diff = np.zeros(dp.mesh.n_vertices)
        diff[z.nodes] = z.values - u[z.nodes]
        total = 0.0
        mask = np.isin(dp.mesh.edge_sides, ["bottom"])
        for (a, b), length in zip(dp.mesh.boundary_edges[mask],
                                  dp.mesh.edge_lengths[mask]):
            e1, e2 = diff[a], diff[b]
            mid = 0.5 * (e1 + e2)
            total += length / 6.0 * (e1**2 + 4.0 * mid**2 + e2**2)
        assert abs(z.noise_level - math.sqrt(total)) <= 1e-10

    def test_determinism_per_seed(self):
        dp, f_truth = benchmark_dp(4)
        z1 = synthesize_observation(dp, f_truth, 1e-2, 42)
        z2 = synthesize_observation(dp, f_truth, 1e-2, 42)
        z3 = synthesize_observation(dp, f_truth, 1e-2, 43)
        assert np.array_equal(z1.values, z2.values)
        assert not np.array_equal(z1.values, z3.values)


_SEED_INTS = st.integers(0, 2**130 - 1)


@settings(max_examples=200, deadline=None)
@given(seed=st.one_of(_SEED_INTS, st.lists(_SEED_INTS, min_size=1,
                                            max_size=6)),
       k=st.integers(1, 300))
@example(seed=0, k=1)
@example(seed=[2**32 - 1, 2**32, 2**64, 0, 1], k=5)
def test_noise_stream_is_numpy_default_rng(seed, k):
    expected = np.random.default_rng(seed).uniform(-1.0, 1.0, k)
    assert np.array(_uniform_noise(seed, k)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed, first", [
    ([0, 4], ["0x1.8844026dcd6e0p-1", "-0x1.15ebcd7a25e64p-1",
              "-0x1.6dfdd5d326168p-3"]),
    ([1, 64], ["-0x1.7b290d11d2e00p-6", "-0x1.7ea111433c294p-2",
               "0x1.0d428c744fd3ep-1"]),
])
def test_noise_stream_first_draws(seed, first):
    # pinned as literals, so the stream holds whatever numpy does
    assert [x.hex() for x in _uniform_noise(seed, 3)] == first


@pytest.mark.parametrize("seed, error", [
    (-1, ValueError), ([0, -4], ValueError), (0.5, TypeError),
    ([0, 4.0], TypeError)])
def test_noise_stream_rejects_seeds_as_numpy_does(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        _uniform_noise(seed, 1)


class TestExports:
    def test_csv_nodal_field(self, tmp_path):
        mesh = build_structured(1)
        path = tmp_path / "field.csv"
        export_field(mesh, np.ones(mesh.n_vertices), str(path), "csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 5
        assert all(line.endswith(",1") for line in lines[1:])

    def test_csv_roundtrip_full_precision(self, tmp_path, rng):
        mesh = build_structured(3)
        values = rng.standard_normal(mesh.n_vertices)
        path = tmp_path / "field.csv"
        export_field(mesh, values, str(path), "csv")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 2], values)

    def test_vtk_cells_and_data(self, tmp_path):
        mesh = build_structured(1)
        path = tmp_path / "field.vtk"
        export_field(mesh, np.arange(4.0), str(path), "vtk", name="height")
        text = path.read_text()
        assert "CELLS 2 8" in text
        assert "CELL_TYPES 2" in text
        assert "POINT_DATA 4" in text
        assert "SCALARS height float 1" in text

    def test_vtk_cell_vectors(self, tmp_path):
        mesh = build_structured(2)
        path = tmp_path / "dual.vtk"
        export_field(mesh, np.full((mesh.n_triangles, 2), 0.5), str(path),
                     "vtk", name="dual")
        text = path.read_text()
        assert "CELL_DATA 8" in text
        assert "VECTORS dual float" in text

    def test_byte_stability(self, tmp_path, rng):
        mesh = build_structured(2)
        values = rng.standard_normal(mesh.n_vertices)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_field(mesh, values, str(p1), "csv")
        export_field(mesh, values, str(p2), "csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        mesh = build_structured(1)
        with pytest.raises(ValueError):
            export_field(mesh, np.ones(4), str(tmp_path / "x.bin"), "bin")

    def test_observation_roundtrip(self, tmp_path):
        dp, f_truth = benchmark_dp(4)
        z = synthesize_observation(dp, f_truth, 1e-2, 5)
        path = tmp_path / "obs.csv"
        write_observation_csv(dp.mesh, z, str(path))
        back = read_observation_csv(str(path), dp.mesh, dp.gamma_nodes)
        assert np.array_equal(back.nodes, z.nodes)
        assert np.array_equal(back.values, z.values)

    @staticmethod
    def _edited_observation(tmp_path, edit):
        dp, f_truth = benchmark_dp(4)
        z = synthesize_observation(dp, f_truth, 1e-2, 5)
        path = tmp_path / "obs.csv"
        write_observation_csv(dp.mesh, z, str(path))
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return str(path), dp

    def test_observation_duplicate_node_rejected(self, tmp_path):
        def repeat_first_row(lines):
            lines[2] = lines[1]

        path, dp = self._edited_observation(tmp_path, repeat_first_row)
        with pytest.raises(ValueError, match="more than once"):
            read_observation_csv(path, dp.mesh, dp.gamma_nodes)

    def test_observation_non_finite_value_rejected(self, tmp_path):
        def nan_value(lines):
            lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"

        path, dp = self._edited_observation(tmp_path, nan_value)
        with pytest.raises(ValueError, match="non-finite"):
            read_observation_csv(path, dp.mesh, dp.gamma_nodes)

    def test_observation_off_boundary_point_rejected(self, tmp_path):
        def move_to_interior(lines):
            _, _, value = lines[2].split(",")
            lines[2] = f"0.0,0.0,{value}"

        path, dp = self._edited_observation(tmp_path, move_to_interior)
        with pytest.raises(ValueError, match="matches no node"):
            read_observation_csv(path, dp.mesh, dp.gamma_nodes)


# The line-by-line writers the np.savetxt ones replaced, kept as the
# reference their output must match byte for byte.

def _ref_csv_field(mesh, comps, nodal, path):
    points = mesh.vertices if nodal else mesh.centroids
    if comps.shape[1] == 1:
        header = "x1,x2,value"
    else:
        header = "x1,x2," + ",".join(f"value_{k + 1}"
                                     for k in range(comps.shape[1]))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for pt, row in zip(points, comps):
            cols = [f"{pt[0]:.10e}", f"{pt[1]:.10e}"]
            cols += [f"{v:.17g}" for v in row]
            fh.write(",".join(cols) + "\n")


def _ref_vtk_field(mesh, comps, nodal, path, name):
    nt = mesh.n_triangles
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write(f"{name}\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} float\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.10e} {y:.10e} 0.0\n")
        fh.write(f"CELLS {nt} {4 * nt}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        fh.write(f"{'POINT_DATA' if nodal else 'CELL_DATA'} "
                 f"{mesh.n_vertices if nodal else nt}\n")
        if comps.shape[1] == 1:
            fh.write(f"SCALARS {name} float 1\nLOOKUP_TABLE default\n")
            for (v,) in comps:
                fh.write(f"{v:.10e}\n")
        else:
            fh.write(f"VECTORS {name} float\n")
            for row in comps:
                vals = list(row) + [0.0] * (3 - len(row))
                fh.write(" ".join(f"{v:.10e}" for v in vals) + "\n")


def _ref_observation_csv(mesh, z, path):
    with open(path, "w") as fh:
        fh.write("node_x1,node_x2,z_value\n")
        for idx, val in zip(z.nodes, z.values):
            x, y = mesh.vertices[idx]
            fh.write(f"{x:.10e},{y:.10e},{val:.17g}\n")


EDGE_VALUES = np.array([5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0,
                        1e300, -1e300, np.inf, -np.inf, np.nan, 1.0, -1.0,
                        0.1, 1.0 / 3.0, 123456789.123, -2.5e-17])


class TestWritersMatchReference:
    @staticmethod
    def _values(n, comps, rng):
        values = rng.standard_normal((n, comps))
        flat = values.ravel()
        flat[:len(EDGE_VALUES)] = EDGE_VALUES[:flat.size]
        return values.reshape(n, comps)

    @pytest.mark.parametrize("fmt", ["csv", "vtk"])
    @pytest.mark.parametrize("nodal,comps", [(True, 1), (False, 1),
                                             (False, 2), (True, 2)])
    def test_field_bytes(self, tmp_path, rng, fmt, nodal, comps):
        mesh = build_structured(4)
        n = mesh.n_vertices if nodal else mesh.n_triangles
        values = self._values(n, comps, rng)
        out, ref = tmp_path / f"out.{fmt}", tmp_path / f"ref.{fmt}"
        export_field(mesh, values if comps > 1 else values[:, 0], str(out),
                     fmt, name="field")
        if fmt == "csv":
            _ref_csv_field(mesh, values, nodal, str(ref))
        else:
            _ref_vtk_field(mesh, values, nodal, str(ref), "field")
        assert out.read_bytes() == ref.read_bytes()

    def test_observation_bytes(self, tmp_path):
        dp, _ = benchmark_dp(16)
        nodes = dp.gamma_nodes
        z = Observation(nodes, np.resize(EDGE_VALUES, nodes.shape[0]))
        out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
        write_observation_csv(dp.mesh, z, str(out))
        _ref_observation_csv(dp.mesh, z, str(ref))
        assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "vtk"])
def test_writers_match_reference_across_blocks(tmp_path, monkeypatch, fmt):
    # blocks of 7 rows split every section of a level-4 file, none evenly
    monkeypatch.setattr(tvsource.experiment, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(3)
    mesh = build_structured(4)
    for nodal, comps in [(True, 1), (False, 2)]:
        values = TestWritersMatchReference._values(
            mesh.n_vertices if nodal else mesh.n_triangles, comps, rng)
        out, ref = tmp_path / f"out.{fmt}", tmp_path / f"ref.{fmt}"
        export_field(mesh, values if comps > 1 else values[:, 0], str(out),
                     fmt, name="field")
        if fmt == "csv":
            _ref_csv_field(mesh, values, nodal, str(ref))
        else:
            _ref_vtk_field(mesh, values, nodal, str(ref), "field")
        assert out.read_bytes() == ref.read_bytes()
    dp, _ = benchmark_dp(16)
    z = Observation(dp.gamma_nodes, np.resize(EDGE_VALUES, 17))
    out, ref = tmp_path / "out_obs.csv", tmp_path / "ref_obs.csv"
    write_observation_csv(dp.mesh, z, str(out))
    _ref_observation_csv(dp.mesh, z, str(ref))
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("block_rows", [7, 256])
def test_vtk_files_of_a_level_match_reference(tmp_path, monkeypatch,
                                              block_rows):
    # the reconstruction, the dual field and the observation of a level on
    # a rectangle, as export_benchmark writes them: each file has the bytes
    # of the reference writer
    monkeypatch.setattr(tvsource.experiment, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(4)
    mesh = build_structured(8, ((-1.0, 2.0), (0.0, 1.0)))
    f = TestWritersMatchReference._values(mesh.n_vertices, 1, rng)
    p = TestWritersMatchReference._values(mesh.n_triangles, 2, rng)
    nodes = mesh.side_nodes({"bottom"})
    z = Observation(nodes, np.resize(EDGE_VALUES, nodes.shape[0]))
    run = SimpleNamespace(level=8, problem=SimpleNamespace(mesh=mesh),
                          state=SimpleNamespace(f=f[:, 0], p=p),
                          observation=z)
    export_benchmark(ExperimentConfig(out_dir=str(tmp_path),
                                      export_format="vtk"), run)
    ref = tmp_path / "ref"
    for name, values, nodal, field in (("f", f, True, "reconstruction"),
                                       ("p", p, False, "dual")):
        _ref_vtk_field(mesh, values, nodal, str(ref), field)
        assert ((tmp_path / f"level8_{name}.vtk").read_bytes()
                == ref.read_bytes())
    _ref_observation_csv(mesh, z, str(ref))
    assert ((tmp_path / "level8_observation.csv").read_bytes()
            == ref.read_bytes())


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, 5, elements=st.floats(allow_nan=False,
                                                allow_infinity=False)))
def test_observation_csv_roundtrip_is_exact(values):
    dp, _ = benchmark_dp(4)
    z = Observation(dp.gamma_nodes, values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obs.csv")
        write_observation_csv(dp.mesh, z, path)
        back = read_observation_csv(path, dp.mesh, dp.gamma_nodes)
    assert np.array_equal(back.nodes, z.nodes)
    assert np.array_equal(_bits(back.values), _bits(values))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    arrays(np.float64, 9, elements=st.floats(allow_nan=False)),
    arrays(np.float64, (8, 2), elements=st.floats(allow_nan=False))))
def test_field_csv_roundtrip_is_exact(values):
    mesh = build_structured(2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        export_field(mesh, values, path, "csv")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(_bits(data[:, 2:]),
                          _bits(values.reshape(values.shape[0], -1)))


class TestConfig:
    def test_json_roundtrip_with_overrides(self, tmp_path):
        cfg = ExperimentConfig(levels=(4, 8), seed=3, tau=2.5)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        args = tvsource.cli.build_parser().parse_args(
            ["bench", "--config", str(path), "--seed", "9"])
        loaded = tvsource.cli._config_from_args(args)
        assert loaded.levels == (4, 8)
        assert loaded.tau == 2.5
        assert loaded.seed == 9

    def test_unknown_keys_named(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"levels": [4], "tua": 1.0, "sed": 2}))
        with pytest.raises(ValueError, match="unknown keys.*sed, tua"):
            read_config_file(str(path))

    def test_nonpositive_knobs_rejected(self):
        for name in ("rho_coef", "tau", "theta", "max_iter"):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig(**{name: 0})
        with pytest.raises(ValueError, match="rho_coef"):
            ExperimentConfig(rho_coef="1e-3")

    def test_zero_noise_accepted(self):
        assert ExperimentConfig(noise_coef=0).noise_coef == 0

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(ExperimentConfig(levels=()))


def _tiny_config(out_dir, **kw):
    defaults = dict(levels=(4,), max_iter=10, out_dir=str(out_dir),
                    export_format="csv")
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def _two_column_errors(dp, f, f_truth, u_truth):
    """The error table's three errors of the reconstruction f as computed
    before the difference form: the truth and the reconstructed
    constrained states from full nodal states, as two single-column
    Dirichlet solves."""
    u_rec = dp.solve_state(f)
    bnodes = boundary_nodes(dp.mesh)
    bvals_dag = np.zeros(dp.mesh.n_vertices)
    bvals_dag[bnodes] = u_truth[bnodes]
    bvals_rec = bvals_dag.copy()
    bvals_rec[dp.gamma_nodes] = u_rec[dp.gamma_nodes]
    diff = (dp.solve_dirichlet(f_truth, bvals_dag)
            - dp.solve_dirichlet(f, bvals_rec))
    return (dp.l2_norm(f_truth - f),
            dp.l2_norm(diff), dp.h1_norm(diff))


class TestBenchmarkRun:
    def test_table_deterministic(self, tmp_path):
        # the directories do not exist yet: run_benchmark creates them
        for name in ("a", "b"):
            run_benchmark(_tiny_config(tmp_path / name / "out"))
        assert ((tmp_path / "a" / "out" / "table.csv").read_bytes()
                == (tmp_path / "b" / "out" / "table.csv").read_bytes())

    def test_record_columns(self, tmp_path):
        records = run_benchmark(_tiny_config(tmp_path))
        rec = records[0]
        assert rec.level == 4
        assert rec.h == pytest.approx(0.70710678, rel=1e-8)
        assert rec.rho == pytest.approx(8.4090e-4, rel=1e-4)
        assert rec.iterations <= 10
        for field in ("err_f_L2", "err_u_L2", "err_u_H1"):
            assert getattr(rec, field) > 0

    def test_truth_refine_mode_runs(self, tmp_path):
        records = run_benchmark(_tiny_config(tmp_path, truth_refine=True))
        assert records[0].level == 4

    def test_truth_refine_observes_fine_truth_state(self, tmp_path):
        run_benchmark(_tiny_config(tmp_path, truth_refine=True,
                                   noise_coef=0, max_iter=1))
        dp, _ = benchmark_dp(4)
        coarse = dp.mesh
        z = read_observation_csv(str(tmp_path / "level4_observation.csv"),
                                 coarse, dp.gamma_nodes)
        fine_prob, fine_truth = build_benchmark_problem(8)
        u_fine = DiscreteProblem(fine_prob).solve_state(fine_truth)
        fine = fine_prob.mesh.vertices
        for node, value in zip(z.nodes, z.values):
            dist = np.hypot(*(fine - coarse.vertices[node]).T)
            assert dist.min() <= 1e-12
            assert value == u_fine[np.argmin(dist)]

    def test_truth_refine_assembles_one_stiffness_per_mesh(
            self, tmp_path, monkeypatch):
        # each mesh assembles its A and its boundary mass, and nothing
        # else of either kind: the H1 norm reads the element gradients
        import tvsource.pde_solvers as pde
        calls = []

        def counting(name):
            real = getattr(pde, name)

            def wrapper(mesh, *args):
                calls.append((name, mesh.level))
                return real(mesh, *args)
            return wrapper

        for name in ("assemble_stiffness", "assemble_boundary_mass"):
            monkeypatch.setattr(pde, name, counting(name))
        run_benchmark(_tiny_config(tmp_path, truth_refine=True, max_iter=1))
        assert sorted(calls) == [("assemble_boundary_mass", 4),
                                 ("assemble_boundary_mass", 8),
                                 ("assemble_stiffness", 4),
                                 ("assemble_stiffness", 8)]

    def test_level_failure_yields_partial_flagged_table(self, tmp_path,
                                                        monkeypatch):
        import tvsource.experiment as exp
        real_build = exp.build_benchmark_problem

        def flaky(level, gamma_case="bottom", box=(-1.0, 3.0)):
            if level == 8:
                raise RuntimeError("synthetic breakage")
            return real_build(level, gamma_case, box)

        monkeypatch.setattr(exp, "build_benchmark_problem", flaky)
        with pytest.raises(MultilevelError, match="synthetic breakage"):
            run_benchmark(_tiny_config(tmp_path, levels=(4, 8)))
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert len(table) == 3 and table[1].startswith("4,")
        assert table[2] == "# incomplete: level 8 failed: synthetic breakage"
        # the finished level's files are written before level 8 is set up
        assert sorted(os.listdir(tmp_path)) == [
            "level4_f.csv", "level4_observation.csv", "level4_p.csv",
            "table.csv"]

    def test_export_failure_flags_the_table(self, tmp_path, monkeypatch):
        # a failure after a level's run, here in its export, also ends the
        # table with the line that names it
        import tvsource.experiment as exp

        def disk_full(*args):
            raise OSError("disk full")

        monkeypatch.setattr(exp, "write_observation_csv", disk_full)
        with pytest.raises(OSError, match="disk full"):
            run_benchmark(_tiny_config(tmp_path, levels=(4, 8)))
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert len(table) == 3 and table[1].startswith("4,")
        assert table[2] == "# incomplete: disk full"

    @pytest.mark.parametrize("gamma_case", ["bottom", "bottom_left"])
    def test_one_dirichlet_column_matches_two(self, tmp_path, gamma_case):
        records = run_benchmark(_tiny_config(
            tmp_path, levels=(4, 8), max_iter=20, gamma_case=gamma_case))
        for rec in records:
            dp, f_truth = benchmark_dp(rec.level, gamma_case)
            # the exported reconstruction, exact in its 17 digits
            f = np.loadtxt(tmp_path / f"level{rec.level}_f.csv",
                           delimiter=",", skiprows=1)[:, 2]
            ref = _two_column_errors(dp, f, f_truth, dp.solve_state(f_truth))
            got = (rec.err_f_L2, rec.err_u_L2, rec.err_u_H1)
            assert got == pytest.approx(ref, rel=1e-12, abs=0)

    def test_each_level_factors_A_once(self, tmp_path, monkeypatch):
        # a level factors A (grounded, pure Neumann) once, for the boundary
        # map, and its interior Dirichlet operator once, for its error row,
        # before the next level is set up
        import tvsource.pde_solvers as pde
        real_factor, grounded = pde.BlockTridiagonalFactor, []

        def counting_factor(A, m, ground=False):
            grounded.append(ground)
            return real_factor(A, m, ground=ground)

        monkeypatch.setattr(pde, "BlockTridiagonalFactor", counting_factor)
        run_benchmark(_tiny_config(tmp_path, levels=(4, 8, 16)))
        assert grounded == [True, False] * 3

    def test_consistent_norm_of_unit_field(self):
        dp, _ = benchmark_dp(8)
        assert dp.l2_norm(np.ones(dp.mesh.n_vertices)) == pytest.approx(
            2.0, abs=1e-12)


class TestCli:
    def test_check_passes(self, capsys):
        assert cli_main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("[PASS]") == 11

    def test_bench_writes_outputs(self, tmp_path, capsys):
        code = cli_main(["bench", "--levels", "4", "--max-iter", "5",
                         "--out", str(tmp_path), "--format", "vtk",
                         "--seed", "1"])
        assert code == 0
        assert (tmp_path / "table.csv").exists()
        assert (tmp_path / "level4_f.vtk").exists()
        assert (tmp_path / "level4_observation.csv").exists()

    def test_bench_with_config_file(self, tmp_path):
        cfg = {"levels": [4], "max_iter": 4, "out_dir": str(tmp_path / "r"),
               "export_format": "none"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["bench", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "r" / "table.csv").exists()

    # case -> (config file keys, extra argv, a word the message must name)
    INVALID = {
        "solve_rho_zero": (None, ["--rho-coef", "0"], "rho"),
        "solve_rho_negative": (None, ["--rho-coef", "-1"], "rho"),
        "solve_tau_uncertified": (None, ["--tau", "100"], "step-size"),
        "bench_rho_zero": (None, ["--rho-coef", "0"], "rho"),
        "bench_config_unknown_key": ({"rho": 1e-3}, [], "rho"),
        "bench_box_reversed": (None, ["--box", "3", "1"], "box"),
        "bench_rho_one_on_coarsest_level": (None, ["--rho-coef", "1.2"],
                                            "rho"),
        "bench_config_export_format": ({"export_format": "xml"}, [],
                                       "export_format"),
        "bench_config_certify": ({"certify": "exact"}, [], "certify"),
        "bench_config_gamma_case": ({"gamma_case": "top"}, [], "gamma"),
        "bench_config_levels_number": ({"levels": 4}, [], "levels"),
        "bench_config_box_one_number": ({"box": [1]}, [], "box"),
        "bench_config_seed_string": ({"seed": "x"}, [], "seed"),
        "bench_config_max_iter_fraction": ({"max_iter": 2.5}, [], "max_iter"),
        "bench_config_max_iter_bool": ({"max_iter": True}, [], "max_iter"),
        "bench_config_isotropic_dual_string": ({"isotropic_dual": "no"}, [],
                                               "isotropic_dual"),
        "bench_config_record_b_norms": ({"record_b_norms": True}, [],
                                        "record_b_norms"),
        "bench_noise_coef_negative": (None, ["--noise-coef", "-1"],
                                      "noise_coef"),
        "bench_out_is_a_file": (None, [], "afile"),
        "bench_include_64_with_levels": (None, ["--include-64"],
                                         "--include-64"),
        "bench_include_64_with_config_levels": ({}, ["--include-64"],
                                                "--include-64"),
    }

    @pytest.mark.parametrize("case", list(INVALID))
    def test_invalid_input_one_line_exit_2(self, tmp_path, capsys,
                                           monkeypatch, case):
        keys, extra, word = self.INVALID[case]
        out = str(tmp_path / "out")
        if case == "bench_out_is_a_file":
            (tmp_path / "afile").write_text("")
            out = str(tmp_path / "afile" / "sub")
        # bench sets no level up: the stand-in records a set-up and fails
        setups = []

        def no_setup(config, level):
            setups.append(level)
            raise AssertionError(f"level {level} was set up")

        if case.startswith("bench"):
            monkeypatch.setattr(ExperimentConfig, "setup_level", no_setup)
        if case.startswith("solve"):
            dp, f_truth = benchmark_dp(4)
            obs = tmp_path / "obs.csv"
            write_observation_csv(
                dp.mesh, synthesize_observation(dp, f_truth, 0.0, 0),
                str(obs))
            argv = ["solve", str(obs), "--level", "4"]
        elif keys is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"levels": [4, 8], **keys}))
            argv = ["bench", "--config", str(cfg)]
        else:
            argv = ["bench", "--levels", "4,8"]
        assert cli_main(argv + extra + ["--out", out]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("tvsource: error: ")
        assert word in lines[0] and captured.out == ""
        assert not os.path.exists(out)
        assert setups == []

    @pytest.mark.parametrize("text", ["[1, 2]", "[]", "null", "4",
                                      '"levels"'])
    def test_config_file_not_an_object_one_line_exit_2(self, tmp_path,
                                                         capsys, text):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(text)
        for extra in ([], ["--include-64"]):
            argv = ["bench", "--config", str(cfg), "--out", str(out)]
            assert cli_main(argv + extra) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                f"tvsource: error: config file {cfg} must hold a JSON object, "
                f"got {text}"]
            assert captured.out == "" and not out.exists()

    def test_config_file_not_valid_json_one_line_exit_2(self, tmp_path,
                                                          capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text('{"levels": [4,\n')
        assert cli_main(["bench", "--config", str(cfg),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"tvsource: error: config file {cfg} is not valid JSON: "
            "Expecting value: line 2 column 1 (char 15)"]
        assert captured.out == "" and not out.exists()

    def test_config_file_nested_too_deep_one_line_exit_2(self, tmp_path,
                                                         capsys):
        # the decoder's recursion limit is an invalid file, not a traceback
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text("[" * 100000 + "]" * 100000)
        assert cli_main(["bench", "--config", str(cfg),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"tvsource: error: config file {cfg} is not valid JSON: ")
        assert captured.out == "" and not out.exists()

    def test_include_64_extends_the_levels_to_64(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 4}))
        parser = tvsource.cli.build_parser()
        for argv in (["bench", "--include-64"],
                     ["bench", "--include-64", "--config", str(cfg)]):
            config = tvsource.cli._config_from_args(parser.parse_args(argv))
            assert config.levels == (4, 8, 16, 32, 64)

    def test_solve_header_only_observation_one_line_exit_2(self, tmp_path,
                                                           capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("node_x1,node_x2,z_value\n")
        code = cli_main(["solve", str(obs), "--level", "4", "--out",
                         str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"tvsource: error: observation file {obs} holds no data rows"]

    def test_config_file_not_utf8_one_line_exit_2(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_bytes(b"\xff{}")
        assert cli_main(["bench", "--config", str(cfg),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"tvsource: error: config file {cfg} is not valid JSON: ")
        assert captured.out == "" and not out.exists()

    # case -> edit of the observation file's lines (lines[0] the header)
    UNREADABLE_OBSERVATION = {
        "non_numeric_entry": lambda lines: lines.__setitem__(
            1, lines[1].rsplit(",", 1)[0] + ",abc"),
        "one_short_row": lambda lines: lines.__setitem__(
            3, lines[3].rsplit(",", 1)[0]),
        "one_row_of_two_columns": lambda lines: lines.__setitem__(
            slice(1, None), [lines[1].rsplit(",", 1)[0]]),
    }

    @pytest.mark.parametrize("case", list(UNREADABLE_OBSERVATION))
    def test_solve_unreadable_observation_one_line_exit_2(self, tmp_path,
                                                          capsys, monkeypatch,
                                                          case):
        # set-up factors nothing, and the driver, whose certificate builds
        # the boundary map, is built only after the file is read
        import tvsource.pde_solvers as pde

        def no_factor(*args, **kwargs):
            raise AssertionError("A was factored before the file was read")

        dp, f_truth = benchmark_dp(4)
        obs, out = tmp_path / "obs.csv", tmp_path / "out"
        write_observation_csv(dp.mesh,
                              synthesize_observation(dp, f_truth, 0.0, 0),
                              str(obs))
        lines = obs.read_text().splitlines()
        self.UNREADABLE_OBSERVATION[case](lines)
        obs.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(pde, "BlockTridiagonalFactor", no_factor)
        assert cli_main(["solve", str(obs), "--level", "4",
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"tvsource: error: observation file {obs}")
        assert captured.out == "" and not out.exists()

    def test_solve_out_of_memory_one_line_exit_1(self, tmp_path, capsys,
                                                 monkeypatch):
        # numpy raises a MemoryError when it cannot allocate a level's mesh;
        # the stand-in raises numpy's message without allocating anything
        message = ("Unable to allocate 71.1 PiB for an array with shape "
                   "(100000001, 100000001) and data type float64")

        def no_memory(level):
            raise MemoryError(message)

        monkeypatch.setattr(tvsource.experiment, "build_structured",
                            no_memory)
        obs, out = tmp_path / "obs.csv", tmp_path / "out"
        obs.write_text("node_x1,node_x2,z_value\n")
        assert cli_main(["solve", str(obs), "--level", "100000000",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"tvsource: error: out of memory: {message}"]
        assert captured.out == "" and not out.exists()

    def test_solver_failure_one_line_exit_1(self, tmp_path, capsys,
                                            monkeypatch):
        # the only solve of `solve` builds the boundary map when the driver
        # certifies its steps: its factored solution misses the solve
        # tolerance, CG fails to polish it, and the run never starts
        import tvsource.pde_solvers as pde
        real_solve = pde.BlockTridiagonalFactor.solve
        runs = []

        def spoiled(self, b, out=None):
            x = real_solve(self, b, out)
            x *= 2.0
            return x

        def stalled_cg(*args, **kwargs):
            raise CgConvergenceError("CG stalled", None)

        dp, f_truth = benchmark_dp(4)
        obs = tmp_path / "obs.csv"
        write_observation_csv(dp.mesh,
                              synthesize_observation(dp, f_truth, 0.0, 0),
                              str(obs))
        monkeypatch.setattr(pde.BlockTridiagonalFactor, "solve", spoiled)
        monkeypatch.setattr(pde, "cg_solve", stalled_cg)
        monkeypatch.setattr(tvsource.primal_dual.PdDriver, "run",
                            lambda *args, **kwargs: runs.append(args))
        code = cli_main(["solve", str(obs), "--level", "4", "--max-iter",
                         "3", "--out", str(tmp_path / "out")])
        assert code == 1
        assert runs == []
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["tvsource: error: CG stalled"]

    def test_factorization_failure_one_line_exit_1(self, tmp_path, capsys,
                                                  monkeypatch):
        # numpy's LinAlgError is a ValueError; it must not read as bad input
        dp, f_truth = benchmark_dp(4)
        obs = tmp_path / "obs.csv"
        write_observation_csv(dp.mesh,
                              synthesize_observation(dp, f_truth, 0.0, 0),
                              str(obs))

        def not_definite(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_definite)
        code = cli_main(["solve", str(obs), "--level", "4", "--out",
                         str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["tvsource: error: block factorization failed at "
                         "block row 0 of 5: Matrix is not positive definite"]

    def test_solve_builds_level_once_and_rejected_file_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        import tvsource.experiment as exp
        real_build, calls = exp.build_benchmark_problem, []

        def counting_build(*args, **kwargs):
            calls.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(exp, "build_benchmark_problem", counting_build)
        monkeypatch.setattr(tvsource.cli, "build_benchmark_problem",
                            counting_build)
        obs = tmp_path / "obs.csv"
        obs.write_text("node_x1,node_x2,z_value\n0.0,0.0,1.0\n")
        out = tmp_path / "out"
        code = cli_main(["solve", str(obs), "--level", "4", "--out",
                         str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("tvsource: error: ")
        assert not out.exists()
        assert len(calls) == 1

    def test_bench_builds_each_level_once(self, tmp_path, monkeypatch):
        import tvsource.experiment as exp
        real_build, calls = exp.build_benchmark_problem, []

        def counting_build(*args, **kwargs):
            calls.append(args[0])
            return real_build(*args, **kwargs)

        monkeypatch.setattr(exp, "build_benchmark_problem", counting_build)
        monkeypatch.setattr(tvsource.cli, "build_benchmark_problem",
                            counting_build)
        assert cli_main(["bench", "--levels", "4,8", "--max-iter", "1",
                         "--format", "none", "--out", str(tmp_path)]) == 0
        assert calls == [4, 8]

    def test_cli_runs_without_loading_scipy(self, tmp_path):
        # the runtime needs numpy alone (importing scipy.sparse raises peak
        # RSS by about 22 MB): neither the import nor `check` nor a short
        # `bench` loads any scipy module
        code = ("import sys; from tvsource.cli import main; "
                "code = main(sys.argv[1:]); print(code, sorted("
                "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for args in (["check"],
                     ["bench", "--levels", "4,8", "--max-iter", "2",
                      "--format", "none", "--out", str(tmp_path)]):
            proc = subprocess.run([sys.executable, "-c", code, *args],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip().splitlines()[-1] == "0 []"

    def test_bench_and_solve_load_no_random_json_or_eigensolver(self,
                                                                 tmp_path):
        # the noise is drawn with integer arithmetic, and the step-size
        # certificate draws no random number (numpy.random would bring in
        # secrets and hashlib, about 5.9 MB of RSS) and calls no
        # eigensolver, whose LAPACK pages it would make resident; json is
        # loaded only for a config file.  The child reads its argument
        # lists with ast, which dataclasses imports anyway.
        dp, f_truth = benchmark_dp(4)
        obs = tmp_path / "obs.csv"
        write_observation_csv(dp.mesh,
                              synthesize_observation(dp, f_truth, 0.0, 0),
                              str(obs))
        code = ("import ast, sys; import numpy.linalg as la\n"
                "def refuse(*args, **kwargs):\n"
                "    raise AssertionError('eigensolver called')\n"
                "la.eigvalsh = la.eigh = refuse\n"
                "from tvsource.cli import main\n"
                "codes = [main(a) for a in ast.literal_eval(sys.argv[1])]\n"
                "print(codes, [m for m in ('numpy.random', 'secrets', "
                "'hashlib', 'json') if m in sys.modules])")
        runs = [["bench", "--levels", "4,8", "--max-iter", "1", "--format",
                 "none", "--out", str(tmp_path / "bench")],
                ["solve", str(obs), "--level", "4", "--max-iter", "2",
                 "--format", "none", "--out", str(tmp_path / "solve")]]
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", code, repr(runs)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0] []"

    def test_box_takes_a_negative_lower_bound(self, tmp_path):
        # the default box written out gives the default table
        argv = ["bench", "--levels", "4,8", "--max-iter", "20", "--format",
                "none", "--out"]
        assert cli_main(argv + [str(tmp_path / "a")]) == 0
        assert cli_main(argv + [str(tmp_path / "b"), "--box", "-1", "3"]) == 0
        assert ((tmp_path / "a" / "table.csv").read_bytes()
                == (tmp_path / "b" / "table.csv").read_bytes())

    def test_box_takes_a_negative_bound_in_exponent_form(self, tmp_path):
        argv = ["bench", "--levels", "4", "--max-iter", "20", "--format",
                "none", "--out"]
        assert cli_main(argv + [str(tmp_path / "a")]) == 0
        assert cli_main(argv + [str(tmp_path / "b"), "--box", "-1e0",
                                "3"]) == 0
        assert ((tmp_path / "a" / "table.csv").read_bytes()
                == (tmp_path / "b" / "table.csv").read_bytes())
        args = tvsource.cli.build_parser().parse_args(
            ["solve", "obs.csv", "--level", "4", "--box", "-.5E+0", "2e0"])
        assert args.box == [-0.5, 2.0]

    def test_solve_overflowing_observation_one_line_exit_2(self, tmp_path,
                                                            capsys):
        # finite values whose misfit overflows: an error, not a result (and
        # no RuntimeWarning, which the test settings make an exception)
        dp, _ = benchmark_dp(4)
        obs = tmp_path / "obs.csv"
        z = Observation(dp.gamma_nodes, np.full(dp.gamma_nodes.shape, 1e155))
        write_observation_csv(dp.mesh, z, str(obs))
        code = cli_main(["solve", str(obs), "--level", "4", "--out",
                         str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("tvsource: error: ")
        assert "data misfit inf" in lines[0]

    def test_solve_overflowing_observation_writes_nothing(self, tmp_path):
        # the run rejects the data before the output directory is made
        dp, _ = benchmark_dp(4)
        obs = tmp_path / "obs.csv"
        z = Observation(dp.gamma_nodes, np.full(dp.gamma_nodes.shape, 1e155))
        write_observation_csv(dp.mesh, z, str(obs))
        out = tmp_path / "out"
        assert cli_main(["solve", str(obs), "--level", "4", "--out",
                         str(out)]) == 2
        assert not out.exists()

    def test_bench_overflowing_noise_one_line_exit_1(self, tmp_path, capsys):
        code = cli_main(["bench", "--levels", "4,8", "--max-iter", "50",
                         "--noise-coef", "1e200", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("tvsource: error: ")
        assert "noise level is inf" in lines[0]
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert len(table) == 2 and table[1].startswith("# incomplete: level 4")

    def test_solve_tau_too_small_one_line_exit_2(self, tmp_path, capsys):
        # tau^2 underflows, so the stopping norm's weights w / tau^2 would
        # be inf; the certificate admits this tau (its lhs overflows to
        # inf), the driver does not, and no numpy warning gets through
        dp, f_truth = benchmark_dp(4)
        obs, out = tmp_path / "obs.csv", tmp_path / "out"
        write_observation_csv(
            dp.mesh, synthesize_observation(dp, f_truth, 0.0, 0), str(obs))
        code = cli_main(["solve", str(obs), "--level", "4", "--tau", "1e-170",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            "tvsource: error: tau 1e-170 is too small: the weights "
            "w / tau^2 of the stopping norm overflow"]

    def test_bench_tau_too_small_fails_the_level(self, tmp_path, capsys):
        # as a tau the certificate rejects: exit 1, one line, and a table
        # that names the reason
        code = cli_main(["bench", "--levels", "4,8", "--tau", "1e-170",
                         "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "tvsource: error: benchmark aborted: level 4 failed: tau 1e-170 "
            "is too small")
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert len(table) == 2 and table[1].startswith(
            "# incomplete: level 4 failed: tau 1e-170 is too small")

    def test_solve_tau_huge_one_line_exit_2(self, tmp_path, capsys):
        # tau^2 overflows in float64 (Python's float power would raise), so
        # the weights w / tau^2 are 0 and the certificate refuses the step
        dp, f_truth = benchmark_dp(4)
        obs, out = tmp_path / "obs.csv", tmp_path / "out"
        write_observation_csv(
            dp.mesh, synthesize_observation(dp, f_truth, 0.0, 0), str(obs))
        code = cli_main(["solve", str(obs), "--level", "4", "--tau", "1e200",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "tvsource: error: step-size condition violated: lhs ")

    def test_bench_tau_huge_fails_the_level(self, tmp_path, capsys):
        code = cli_main(["bench", "--levels", "4,8", "--tau", "1e300",
                         "--max-iter", "5", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "tvsource: error: benchmark aborted: level 4 failed: step-size "
            "condition violated")
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert len(table) == 2 and table[1].startswith(
            "# incomplete: level 4 failed: step-size condition violated")

    def test_bench_level_failure_keeps_the_finished_levels(self, tmp_path,
                                                            capsys):
        # level 8 rejects the step size that level 4 certifies (see
        # TestMultilevel): level 4's row and files are written before level
        # 8 is set up, and stay
        out = tmp_path / "new" / "out"
        code = cli_main(["bench", "--levels", "4,8", "--tau", "15",
                         "--max-iter", "5", "--format", "vtk",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "tvsource: error: benchmark aborted: level 8 failed: step-size")
        assert lines[0].endswith(f"partial table written to {out}/table.csv")
        table = (out / "table.csv").read_text().splitlines()
        assert len(table) == 3 and table[1].startswith("4,")
        assert table[2].startswith("# incomplete: level 8 failed: step-size")
        assert sorted(os.listdir(out)) == [
            "level4_f.vtk", "level4_observation.csv", "level4_p.vtk",
            "table.csv"]

    @pytest.mark.parametrize("levels", ["4,,8", "4,eight", ""])
    def test_malformed_levels_name_the_format(self, capsys, levels):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["bench", "--levels", levels])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == (
            "tvsource bench: error: argument --levels: levels must be "
            "integers separated by commas, such as 4,8,16; got "
            f"{levels!r}")

    def test_check_reads_the_boundary_map(self, capsys, monkeypatch):
        # a boundary map off by 1e-6 relative fails the adjoint line and the
        # trace line, which read the map's products; the level-64 line
        # compares the map's products before and after its compression, so
        # it passes
        import tvsource.pde_solvers as pde
        real_map = pde.BoundaryMap
        monkeypatch.setattr(pde, "BoundaryMap", lambda G, flux_trace:
                            real_map(G * (1.0 + 1e-6), flux_trace))
        assert cli_main(["check"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "FAIL" in line] == [
            line for line in out if "adjoint gradient identity" in line
            or "trace matches a state solve" in line]
        assert any(line.startswith("[PASS] level-64 boundary map")
                   for line in out)
        assert out[-1] == "2 failure(s)"

    def test_check_reads_the_trace(self, capsys, monkeypatch):
        # G^T off by 1e-6 relative in the map's trace fails the trace line
        # alone: the adjoint line holds for any residual, and neither the
        # adjoint state nor the level-64 line reads the trace
        import tvsource.pde_solvers as pde
        real_trace = pde.BoundaryMap.trace
        monkeypatch.setattr(pde.BoundaryMap, "trace", lambda bmap, load:
                            real_trace(bmap, load * (1.0 + 1e-6)))
        assert cli_main(["check"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "FAIL" in line] == [
            line for line in out if "trace matches a state solve" in line]
        assert out[-2].startswith("[FAIL] boundary map's trace")
        assert out[-1] == "1 failure(s)"

    def test_check_reads_the_compressed_boundary_map(self, capsys,
                                                     monkeypatch):
        # one entry of a factor off by 1e-6 relative fails the level-64 line
        import tvsource.pde_solvers as pde
        real_compress = pde.BoundaryMap.compress

        def spoiled(bmap, *args):
            real_compress(bmap, *args)
            bmap.factors[0][1][0, 0] *= 1.0 + 1e-6

        monkeypatch.setattr(pde.BoundaryMap, "compress", spoiled)
        assert cli_main(["check"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "FAIL" in line] == [
            line for line in out if "level-64 boundary map" in line]
        assert out[-1] == "1 failure(s)"

    def test_check_reads_the_loop_kernels(self, capsys, monkeypatch):
        # a loop divergence off by 1e-6 relative fails the kernel line
        import tvsource.mesh as mesh
        real_kernel = mesh.DualGrid.divergence_kernel
        monkeypatch.setattr(
            mesh.DualGrid, "divergence_kernel", lambda grid, weights, scale:
            real_kernel(grid, weights, scale * (1.0 + 1e-6)))
        assert cli_main(["check"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "FAIL" in line] == [
            line for line in out if "loop kernels are adjoint" in line]
        assert out[-1] == "1 failure(s)"

    def test_solve_from_observation_file(self, tmp_path, capsys):
        dp, f_truth = benchmark_dp(4)
        z = synthesize_observation(dp, f_truth, 0.0, 0)
        obs = tmp_path / "obs.csv"
        write_observation_csv(dp.mesh, z, str(obs))
        code = cli_main(["solve", str(obs), "--level", "4", "--max-iter",
                         "10", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "solve_level4_f.csv").exists()
