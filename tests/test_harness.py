import json
import os
import sys

import numpy as np
import pytest

from khgraph import bodies, cli, duality, harness, report, rotations, solver, verify
from khgraph.config import parse_config
from khgraph.errors import (
    ConfigError,
    ContinuationError,
    LineSearchStallError,
    StrictConvexityError,
)
from khgraph.psi import cap_constant_psi
from khgraph.registry import INSTANCES, get_instance


MINIMAL = {
    "dimension": 2,
    "k": 1,
    "omega": {"kind": "ball", "radius": 0.5},
    "omega_star": {"kind": "ball", "radius": 0.5},
    "psi": {"kind": "constant", "value": 1.0},
}


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL))
        assert cfg.grid == (64, 128)
        assert cfg.continuation == [0.4, 0.2, 0.1]
        assert cfg.tolerances == {"newton_tol": 1e-10, "spd_floor": 1e-8}
        assert cfg.omega.kind == "ball"
        assert cfg.psi.kind == "constant"

    def test_k_out_of_range(self):
        bad = dict(MINIMAL, k=3)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert err.value.key == "k"

    @pytest.mark.parametrize("key", ["omega", "omega_star"])
    @pytest.mark.parametrize(
        "change",
        [{"exponent": 1.5}, {"blend": -3}, {"semi_axes": [1e300, 0.4]}, {"exponent": 1e300}],
        ids=["exponent-1.5", "blend-minus-3", "huge-axis", "huge-exponent"],
    )
    def test_superellipse_exponent_rejected(self, key, change):
        # the last three probe NaN, which must fail the probe as well
        spec = {"kind": "superellipse", "semi_axes": [0.5, 0.4], "exponent": 4.0, **change}
        with pytest.raises(StrictConvexityError):
            parse_config(json.dumps(dict(MINIMAL, **{key: spec})))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps(dict(MINIMAL, extra=1)))
        bad = dict(MINIMAL, omega={"kind": "ball", "radius": 0.5, "spin": 3})
        with pytest.raises(ConfigError):
            parse_config(json.dumps(bad))
        bad = dict(MINIMAL, psi={"kind": "constant", "value": 1.0, "foo": 2})
        with pytest.raises(ConfigError):
            parse_config(json.dumps(bad))

    def test_bad_continuation_schedule(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps(dict(MINIMAL, continuation=[0.1, 0.2])))
        with pytest.raises(ConfigError):
            parse_config(json.dumps(dict(MINIMAL, continuation=[])))

    def test_missing_required_key(self):
        bad = {k: v for k, v in MINIMAL.items() if k != "psi"}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert err.value.key == "psi"

    def test_exponential_psi_spec(self):
        cfg = parse_config(
            json.dumps(
                dict(
                    MINIMAL,
                    psi={
                        "kind": "exponential",
                        "eps": 0.2,
                        "base": {"kind": "constant", "value": 2.0},
                    },
                )
            )
        )
        assert cfg.psi.kind == "exponential"

    def test_registry_instances_parse(self):
        for name in INSTANCES:
            cfg = get_instance(name)
            assert 1 <= cfg.k <= cfg.dimension


class TestReports:
    def sample_report(self):
        return report.SolveReport(
            c_estimate=1.7888,
            residual_history=[[0.4, 5, 1.2e-12], [0.2, 4, 3.4e-13]],
            chi_min=0.99,
            M=1.12,
            M_tilde=1.25,
            mean_u=23.4,
            grid_dump_path="grid.csv",
            wall_time=2.5,
            convergence_flag=True,
        )

    def test_json_round_trip_byte_identical(self):
        rep = self.sample_report()
        text = rep.to_json()
        again = report.SolveReport.from_json(text).to_json()
        assert text == again

    def test_unknown_report_keys_rejected(self):
        text = self.sample_report().to_json()
        raw = json.loads(text)
        raw["bogus"] = 1
        with pytest.raises(ValueError):
            report.SolveReport.from_json(json.dumps(raw))

    def test_grid_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 37
        nodes = rng.normal(size=(n, 2))
        u = rng.normal(size=n) * 1e3
        du = rng.normal(size=(n, 2)) / 7.0
        radii = np.sort(np.abs(rng.normal(size=(n, 2))), axis=1)
        path = tmp_path / "grid.csv"
        report.write_grid_csv(path, nodes, u, du, radii)
        back = report.read_grid_csv(path)
        assert list(back) == list(report.CSV_COLUMNS)
        np.testing.assert_array_equal(back["y1"], nodes[:, 0])
        np.testing.assert_array_equal(back["u_star"], u)
        np.testing.assert_array_equal(back["du2"], du[:, 1])
        np.testing.assert_array_equal(back["lambda_min"], radii[:, 0])
        np.testing.assert_array_equal(back["lambda_max"], radii[:, 1])


    def test_grid_csv_matches_per_value_writer(self, tmp_path):
        # the reference is the per-value writer the template replaced
        def reference(path, nodes, u_star, gradients, radii):
            with open(path, "w") as fh:
                fh.write(",".join(report.CSV_COLUMNS) + "\n")
                for i in range(nodes.shape[0]):
                    row = (nodes[i, 0], nodes[i, 1], u_star[i], gradients[i, 0],
                           gradients[i, 1], radii[i, 0], radii[i, -1])
                    fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

        from khgraph.grid import build_grid
        from khgraph.registry import cap_dual_exact

        grid = build_grid(bodies.ball(0.5), 16, 32)
        u = cap_dual_exact(grid.nodes, 0.5) + 0.1 * grid.nodes[:, 0] ** 3
        du = grid.gradient(u)
        mats = duality.argument_matrix(grid.nodes, grid.hessians(u))
        radii = np.sort(np.linalg.eigvalsh(mats), axis=1)
        du[3, 1] = -0.0
        args = (grid.nodes, u, du, radii)
        report.write_grid_csv(tmp_path / "new.csv", *args)
        reference(tmp_path / "old.csv", *args)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestCli:
    def test_solve_success_exit_zero(self, tmp_path, capsys):
        cfg = dict(MINIMAL, grid=[12, 24], continuation=[0.4, 0.2])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["solve", "--config", str(path), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        rep = report.SolveReport.from_json(out)
        assert rep.convergence_flag
        assert os.path.exists(rep.grid_dump_path)
        assert os.path.exists(tmp_path / "report.json")

    def test_config_error_exit_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(MINIMAL, k=3)))
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"grid": [4, 8]},
            {"dimension": 3},
            {"omega": {"kind": "ball", "radius": "a"}},
            {"continuation": ["x"]},
            {"omega": {"kind": "ball", "radius": 0.5, "center": [0.1]}},
            {"k": True},
            {"tolerances": {"newton_tol": "1e-10"}},
        ],
        ids=["small-grid", "dimension-3", "string-radius", "string-eps",
             "short-center", "bool-k", "string-tolerance"],
    )
    def test_malformed_config_exit_two_without_traceback(self, tmp_path, capsys, change):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, "grid": [12, 24], **change}))
        code = cli.main(["solve", "--config", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_nan_concavity_probe_exit_two_without_traceback(self, tmp_path, capsys):
        spec = {"kind": "superellipse", "semi_axes": [0.5, 0.4], "blend": -3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, "grid": [12, 24], "omega_star": spec}))
        code = cli.main(["solve", "--config", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert any(line.startswith("config error:") for line in err.splitlines())
        assert "Traceback" not in err

    def test_unreachable_tolerance_exit_three(self, tmp_path):
        cfg = dict(
            MINIMAL,
            grid=[8, 16],
            continuation=[0.4],
            tolerances={"newton_tol": 1e-30},
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["solve", "--config", str(path), "--out", str(tmp_path)])
        assert code == 3
        # partial report serialized for post-mortem
        assert os.path.exists(tmp_path / "report.json")

    def test_failure_report_keeps_completed_levels(self, tmp_path, monkeypatch):
        real = solver.newton_solve
        done = []

        def fail_third(*args, **kwargs):
            if len(done) == 2:
                raise LineSearchStallError("stalled on purpose", history=[1.0])
            result = real(*args, **kwargs)
            done.append(result)
            return result

        monkeypatch.setattr(solver, "newton_solve", fail_third)
        cfg = parse_config(
            json.dumps(dict(MINIMAL, grid=[12, 24], continuation=[0.4, 0.2, 0.1]))
        )
        with pytest.raises(ContinuationError) as err:
            harness.run_solve(cfg, str(tmp_path))
        assert len(err.value.completed_levels) == 2
        text = (tmp_path / "report.json").read_text()

        def reject(token):
            raise ValueError(f"non-JSON constant {token} in report.json")

        # strict JSON: no NaN or Infinity token; the failed solve's answers are null
        raw = json.loads(text, parse_constant=reject)
        for key in ("c_estimate", "chi_min", "M", "M_tilde", "mean_u"):
            assert raw[key] is None
        rep = report.SolveReport.from_json(text)
        assert rep.to_json() == text
        assert not rep.convergence_flag
        assert [row[:2] for row in rep.residual_history] == [
            [0.4, done[0][1]],
            [0.2, done[1][1]],
        ]
        assert all(row[1] > 0 for row in rep.residual_history)
        for row, (_, _, hist) in zip(rep.residual_history, done):
            assert np.isfinite(row[2]) and row[2] == hist[-1]

    def test_field_dump(self, tmp_path):
        out = tmp_path / "field.csv"
        code = cli.main(
            [
                "field",
                "--y0", "0.5,0",
                "--xi", "0,1",
                "--body", "ball:0.5",
                "--out", str(out),
                "--t-samples", "5",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "t,y1,y2,T1,T2"
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 5

    def test_field_rows_equal_per_t_calls(self, tmp_path):
        out = tmp_path / "field.csv"
        args = ["field", "--y0", "0.3,0.4", "--xi=-0.8,0.6", "--body", "ball:0.5",
                "--out", str(out), "--t-samples", "9"]
        assert cli.main(args) == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
        body = bodies.ball(0.5)
        fld = rotations.make_field(np.array([0.3, 0.4]), np.array([-0.8, 0.6]), body)
        ts = np.linspace(0.0, fld.t_max, 9)
        assert len(rows) == ts.size
        for row, t in zip(rows, ts):
            yt = rotations.flow(fld, t, fld.y0)
            tv = rotations.field_eval(fld, yt)
            assert row == ",".join(f"{v:.17g}" for v in (t, yt[0], yt[1], tv[0], tv[1]))

    @pytest.mark.parametrize(
        "body, y0, xi, t_samples",
        [
            ("ball:", "0.5,0", "0,1", "5"),
            ("ball:nan", "0.5,0", "0,1", "5"),
            ("ball:0.5,0.1", "0.5,0", "0,1", "5"),
            ("ball:0.5", "nan,0", "0,1", "5"),
            ("ball:0.5", "0.5,0", "0,1", "-1"),
            ("ball:0.5", "0.5,0,0", "0,1", "5"),
            ("ball:0.5", "0.5,0", "0,1,0", "5"),
            ("ball:0.5", "0.5", "0,1", "5"),
        ],
        ids=["no-radius", "nan-radius", "dropped-center", "nan-anchor",
             "negative-samples", "y0-3d", "xi-3d", "y0-1d"],
    )
    def test_malformed_field_exit_two_without_traceback(
        self, tmp_path, capsys, body, y0, xi, t_samples
    ):
        out = tmp_path / "field.csv"
        code = cli.main(["field", "--y0", y0, "--xi", xi, "--body", body,
                         "--out", str(out), "--t-samples", t_samples])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()
        # a vector of the wrong length is named by its option
        for option, text in (("y0", y0), ("xi", xi)):
            if len(text.split(",")) != 2:
                assert f"'{option}'" in err

    def test_verify_exit_codes(self, capsys):
        assert cli.main(["verify", "--suite", "identities", "--seed", "1"]) == 0
        capsys.readouterr()

    def test_verify_seed_reaches_run_verify(self, monkeypatch, capsys):
        seen = []

        def fake(suite, seed):
            seen.append(seed)
            return {"all_passed": True}

        monkeypatch.setattr(cli, "run_verify", fake)
        assert cli.main(["verify", "--seed", "3"]) == 0
        assert cli.main(["verify"]) == 0
        assert seen == [3, 0]
        # --seed belongs to verify alone; before the subcommand it is unknown
        with pytest.raises(SystemExit) as info:
            cli.main(["--seed", "3", "verify"])
        assert info.value.code == 2
        capsys.readouterr()


class TestVerify:
    def test_duality_suite_passes_fresh(self):
        rep = verify.run_verify("duality", seed=0)
        assert rep["all_passed"], [c for c in rep["checks"] if not c["passed"]]

    def test_sign_flip_mutation_detected(self, monkeypatch):
        # flipping the sign of b* breaks the duality suite but leaves the
        # pointwise identities suite untouched
        original = duality.bstar
        monkeypatch.setattr(duality, "bstar", lambda y: -original(y))
        broken = verify.run_verify("duality", seed=0)
        assert not broken["all_passed"]
        untouched = verify.run_verify("identities", seed=0)
        assert untouched["all_passed"]

    def test_rotations_suite_covers_dimension_three(self):
        rep = verify.run_verify("rotations", seed=2)
        assert rep["all_passed"], [c for c in rep["checks"] if not c["passed"]]

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            verify.run_verify("nonsense")

    @pytest.mark.parametrize("seed", range(8))
    def test_all_suites_pass(self, seed):
        rep = verify.run_verify("all", seed)
        assert len(rep["checks"]) == sum(len(c) for c in verify.SUITES.values())
        assert rep["all_passed"], [c for c in rep["checks"] if not c["passed"]]


def test_benchmark_trace_targets_resolve():
    # the traced benchmark wraps named functions where their callers look
    # them up; a renamed or no longer imported one breaks only that run
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    try:
        import tracing
    finally:
        sys.path.pop(0)
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(tracer)
    try:
        inst.install()
        # the traced grid build reports all five operators' entries, which
        # share one stencil pattern
        g = harness.build_grid(bodies.ball(0.5), 8, 16)
        # newton_solve factors through scipy.sparse.linalg, where the
        # benchmark's linsolve.factor wrapper sits
        problem = solver.DualProblem(g, bodies.ball(0.5), 1, cap_constant_psi(0.5, 1))
        solver.newton_solve(problem, solver.initial_guess(g, bodies.ball(0.5)), 0.4)
    finally:
        inst.uninstall()
    assert not hasattr(harness.run_solve, "__wrapped__")
    (span,) = [s for s in tracer.spans if s[tracing.NAME] == "grid.build_grid"]
    assert span[tracing.ATTRS]["stencil_nnz"] == 5 * g.stencils.indices.size
    # the traced factors are of Jacobians on the shared stencil pattern
    (newton,) = [i for i, s in enumerate(tracer.spans)
                 if s[tracing.NAME] == "newton.newton_solve"]
    factors = [s for s in tracer.spans
               if s[tracing.NAME] == "linsolve.factor" and s[tracing.PARENT] == newton]
    assert factors
    assert all(s[tracing.ATTRS]["jac_nnz"] == g.stencils.indices.size for s in factors)
