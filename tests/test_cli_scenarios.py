"""CLI + scenario-registry tests: smoke, JSON round-trip, golden values.

The golden files under ``tests/golden/`` were captured from the
pre-refactor (PR 1) code; the registry-driven pipeline must reproduce
them bit-identically (text) / within 1e-12 (numerics).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.estimator.registry import (
    all_sections,
    available_scenarios,
    run_scenario,
)

GOLDEN = Path(__file__).parent / "golden"


class TestScenarioSmoke:
    @pytest.mark.parametrize("name", sorted(available_scenarios()))
    def test_every_scenario_runs_through_dispatcher(self, name, capsys):
        main([name])
        out = capsys.readouterr().out
        assert out.strip(), f"scenario {name} printed nothing"

    @pytest.mark.parametrize("name", sorted(available_scenarios()))
    def test_every_scenario_json_round_trips(self, name, capsys):
        main(["--json", name])
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        result = payload[0]
        assert result["scenario"] == name
        assert isinstance(result["records"], list) and result["records"]
        assert all(isinstance(r, dict) for r in result["records"])

    def test_structured_records_match_render_source(self):
        result = run_scenario("table2")
        columns = {r["column"] for r in result.records}
        assert columns == {"ours", "gidney_ekera"}
        assert result.metadata["grid_points_evaluated"] > 0


class TestCLI:
    def test_headline_default(self, capsys):
        main([])
        out = capsys.readouterr().out
        assert "transversal" in out
        assert "days" in out

    def test_list_names_every_scenario(self, capsys):
        main(["--list"])
        out = capsys.readouterr().out
        for name in available_scenarios():
            assert name in out

    def test_multiple_sections(self, capsys):
        main(["table1", "fig6b"])
        out = capsys.readouterr().out
        assert "site_spacing_um" in out
        assert "SE rounds/CNOT" in out

    def test_unknown_section_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_unknown_section_validated_before_any_output(self, capsys):
        """A typo must not fail partway through a multi-section run."""
        with pytest.raises(SystemExit):
            main(["table1", "nope"])
        assert "site_spacing_um" not in capsys.readouterr().out

    def test_unknown_param_rejected_with_section_name(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig6b", "--param", "bogus_knob=3"])
        err = capsys.readouterr().err
        assert "fig6b" in err and "bogus_knob" in err

    def test_bad_param_exit_code_and_message_pinned(self, capsys):
        """argparse's up-front rejection: exit code 2, key named on stderr."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fig6b", "--param", "bad=1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fig6b" in err and "'bad'" in err and "supported" in err

    def test_bad_param_exit_code_pinned_in_subprocess(self):
        """The real process exit status, not just the in-process SystemExit."""
        repo_root = Path(__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fig6b", "--param", "bad=1"],
            capture_output=True,
            cwd=repo_root,
            env=env,
        )
        assert proc.returncode == 2
        assert b"'bad'" in proc.stderr and b"fig6b" in proc.stderr
        assert proc.stdout == b""

    def test_unknown_param_validated_before_any_output(self, capsys):
        """A param one section rejects must not abort mid-invocation."""
        with pytest.raises(SystemExit):
            main(["fig6b", "table1", "--param", "target_error=1e-9"])
        out, err = capsys.readouterr()
        assert "SE rounds/CNOT" not in out  # fig6b never printed
        assert "table1" in err and "target_error" in err

    def test_json_is_rfc_valid_with_infeasible_points(self, capsys):
        """fig11_idle carries inf volumes; JSON must not emit Infinity."""
        main(["--json", "fig11_idle"])
        out = capsys.readouterr().out
        assert "Infinity" not in out
        payload = json.loads(out)
        volumes = [r["volume"] for r in payload[0]["records"]]
        assert None in volumes  # infeasible points serialized as null
        assert any(isinstance(v, float) for v in volumes)

    def test_param_override_changes_output(self, capsys):
        main(["--json", "fig6b", "--param", "target_error=1e-9"])
        loose = json.loads(capsys.readouterr().out)[0]
        main(["--json", "fig6b"])
        tight = json.loads(capsys.readouterr().out)[0]
        assert loose["metadata"]["target_error"] == 1e-9
        assert loose["records"][0]["volume"] < tight["records"][0]["volume"]

    def test_jobs_flag_matches_serial(self, capsys):
        main(["--json", "fig14"])
        serial = capsys.readouterr().out
        main(["--json", "--jobs", "2", "fig14"])
        sharded = capsys.readouterr().out
        assert serial == sharded

    def test_all_covers_canonical_sections(self, capsys):
        assert all_sections() == (
            "table1", "table2", "fig2", "fig6b",
            "fig11", "fig12", "fig13", "fig14",
        )


class TestGolden:
    def test_cli_all_bit_identical(self, capsys):
        main(["all"])
        out = capsys.readouterr().out
        assert out == (GOLDEN / "cli_all.txt").read_text()

    def test_cli_headline_bit_identical(self, capsys):
        main([])
        out = capsys.readouterr().out
        assert out == (GOLDEN / "cli_headline.txt").read_text()

    def test_numeric_outputs_within_1e12(self):
        from repro.algorithms.factoring import estimate_factoring
        from repro.experiments import fig6, fig11, fig13, fig14

        golden = json.loads((GOLDEN / "estimator_values.json").read_text())

        def check_curve(curve, expected):
            pairs = sorted([[float(k), v] for k, v in curve.items()])
            assert len(pairs) == len(expected)
            for (key, value), (gkey, gvalue) in zip(pairs, expected):
                assert key == pytest.approx(gkey, abs=0.0)
                assert value == pytest.approx(gvalue, rel=1e-12)

        est = estimate_factoring()
        head = golden["headline"]
        assert est.physical_qubits == pytest.approx(
            head["physical_qubits"], rel=1e-12
        )
        assert est.runtime_seconds == pytest.approx(
            head["runtime_seconds"], rel=1e-12
        )
        assert est.logical_error == pytest.approx(
            head["logical_error"], rel=1e-12
        )
        assert est.num_factories == head["num_factories"]
        check_curve(fig6.generate_fig6b(), golden["fig6b"])
        check_curve(
            fig11.factory_volume_vs_se_rounds(1 / 6),
            golden["fig11_factory_alpha_sixth"],
        )
        check_curve(fig13.volume_vs_alpha(), golden["fig13_alpha"])
        check_curve(fig13.volume_vs_coherence(), golden["fig13_coherence"])
        check_curve(
            fig14.volume_vs_acceleration(), golden["fig14_acceleration"]
        )
        check_curve(
            fig14.volume_vs_reaction_time(), golden["fig14_reaction"]
        )
        tradeoff = fig14.qubit_time_tradeoff()
        for point, gpoint in zip(tradeoff, golden["fig14_tradeoff"]):
            assert point[0] == pytest.approx(gpoint[0], rel=1e-12)
            assert point[1] == pytest.approx(gpoint[1], rel=1e-12)

    def test_optimizer_volume_matches_golden(self):
        from repro.algorithms.optimizer import optimize_factoring

        golden = json.loads((GOLDEN / "estimator_values.json").read_text())
        result = optimize_factoring()
        assert result.spacetime_volume == pytest.approx(
            golden["optimizer"]["best_volume"], rel=1e-12
        )
        for key in ("window_exp", "window_mul", "runway_separation",
                    "runway_padding"):
            assert getattr(result.parameters, key) == golden["optimizer"][key]


class TestRenderTableII:
    def test_empty_rows_return_message_not_stopiteration(self):
        from repro.experiments.tables import render_table_ii

        out = render_table_ii({})
        assert "no rows" in out

    def test_nonempty_rows_render(self):
        from repro.experiments.tables import render_table_ii

        out = render_table_ii({"ours": {"window_exp": 3}})
        assert "window_exp" in out


class TestLintCLI:
    """python -m repro lint: the static-analysis driver's CLI surface."""

    @staticmethod
    def _run_lint(*argv):
        repo_root = Path(__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            capture_output=True, text=True, cwd=repo_root, env=env,
        )

    def test_in_process_single_scenario_is_clean(self, capsys):
        from repro.analysis.lint import lint_main

        assert lint_main(["fig13"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_in_process_unknown_scenario_exits_2(self, capsys):
        from repro.analysis.lint import lint_main

        with pytest.raises(SystemExit) as excinfo:
            lint_main(["nonesuch"])
        assert excinfo.value.code == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_in_process_names_plus_all_rejected(self, capsys):
        from repro.analysis.lint import lint_main

        with pytest.raises(SystemExit) as excinfo:
            lint_main(["fig13", "--all"])
        assert excinfo.value.code == 2

    def test_all_scenarios_clean_in_subprocess(self):
        """The CI gate: zero error-severity diagnostics repo-wide."""
        proc = self._run_lint("--all")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 error(s)" in proc.stdout

    def test_source_lint_warnings_do_not_gate_by_default(self):
        proc = self._run_lint("fig13", "--source")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_fail_on_warning_gates_source_warnings(self):
        # The simulators' unseeded default_rng fallbacks are known
        # warnings, so tightening the threshold must flip the exit code.
        proc = self._run_lint("fig13", "--source", "--fail-on", "warning")
        assert proc.returncode == 1
        assert "default_rng" in proc.stdout


class TestMetricsCLI:
    """python -m repro metrics: outside input is rejected before any run."""

    @staticmethod
    def _usage_error(monkeypatch, capsys, *argv):
        from repro.estimator.registry import Scenario
        from repro.obs.cli import metrics_main

        def forbidden_run(self, *args, **kwargs):
            raise AssertionError(f"scenario {self.name!r} must not run")

        monkeypatch.setattr(Scenario, "run", forbidden_run)
        with pytest.raises(SystemExit) as excinfo:
            metrics_main(list(argv))
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("name", ["table2", "fig11"])
    def test_jobs_below_one_rejected(self, name, monkeypatch, capsys):
        err = self._usage_error(monkeypatch, capsys, name, "--jobs", "0")
        assert "--jobs must be >= 1" in err

    def test_unknown_scenario_rejected(self, monkeypatch, capsys):
        err = self._usage_error(monkeypatch, capsys, "table2", "nosuch")
        assert "unknown scenario 'nosuch'" in err

    def test_unknown_param_rejected(self, monkeypatch, capsys):
        err = self._usage_error(
            monkeypatch, capsys, "fig11", "--param", "bogus=1"
        )
        assert "does not accept parameter(s) 'bogus'" in err

    def test_valid_run_dumps_sweep_series(self, capsys):
        from repro.obs.cli import metrics_main

        assert metrics_main(["fig13", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro_sweep_points_total" in out
