"""Circuit-IR verifier: one seeded defect per diagnostics pass.

Each test plants a defect only the targeted pass can see (bypassing
``Circuit.append`` validation by mutating ``circuit.operations``
directly where needed) and checks the pass reports it -- and that clean
builder output reports nothing.  Driver semantics (``fail_on``
thresholds, unknown pass names, full-report exceptions), the verified
extraction entry points, and the builders' ``strict`` flag are covered
at the bottom.
"""

import pytest

import repro.decoder.engine as engine_mod
from repro.analysis import (
    STRUCTURAL_PASSES,
    Diagnostic,
    DiagnosticReport,
    VerificationError,
    available_passes,
    check_graph,
    get_pass,
    verify,
    verify_dem,
    verify_graph,
)
from repro.analysis.passes import PassContext
from repro.decoder.graph import BOUNDARY, DecodingGraph
from repro.noise.dem import DetectorErrorModel, ErrorMechanism, extract_dem
from repro.sim.circuit import Circuit, Operation
from repro.sim.memory import memory_circuit, transversal_cnot_circuit


def structural_errors(circuit, **kwargs):
    """Names of structural passes reporting error-severity findings."""
    report = verify(circuit, passes=STRUCTURAL_PASSES, fail_on=None, **kwargs)
    return report.pass_names("error")


class TestCleanCircuits:
    def test_memory_circuit_is_diagnostic_error_free(self):
        report = verify(memory_circuit(3, 2, 1e-3), fail_on="error",
                        expect_clean=False)
        assert report.ok("error")

    def test_transversal_cnot_circuit_is_error_free(self):
        report = verify(
            transversal_cnot_circuit(3, 4, 1e-3, (2,)),
            fail_on="error", expect_clean=False,
        )
        assert report.ok("error")

    def test_registry_is_complete(self):
        names = available_passes()
        assert set(STRUCTURAL_PASSES) < set(names)
        assert "dem_consistency" in available_passes(scope="circuit")
        assert "registry_contract" in available_passes(scope="global")


class TestRecordDataflow:
    def test_out_of_range_record_reference(self):
        c = Circuit().reset(0).measure(0).detector([0])
        # Bypass append()'s validation: a DETECTOR over a record that
        # will never exist.
        c.operations.append(Operation("DETECTOR", (7,)))
        assert structural_errors(c) == ("record_dataflow",)

    def test_negative_record_reference(self):
        c = Circuit().reset(0).measure(0)
        c.operations.append(Operation("OBSERVABLE_INCLUDE", (-1,)))
        assert "record_dataflow" in structural_errors(c)

    def test_unused_records_warn_not_error(self):
        c = Circuit().reset(0, 1).measure(0, 1).detector([0])
        report = verify(c, passes=["record_dataflow"], fail_on=None)
        assert report.ok("error")
        assert any("never" in d.message for d in report.warnings)

    def test_empty_record_list_warns(self):
        c = Circuit().reset(0).measure(0).detector([])
        report = verify(c, passes=["record_dataflow"], fail_on=None)
        assert any("empty record list" in d.message for d in report.warnings)


class TestQubitLiveness:
    def test_two_qubit_gate_pairing_qubit_with_itself(self):
        c = Circuit().reset(0).cx(0, 0).measure(0)
        assert structural_errors(c) == ("qubit_liveness",)

    def test_ccz_triple_with_repeat(self):
        c = Circuit().reset(0, 1)
        c.operations.append(Operation("CCZ", (0, 1, 1)))
        c.measure(0, 1)
        assert structural_errors(c) == ("qubit_liveness",)

    def test_gate_on_never_reset_qubit_warns(self):
        c = Circuit().h(0).measure(0)
        report = verify(c, passes=["qubit_liveness"], fail_on=None)
        assert report.ok("error")
        assert any("before any reset" in d.message for d in report.warnings)

    def test_reset_then_gate_is_silent(self):
        c = Circuit().reset(0, 1).cx(0, 1).measure(0, 1)
        report = verify(c, passes=["qubit_liveness"], fail_on=None)
        assert len(report) == 0


class TestNoisePlacement:
    def test_leftover_marker_after_noise_transform(self):
        c = Circuit().reset(0).idle([0]).depolarize1([0], 1e-3).measure(0)
        assert structural_errors(c, expect_clean=False) == ("noise_placement",)

    def test_channel_in_clean_builder_circuit(self):
        c = Circuit().reset(0).depolarize1([0], 1e-3).measure(0)
        assert structural_errors(c, expect_clean=True) == ("noise_placement",)

    def test_unknown_stage_flags_only_coexistence(self):
        # Markers alone (a clean circuit nobody transformed yet): fine.
        markers_only = Circuit().reset(0).idle([0]).measure(0)
        assert structural_errors(markers_only) == ()
        # Markers next to channels: some transform half-ran.
        mixed = Circuit().reset(0).idle([0]).x_error([0], 1e-3).measure(0)
        assert structural_errors(mixed) == ("noise_placement",)

    def test_zero_probability_channel_warns(self):
        c = Circuit().reset(0).x_error([0], 0.0).measure(0)
        report = verify(c, passes=["noise_placement"], fail_on=None,
                        expect_clean=False)
        assert report.ok("error")
        assert any("zero probability" in d.message for d in report.warnings)


class TestTimingOverlap:
    def test_same_qubit_twice_between_ticks(self):
        c = Circuit().reset(0, 1).tick().h(0).cx(0, 1).tick().measure(0, 1)
        report = verify(c, passes=["timing_overlap"], fail_on=None)
        assert [d.pass_name for d in report.at_least("warning")] == ["timing_overlap"]
        assert "qubit 0" in report.diagnostics[0].message

    def test_silent_without_any_tick(self):
        c = Circuit().reset(0).h(0).h(0).measure(0)
        report = verify(c, passes=["timing_overlap"], fail_on=None)
        assert len(report) == 0


class TestDemConsistency:
    def test_detector_no_mechanism_can_fire(self):
        # Noise only on qubit 0; the detector over qubit 1's measurement
        # is structurally fine but nothing can ever flip it.
        c = (
            Circuit().reset(0, 1).depolarize1([0], 1e-3)
            .measure(0, 1).detector([0]).detector([1])
        )
        assert structural_errors(c, expect_clean=False) == ()
        report = verify(c, passes=["dem_consistency"], fail_on=None,
                        expect_clean=False)
        assert report.pass_names("error") == ("dem_consistency",)
        assert any("covered by no error mechanism" in d.message
                   for d in report.errors)

    def test_clean_memory_dem_is_consistent(self):
        report = verify(memory_circuit(3, 2, 1e-3),
                        passes=["dem_consistency"], fail_on=None)
        assert report.ok("error")


class TestRegistryContract:
    def test_clean_registries_have_no_errors(self):
        report = verify(Circuit(), passes=["registry_contract"], fail_on=None)
        assert report.ok("error"), report.render()

    def test_broken_decoder_registration_is_caught(self, monkeypatch):
        def bad_factory(dem):  # wrong signature: no detector_meta/basis
            raise AssertionError("unreachable")

        monkeypatch.setitem(engine_mod._REGISTRY, "zz_broken", bad_factory)
        report = verify(Circuit(), passes=["registry_contract"], fail_on=None)
        assert any("'zz_broken'" in d.message for d in report.errors)

    def test_non_protocol_decoder_is_caught(self, monkeypatch):
        monkeypatch.setitem(
            engine_mod._REGISTRY,
            "zz_not_a_decoder",
            lambda dem, *, detector_meta=None, basis="Z": object(),
        )
        report = verify(Circuit(), passes=["registry_contract"], fail_on=None)
        assert any(
            "'zz_not_a_decoder'" in d.message and "protocol" in d.message
            for d in report.errors
        )


class TestVerifyDriver:
    def test_unknown_pass_name_raises_before_running(self):
        with pytest.raises(ValueError, match="unknown verification pass"):
            verify(Circuit(), passes=["nonesuch"])

    def test_unknown_fail_on_raises(self):
        with pytest.raises(ValueError, match="unknown severity"):
            verify(Circuit(), fail_on="fatal")

    def test_fail_on_none_never_raises(self):
        c = Circuit().reset(0).cx(0, 0).measure(0)
        report = verify(c, passes=STRUCTURAL_PASSES, fail_on=None)
        assert not report.ok("error")

    def test_fail_on_error_raises_with_full_report(self):
        c = Circuit().reset(0).cx(0, 0).measure(0)
        # Two independent defects; the exception must carry both.
        c.operations.append(Operation("DETECTOR", (9,)))
        with pytest.raises(VerificationError) as exc:
            verify(c, passes=STRUCTURAL_PASSES)
        report = exc.value.report
        assert set(report.pass_names("error")) == {
            "qubit_liveness", "record_dataflow",
        }
        assert "pairs qubit 0 with itself" in str(exc.value)

    def test_fail_on_warning_gates_warnings(self):
        c = Circuit().h(0).measure(0)  # never-reset qubit: warning
        verify(c, passes=["qubit_liveness"], fail_on="error")
        with pytest.raises(VerificationError):
            verify(c, passes=["qubit_liveness"], fail_on="warning")

    def test_report_filters(self):
        report = DiagnosticReport((
            Diagnostic("info", "a", "i"),
            Diagnostic("warning", "a", "w"),
            Diagnostic("error", "b", "e"),
        ))
        assert len(report.at_least("info")) == 3
        assert report.pass_names("warning") == ("a", "b")
        assert [d.message for d in report.by_pass("a")] == ["i", "w"]
        assert not report.ok("warning") and not report.ok("error")

    def test_diagnostic_render_includes_location(self):
        d = Diagnostic("error", "p", "msg", op_index=4, target="fig:lbl")
        assert d.render() == "fig:lbl: error[p] op 4: msg"
        with pytest.raises(ValueError, match="unknown severity"):
            Diagnostic("bogus", "p", "msg")


class TestVerifiedEntryPoints:
    def test_extract_dem_verify_passes_on_clean_circuit(self):
        dem = extract_dem(memory_circuit(3, 2, 1e-3))
        assert verify_dem(dem).ok("error")
        assert dem.mechanisms

    def test_verify_dem_rejects_uncovered_detector(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.1, (0,), ())], num_detectors=2, num_observables=0
        )
        with pytest.raises(VerificationError, match="covered by no"):
            verify_dem(dem)

    def test_verify_dem_rejects_out_of_range_detector(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.1, (0, 5), ())], num_detectors=2,
            num_observables=0,
        )
        with pytest.raises(VerificationError, match="outside"):
            verify_dem(dem)

    def test_verify_dem_warns_on_observable_only_mechanism(self):
        dem = DetectorErrorModel(
            [ErrorMechanism(0.1, (0,), ()), ErrorMechanism(1e-4, (), (0,))],
            num_detectors=1, num_observables=1,
        )
        report = verify_dem(dem, fail_on=None)
        assert report.ok("error")
        assert any("undetectable logical" in d.message for d in report.warnings)

    def test_from_dem_verify_passes_on_clean_circuit(self):
        dem = extract_dem(memory_circuit(3, 2, 1e-3))
        graph = DecodingGraph.from_dem(dem)
        assert verify_graph(graph).ok("error")
        assert graph.edges

    def test_verify_graph_rejects_isolated_detector(self):
        graph = DecodingGraph(2, 0)
        graph.add_mechanism((0,), 0.01, frozenset())
        with pytest.raises(VerificationError, match="isolated"):
            verify_graph(graph)

    def test_check_graph_warns_on_boundaryless_component(self):
        graph = DecodingGraph(2, 0)
        graph.add_mechanism((0, 1), 0.01, frozenset())
        diags = check_graph(graph)
        assert [d.severity for d in diags] == ["warning"]
        assert "cannot reach the boundary" in diags[0].message

    def test_pass_context_caches_dem(self):
        ctx = PassContext(memory_circuit(3, 2, 1e-3))
        assert ctx.dem() is ctx.dem()
        assert ctx.graph() is ctx.graph()


class _MarkerLeavingNoise:
    """A broken noise model: claims to transform but leaves markers."""

    def apply(self, circuit):
        return circuit


class TestStrictBuilders:
    def test_strict_build_rejects_marker_leaving_noise_model(self):
        with pytest.raises(VerificationError, match="leftover"):
            memory_circuit(3, 2, 1e-3, noise=_MarkerLeavingNoise(), strict=True)

    def test_non_strict_build_accepts_it(self):
        circuit = memory_circuit(
            3, 2, 1e-3, noise=_MarkerLeavingNoise(), strict=False
        )
        assert any(op.name == "IDLE" for op in circuit.operations)

    def test_env_var_sets_the_default(self, monkeypatch):
        # conftest sets REPRO_STRICT=1 for the suite: default is strict.
        monkeypatch.setenv("REPRO_STRICT", "1")
        with pytest.raises(VerificationError):
            memory_circuit(3, 2, 1e-3, noise=_MarkerLeavingNoise())
        monkeypatch.setenv("REPRO_STRICT", "0")
        memory_circuit(3, 2, 1e-3, noise=_MarkerLeavingNoise())

    def test_strict_build_of_real_models_is_clean(self):
        # The shipped noise models must all survive strict verification.
        for noise in (None, "biased_pauli", "movement_aware"):
            memory_circuit(3, 2, 1e-3, noise=noise, strict=True)
