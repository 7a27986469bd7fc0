"""Registry-contract verification: every registered plugin is usable.

The repo's extension points are string registries -- decoders
(:mod:`repro.decoder.engine`), noise models (:mod:`repro.noise.models`),
scenarios (:mod:`repro.estimator.registry`).  A registration that imports
fine but cannot actually be constructed (wrong factory signature, missing
required argument, protocol non-conformance) only explodes when a user
first selects that name.  This pass constructs every registered entry
against a small reference experiment and checks the structural protocols,
so a broken registration fails ``python -m repro lint`` instead of a
production request.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.passes import PassContext, register_pass

_PASS = "registry_contract"

# Reference experiment shared by every constructibility probe, built once
# per process: a d=3, 2-round memory with its DEM and detector metadata.
_FIXTURE: Optional[Tuple] = None


def _fixture():
    global _FIXTURE
    if _FIXTURE is None:
        from repro.noise.dem import extract_dem
        from repro.sim.memory import MemoryExperimentBuilder

        builder = MemoryExperimentBuilder(3, basis="Z", p=1e-3, strict=False)
        builder.se_round()
        builder.se_round()
        circuit = builder.finalize()
        _FIXTURE = (circuit, extract_dem(circuit), builder.detector_meta)
    return _FIXTURE


def _check_decoders() -> Iterator[Diagnostic]:
    from repro.decoder.base import Decoder
    from repro.decoder.engine import available_decoders, make_decoder

    _, dem, meta = _fixture()
    for name in available_decoders():
        try:
            decoder = make_decoder(name, dem, detector_meta=meta, basis="Z")
        except Exception as exc:
            yield Diagnostic(
                "error", _PASS,
                f"decoder {name!r} failed to build from a d=3 memory DEM: "
                f"{exc!r}",
            )
            continue
        if not isinstance(decoder, Decoder):
            missing = [
                attr
                for attr in (
                    "num_observables", "decode", "decode_defects",
                    "decode_batch", "decode_packed",
                )
                if not hasattr(decoder, attr)
            ]
            yield Diagnostic(
                "error", _PASS,
                f"decoder {name!r} does not satisfy the Decoder protocol "
                f"(missing {missing})",
            )


def _check_noise_models() -> Iterator[Diagnostic]:
    from repro.noise.models import (
        NoiseModel,
        available_noise_models,
        make_noise_model,
    )
    from repro.sim.ops import NOISE_MARKERS

    for name in available_noise_models():
        try:
            model = make_noise_model(name, p=1e-3)
        except Exception as exc:
            yield Diagnostic(
                "error", _PASS,
                f"noise model {name!r} failed to build with p=1e-3: {exc!r}",
            )
            continue
        if not isinstance(model, NoiseModel):
            yield Diagnostic(
                "error", _PASS,
                f"noise model {name!r} does not satisfy the NoiseModel "
                f"protocol (no apply method)",
            )
            continue
        clean, _, _ = _fixture()
        clean = clean.without_noise()
        try:
            noisy = model.apply(clean)
        except Exception as exc:
            yield Diagnostic(
                "error", _PASS,
                f"noise model {name!r} failed to transform a clean d=3 "
                f"memory circuit: {exc!r}",
            )
            continue
        leftover = sum(
            1 for op in noisy.operations if op.name in NOISE_MARKERS
        )
        if leftover:
            yield Diagnostic(
                "error", _PASS,
                f"noise model {name!r} left {leftover} IDLE/FENCE marker(s) "
                f"in its output circuit",
            )


def _check_scenarios() -> Iterator[Diagnostic]:
    import inspect

    from repro.estimator.registry import available_scenarios, get_scenario

    for name in available_scenarios():
        scenario = get_scenario(name)
        if not scenario.description:
            yield Diagnostic(
                "warning", _PASS, f"scenario {name!r} has no description"
            )
        if not callable(scenario.render):
            yield Diagnostic(
                "error", _PASS, f"scenario {name!r} render is not callable"
            )
        try:
            sig = inspect.signature(scenario.build)
        except (TypeError, ValueError):
            yield Diagnostic(
                "error", _PASS,
                f"scenario {name!r} build is not inspectable (not a "
                f"plain callable?)",
            )
            continue
        takes_jobs = "jobs" in sig.parameters or any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in sig.parameters.values()
        )
        if not takes_jobs:
            yield Diagnostic(
                "error", _PASS,
                f"scenario {name!r} build does not accept the jobs= "
                f"keyword every runner passes",
            )
        try:
            scenario.accepted_params()
        except Exception as exc:
            yield Diagnostic(
                "error", _PASS,
                f"scenario {name!r} accepted_params() raised {exc!r}",
            )
        if scenario.lint_circuits is not None and not callable(
            scenario.lint_circuits
        ):
            yield Diagnostic(
                "error", _PASS,
                f"scenario {name!r} lint_circuits is not callable",
            )


def _check_decoder_batch_invariance() -> Iterator[Diagnostic]:
    """Every decoder's ``_decode_defects`` must be a per-row function.

    The engine decodes whatever rows a shard draws, duplicates included,
    and MWPM and union-find split every row into defect groups whose
    values they memoize across calls, so a decoder whose per-row output
    depends on its batch-mates, their order or an earlier call would
    silently break the engine's worker-count invariance.  Each decoder
    decodes the same unique rows (the all-zero row among them) as one
    batch, reversed, split in two, and with every row repeated and
    interleaved; the per-row outputs must agree exactly.
    """
    import numpy as np

    from repro.decoder.base import BatchDecoder, defect_lists
    from repro.decoder.engine import available_decoders, make_decoder
    from repro.sim.frame import FrameSimulator

    circuit, dem, meta = _fixture()
    detectors, _ = FrameSimulator(circuit).sample(
        96, rng=np.random.default_rng(20260808)
    )
    detectors = np.asarray(detectors, dtype=np.uint8)
    unique = np.unique(np.vstack([detectors, np.zeros_like(detectors[:1])]), axis=0)
    half = unique.shape[0] // 2
    # Each row twice: forward order interleaved with reversed order.
    twice = np.arange(unique.shape[0])
    twice = np.stack([twice, twice[::-1]], axis=1).reshape(-1)
    for name in available_decoders():
        try:
            decoder = make_decoder(name, dem, detector_meta=meta, basis="Z")
        except Exception:
            continue  # constructibility failures reported by _check_decoders
        if not isinstance(decoder, BatchDecoder):
            continue

        def decode(rows, decoder=decoder):
            return np.asarray(decoder._decode_defects(*defect_lists(rows)))

        try:
            full = decode(unique)
            rev = decode(unique[::-1])
            split = np.concatenate([decode(unique[:half]), decode(unique[half:])])
            repeated = decode(unique[twice])
        except Exception as exc:
            yield Diagnostic(
                "error", _PASS,
                f"decoder {name!r} _decode_defects raised on a d=3 memory "
                f"batch: {exc!r}",
            )
            continue
        if not np.array_equal(full, rev[::-1]):
            yield Diagnostic(
                "error", _PASS,
                f"decoder {name!r} _decode_defects is batch-order "
                f"dependent: reversing the rows changed per-row outputs",
            )
        if not np.array_equal(full, split):
            yield Diagnostic(
                "error", _PASS,
                f"decoder {name!r} _decode_defects is batch-composition "
                f"dependent: splitting the batch changed per-row outputs",
            )
        if not np.array_equal(full[twice], repeated):
            yield Diagnostic(
                "error", _PASS,
                f"decoder {name!r} _decode_defects gives duplicate rows "
                f"different outputs: repeating every row changed them",
            )


def registry_contract(ctx: PassContext) -> Iterator[Diagnostic]:
    """Construct every registered decoder/noise-model/scenario entry."""
    yield from _check_decoders()
    yield from _check_noise_models()
    yield from _check_scenarios()
    yield from _check_decoder_batch_invariance()


register_pass("registry_contract", registry_contract, scope="global")
