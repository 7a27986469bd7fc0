"""Regenerate the reference values the workload checks compare against.

Run from the repository root (takes about twenty minutes on two cores):

    python3 perfbench/reference.py

and paste the printed dict over ``REFERENCE`` in ``workloads.py``.  The
seeds here carry a three-word entropy, so they never coincide with a
benchmark unit seed (two words).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bootstrap  # noqa: E402  (thread caps before numpy)

bootstrap.use_source_tree()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from repro.decoder.engine import DecodingEngine  # noqa: E402
from repro.estimator.rare import rare_engine  # noqa: E402
from repro.sim.memory import memory_circuit  # noqa: E402

_TAG = 0x5EED


def _brute(distance, rounds, p, decoder, shard_shots, shots, tag):
    with DecodingEngine(
        memory_circuit(distance, rounds, p), decoder,
        shard_shots=shard_shots, workers=bootstrap.worker_count(),
    ) as engine:
        res = engine.run(shots, seed=np.random.SeedSequence([_TAG, tag, 0]))
    return {"shots": res.shots, "failures": res.failures}


def _rare(shots):
    out = {}
    for d in wl.RARE_DISTANCES:
        for p in wl.RARE_PS:
            engine = rare_engine(
                memory_circuit(d, wl.RARE_ROUNDS, p), "mwpm",
                min_failure_weight=(d + 1) // 2, workers=bootstrap.worker_count(),
            )
            with engine:
                res = engine.run(
                    shots, seed=np.random.SeedSequence([_TAG, d, int(p * 1e6)])
                )
            out[f"d{d}_p{p:g}"] = {
                "shots": res.shots,
                "rate": float(f"{res.weighted_rate:.4g}"),
                "std_error": float(f"{res.std_error:.4g}"),
            }
            print(f"d={d} p={p:g}: rate {res.weighted_rate:.4g} "
                  f"rel {res.rel_error:.3f} ess {res.ess:.0f}/{res.shots}",
                  file=sys.stderr)
    return out


def main() -> None:
    reference = {
        "brute_d11_uf": _brute(11, 12, 5e-4, "union_find", 4096, 1 << 20, 11),
        "brute_d5_mwpm": _brute(5, 5, 1e-3, "mwpm", 4096, 1 << 23, 5),
        "rare_sweep": _rare(512 * wl.RARE_WAVE_SHOTS),
    }
    print(reference)


if __name__ == "__main__":
    main()
