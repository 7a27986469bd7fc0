"""Command-line entry point: regenerate the paper's evaluation.

Registry-driven: sections are looked up in the scenario registry
(:mod:`repro.estimator.registry`), so adding a scenario requires zero CLI
edits.

Usage:
    python -m repro                   # headline estimate + Fig. 2 comparison
    python -m repro all               # every analytic table/figure
    python -m repro fig11 table2      # specific sections
    python -m repro --list            # registered scenarios
    python -m repro --json fig13      # structured records instead of text
    python -m repro --jobs 4 memory_rare  # engine workers for Monte Carlo
    python -m repro fig13 --param target_error=1e-11
    python -m repro serve --port 8000 # HTTP estimation service
    python -m repro lint --all        # diagnostics over every scenario
    python -m repro metrics fig11     # run a scenario, dump Prometheus text
    python -m repro --trace out.json fig11  # Chrome trace + span tree

With ``REPRO_STORE_DIR`` set (or ``--store-dir`` given), results are
warm-started from -- and persisted to -- the on-disk result store shared
with ``python -m repro serve``, so repeated invocations skip recomputation
entirely.  Store entries are invalidated automatically when the installed
source changes (content-addressed on the code fingerprint), so a warm run
is always bit-identical to a cold one.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List

from repro.estimator.registry import (
    UnknownParamsError,
    all_sections,
    available_scenarios,
    describe_scenarios,
    get_scenario,
)
from repro.estimator.serialize import dumps_results, parse_override_value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "sections",
        nargs="*",
        metavar="SECTION",
        help="scenario names (see --list), or 'all'; default: headline",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered scenarios and exit"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit structured JSON records instead of rendered text",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="decoding-engine worker processes for scenarios that shard "
        "Monte-Carlo shots, such as memory_rare (results are identical "
        "for any N)",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario parameter override (repeatable); values are parsed "
        "as Python literals when possible",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="warm-start from (and persist to) the on-disk result store "
        "at DIR; defaults to $REPRO_STORE_DIR when that is set",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record spans to a Chrome trace-event JSON at PATH "
        "(viewable in Perfetto) and print a span tree to stderr",
    )
    return parser


def _parse_params(pairs: List[str], parser: argparse.ArgumentParser) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            parser.error(f"--param expects KEY=VALUE, got {pair!r}")
        if key == "jobs":
            parser.error("use --jobs N instead of --param jobs=N")
        params[key] = parse_override_value(raw)
    return params


def _resolve_sections(
    sections: List[str], parser: argparse.ArgumentParser
) -> List[str]:
    """Expand 'all' and validate every name up front via the registry.

    Validating before running anything means a typo cannot fail a
    multi-section invocation partway through, after earlier sections have
    already printed.
    """
    if not sections:
        return ["headline"]
    resolved: List[str] = []
    for name in sections:
        if name == "all":
            resolved.extend(all_sections())
        else:
            resolved.append(name)
    known = set(available_scenarios())
    unknown = sorted({name for name in resolved if name not in known})
    if unknown:
        names = ", ".join(repr(name) for name in unknown)
        parser.error(
            f"unknown section(s): {names}; available: "
            + ", ".join(available_scenarios())
        )
    return resolved


def _validate_params(
    sections: List[str],
    params: Dict[str, Any],
    parser: argparse.ArgumentParser,
) -> None:
    """Reject --param keys any requested scenario doesn't accept, up front.

    Like section names, overrides are validated before anything runs so a
    bad key cannot abort a multi-section invocation partway through.
    """
    if not params:
        return
    for name in sections:
        try:
            get_scenario(name).validate_params(params)
        except UnknownParamsError as exc:
            parser.error(str(exc))


def _open_store(store_dir: str | None):
    """The persistent result store, when enabled; ``None`` otherwise.

    Enabled by ``--store-dir DIR`` or the ``REPRO_STORE_DIR`` env var.
    Imported lazily so the plain CLI never pays for the service layer.
    """
    store_dir = store_dir or os.environ.get("REPRO_STORE_DIR")
    if not store_dir:
        return None
    from repro.service.store import ResultStore

    return ResultStore(store_dir)


def main(argv: List[str]) -> None:
    if argv and argv[0] == "serve":
        from repro.service.api import serve

        serve(argv[1:])
        return
    if argv and argv[0] == "lint":
        from repro.analysis.lint import lint_main

        sys.exit(lint_main(argv[1:]))
    if argv and argv[0] == "metrics":
        from repro.obs.cli import metrics_main

        sys.exit(metrics_main(argv[1:]))

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.list:
        for name, description in describe_scenarios():
            print(f"  {name:12s} {description}")
        return

    params = _parse_params(args.param, parser)
    sections = _resolve_sections(args.sections, parser)
    _validate_params(sections, params, parser)
    banners = bool(args.sections) and "all" in args.sections and not args.json
    store = _open_store(args.store_dir)

    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing(args.trace)

    results = []
    for name in sections:
        scenario = get_scenario(name)
        if store is not None:
            from repro.service.store import run_with_store

            result = run_with_store(
                name, jobs=args.jobs, store=store, **params
            )
        else:
            result = scenario.run(jobs=args.jobs, **params)
        if args.json:
            results.append(result.to_json())
            continue
        if banners:
            print(f"\n===== {name} =====")
        print(scenario.render(result))

    if args.json:
        print(dumps_results(results))

    if args.trace:
        from repro.obs import render_trace_tree, write_trace

        write_trace(args.trace)
        print(render_trace_tree(), file=sys.stderr)


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
