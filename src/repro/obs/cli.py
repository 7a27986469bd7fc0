"""``repro metrics`` subcommand: inspect telemetry locally or over HTTP.

Two modes:

* ``repro metrics --url http://host:8000`` -- fetch the service's
  ``/metrics``, validate it with the strict exposition parser (so a
  malformed payload is an error here, not in a scraper), and echo it.
* ``repro metrics fig11`` -- run scenarios in-process with the registry
  live, then echo the resulting exposition; the quickest way to see
  engine/sweep/cache series for one workload.  Scenario names, ``--jobs``
  and ``--param`` keys are validated before anything runs.
"""

from __future__ import annotations

import argparse
from typing import List

from .logs import echo
from .prometheus import parse_prometheus, render_prometheus


def metrics_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Show telemetry as Prometheus text exposition.",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="scenarios to run in-process before dumping metrics",
    )
    parser.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="fetch <URL>/metrics from a running service instead",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="decoding-engine worker processes for scenarios that shard "
        "Monte-Carlo shots, such as memory_rare (results are identical "
        "for any N)",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario parameter override (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.url is not None:
        if args.scenarios:
            parser.error("--url and in-process scenarios are mutually exclusive")
        from urllib.request import urlopen

        url = args.url.rstrip("/") + "/metrics"
        with urlopen(url) as response:
            text = response.read().decode("utf-8")
        parse_prometheus(text)  # strict validation before echoing
        echo(text.rstrip("\n"))
        return 0

    from repro.estimator.serialize import parse_override_value

    params = {}
    for pair in args.param:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            parser.error(f"--param expects KEY=VALUE, got {pair!r}")
        params[key] = parse_override_value(raw)

    if args.scenarios:
        from repro.estimator.registry import UnknownParamsError, get_scenario

        scenarios = []
        for name in args.scenarios:
            try:
                scenario = get_scenario(name)
                scenario.validate_params(params)
            except (KeyError, UnknownParamsError) as exc:
                parser.error(exc.args[0])
            scenarios.append(scenario)
        for scenario in scenarios:
            scenario.run(jobs=args.jobs, **params)
    echo(render_prometheus().rstrip("\n"))
    return 0
