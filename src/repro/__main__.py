"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates any paper exhibit from the shell, mirroring how NMO's
post-processing scripts are driven:

    python -m repro table2
    python -m repro fig8 --trials 2 --scale 0.1
    python -m repro fig8 --trials 2 --workers 4 --cache
    python -m repro run examples/scenarios/colo_smoke.json --workers 2
    python -m repro run fig8 --cache
    python -m repro scenarios list
    python -m repro cache stats
    python -m repro list

``run`` executes any declarative scenario — a ``.json`` spec file or a
preset name from ``scenarios list`` — through the one
:class:`~repro.scenarios.Session` path.  ``--workers N`` fans trials
out over N processes; ``--cache`` short-circuits already-computed
trials from the on-disk result cache (see ``docs/cli.md``,
``docs/scenarios.md`` and ``repro.orchestrate``).
"""

from __future__ import annotations

import argparse
import sys

from repro.evalharness import (
    fig2_capacity,
    fig3_bandwidth,
    render_bandwidth,
    render_capacity,
    table1_env_defaults,
    table2_machine_spec,
)
from repro.analysis.plotting import table
from repro.errors import ReproError
from repro.orchestrate import ResultCache, make_cache
from repro.scenarios import (
    SCENARIO_PRESETS,
    Session,
    colo_interference_spec,
    fig7_spec,
    fig8_spec,
    fig9_spec,
    fig10_spec,
    load_scenario,
)
from repro.scenarios.report import (
    render_colo,
    render_fig7,
    render_fig8,
    render_fig9,
    render_fig10_fig11,
)


def _table1(_args) -> str:
    return table(
        ["Option", "Default"],
        [[k, v] for k, v in table1_env_defaults().items()],
        title="Table I",
    )


def _table2(_args) -> str:
    return table(
        ["Component", "Spec"],
        [[k, v] for k, v in table2_machine_spec().items()],
        title="Table II",
    )


def _fig2(args) -> str:
    return render_capacity(fig2_capacity(scale=args.scale))


def _fig3(args) -> str:
    return render_bandwidth(fig3_bandwidth(scale=args.scale))


def _session(args) -> Session:
    """The one execution path of sweep exhibits and ``run``."""
    return Session(
        workers=args.workers, cache=make_cache(args.cache, args.cache_dir)
    )


def _fig7(args) -> str:
    spec = fig7_spec(trials=args.trials, scale=args.workload_scale)
    return render_fig7(_session(args).run(spec).results)


def _fig8(args) -> str:
    spec = fig8_spec(trials=args.trials, scale=args.workload_scale)
    return render_fig8(_session(args).run(spec).results)


def _fig9(args) -> str:
    return render_fig9(_session(args).run(fig9_spec()).results)


def _fig10(args) -> str:
    scale = args.workload_scale if args.workload_scale is not None else 2.0
    spec = fig10_spec(scale=scale)
    return render_fig10_fig11(_session(args).run(spec).results)


def _colo(args) -> str:
    kwargs = {"max_corunners": args.corunners}
    if args.workload_scale is not None:
        kwargs["scale"] = args.workload_scale
    spec = colo_interference_spec(**kwargs)
    return render_colo(_session(args).run(spec).results)


def _run(args) -> str:
    report = _session(args).run(load_scenario(args.action))
    if args.report_json:
        report.dump(args.report_json)
    return report.render()


def _serve(args) -> str:
    from repro.orchestrate import default_workers
    from repro.serve import ProfilingServer

    server = ProfilingServer(
        host=args.host,
        port=args.port,
        workers=args.workers if args.workers > 0 else default_workers(),
        cache=make_cache(args.cache, args.cache_dir),
        queue_limit=args.queue_limit,
    )
    host, port = server.address
    print(f"serving on {host}:{port} "
          f"(workers={server.pool.workers}, "
          f"queue_limit={server.queue.limit})", flush=True)
    server.serve_forever()
    return "server stopped"


def _parse_agents(raw: str | None) -> list[tuple[str, int]]:
    if not raw:
        raise ReproError(
            "cluster coordinator needs --agents host:port[,host:port...]"
        )
    agents = []
    for item in raw.split(","):
        host, sep, port = item.strip().rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ReproError(
                f"bad --agents entry {item.strip()!r}; expected host:port"
            )
        agents.append((host, int(port)))
    return agents


def _cluster_agents(args) -> str:
    """Query or change a running coordinator's membership table."""
    from repro.serve import ServerClient

    if not args.coordinator:
        raise ReproError(
            "cluster agents needs --coordinator host:port"
        )
    chost, cport = _parse_agents(args.coordinator)[0]
    with ServerClient(chost, cport) as client:
        if args.join:
            ahost, aport = _parse_agents(args.join)[0]
            info = client.agents_join(ahost, aport)
            agent = info["agent"]
            return (
                f"joined {ahost}:{aport} "
                f"(state={agent['state']}, epoch={info['epoch']})"
            )
        if args.leave:
            ahost, aport = _parse_agents(args.leave)[0]
            info = client.agents_leave(ahost, aport)
            agent = info["agent"]
            return (
                f"left {ahost}:{aport} "
                f"(state={agent['state']}, epoch={info['epoch']})"
            )
        info = client.agents_status()
        lines = [
            f"membership epoch {info['epoch']} "
            f"(probes={info['probes']}, "
            f"interval={info['probe_interval_s']}, "
            f"suspect_after={info['suspect_after']}, "
            f"dead_after={info['dead_after']})"
        ]
        for a in info["agents"]:
            lines.append(
                f"  {a['host']}:{a['port']:<6} {a['state']:<8}"
                f" misses={a['misses']} revivals={a['revivals']}"
                + (f"  ({a['reason']})" if a.get("reason") else "")
            )
        return "\n".join(lines)


def _cluster(args) -> str:
    from repro.cluster import Coordinator, HttpGateway, QuotaPolicy, ShardAgent
    from repro.orchestrate import default_workers

    if args.action == "agents":
        return _cluster_agents(args)

    if args.action == "agent":
        agent = ShardAgent(
            host=args.host,
            port=args.port,
            workers=args.workers if args.workers > 0 else default_workers(),
            cache=make_cache(args.cache, args.cache_dir),
            queue_limit=args.queue_limit,
        )
        host, port = agent.address
        print(
            f"shard agent on {host}:{port} "
            f"(workers={agent.pool.workers}, "
            f"queue_limit={agent.queue.limit})",
            flush=True,
        )
        agent.serve_forever()
        return "agent stopped"

    quota = None
    if args.quota_capacity is not None:
        quota = QuotaPolicy(
            capacity=args.quota_capacity, refill_per_s=args.quota_refill
        )
    if args.resume and args.journal is None:
        raise ReproError("cluster coordinator --resume needs --journal PATH")
    coordinator = Coordinator(
        host=args.host,
        port=args.port,
        agents=_parse_agents(args.agents),
        cache=make_cache(args.cache, args.cache_dir),
        queue_limit=args.queue_limit,
        quota=quota,
        probe_interval_s=args.probe_interval,
        journal=args.journal,
        resume=args.resume,
    )
    coordinator.start()  # handshakes every agent before we claim ready
    host, port = coordinator.address
    print(
        f"coordinator on {host}:{port} "
        f"(agents={len(coordinator.agents)}, "
        f"queue_limit={coordinator.queue.limit}, "
        f"journal={coordinator.journal.path if coordinator.journal else None}, "
        f"resumed_jobs={coordinator.resumed_jobs})",
        flush=True,
    )
    gateway = None
    if args.http_port is not None:
        gateway = HttpGateway(coordinator, host=args.host, port=args.http_port)
        gateway.start()
        ghost, gport = gateway.address
        print(f"http gateway on {ghost}:{gport}", flush=True)
    try:
        coordinator.serve_forever()
    finally:
        if gateway is not None:
            gateway.stop()
    return "coordinator stopped"


def _scenarios_cmd(_args) -> str:
    width = max(len(n) for n in SCENARIO_PRESETS) + 2
    return "\n".join(
        f"{name:<{width}}{desc}"
        for name, (_factory, desc) in sorted(SCENARIO_PRESETS.items())
    )


def _cache_cmd(args) -> str:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        n = cache.clear()
        return f"cleared {n} entries from {cache.dir}"
    return cache.describe()


#: exhibit name -> (handler, one-line description); ``docs/cli.md`` and
#: ``python -m repro list`` both render from this registry
COMMANDS: dict[str, tuple] = {
    "table1": (_table1, "Table I: NMO environment variables and defaults"),
    "table2": (_table2, "Table II: simulated Ampere Altra Max specification"),
    "fig2": (_fig2, "Fig. 2: memory capacity over time (CloudSuite pair)"),
    "fig3": (_fig3, "Fig. 3: memory bandwidth over time (CloudSuite pair)"),
    "fig7": (_fig7, "Fig. 7: SPE samples vs sampling period, with trials"),
    "fig8": (_fig8, "Fig. 8: accuracy/overhead/collisions vs period"),
    "fig9": (_fig9, "Fig. 9: accuracy/overhead vs aux buffer size"),
    "fig10": (_fig10, "Figs. 10-11: thread-count sweep (overhead/throttling)"),
    "fig11": (_fig10, "Figs. 10-11: thread-count sweep (overhead/throttling)"),
    "colo_interference": (
        _colo, "Colo: co-located processes on a contended DRAM channel"
    ),
    "run": (_run, "run a declarative scenario: `run <scenario.json|name>`"),
    "serve": (
        _serve, "profiling service: persistent Session server over a socket"
    ),
    "cluster": (
        _cluster,
        "multi-host profiling: `cluster agent` / `cluster coordinator` / "
        "`cluster agents`",
    ),
    "scenarios": (
        _scenarios_cmd, "scenario registry: `scenarios list` names presets"
    ),
    "cache": (_cache_cmd, "result-cache maintenance: `cache stats` / `cache clear`"),
}

#: commands whose ``action`` positional is required (and what it means)
ACTION_COMMANDS = {
    "cache": ("stats", "clear"),
    "cluster": ("agent", "coordinator", "agents"),
    "scenarios": ("list",),
    "run": None,  # any scenario file path or preset name
}

#: colo_interference pins 8 threads per co-runner on the 128-core Altra
#: Max, so at most 16 processes fit
MAX_CORUNNERS = 16


def _render_list() -> str:
    width = max(len(n) for n in COMMANDS) + 2
    lines = [f"{name:<{width}}{desc}" for name, (_fn, desc) in
             sorted(COMMANDS.items())]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate a paper table/figure on the simulated testbed.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + ["list"],
        help="which exhibit to regenerate (or: list, run, scenarios, cache)",
    )
    parser.add_argument(
        "action", nargs="?",
        help="subcommand argument: `cache stats|clear`, `scenarios list`, "
             "`run <scenario.json|name>`",
    )
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per sweep point (fig7/fig8; default 3)")
    parser.add_argument("--scale", type=float, default=None,
                        help="wall-clock scale for fig2/fig3 (default 0.1)")
    parser.add_argument("--workload-scale", type=float, default=None,
                        help="op-count scale override for sweeps")
    parser.add_argument("--corunners", type=int, default=None,
                        help="max co-located processes swept by "
                             "colo_interference (default 4)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for sweep exhibits "
                             "(1 = serial, 0 = one per core)")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="reuse trial results from the on-disk cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (default: $REPRO_CACHE_DIR "
                             "or ~/.cache/repro); implies --cache")
    parser.add_argument("--report-json", default=None, metavar="PATH",
                        help="also dump the run's JSON report (run only)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="serve: interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7123,
                        help="serve: TCP port to listen on "
                             "(default 7123, 0 = OS-assigned)")
    parser.add_argument("--queue-limit", type=int, default=16,
                        help="serve: max queued+running jobs before "
                             "admission rejects (default 16)")
    parser.add_argument("--agents", default=None, metavar="HOST:PORT,...",
                        help="cluster coordinator: comma-separated shard "
                             "agent addresses (required)")
    parser.add_argument("--http-port", type=int, default=None, metavar="PORT",
                        help="cluster coordinator: also serve the HTTP/JSON "
                             "gateway on this port (0 = OS-assigned)")
    parser.add_argument("--quota-capacity", type=float, default=None,
                        metavar="TRIALS",
                        help="cluster coordinator: per-tenant token-bucket "
                             "burst, in trial tokens (unset = no quotas)")
    parser.add_argument("--quota-refill", type=float, default=1.0,
                        metavar="TRIALS_PER_S",
                        help="cluster coordinator: sustained per-tenant "
                             "refill rate (default 1.0 trials/s)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="cluster coordinator: append-only NDJSON job "
                             "journal for crash recovery (unset = none)")
    parser.add_argument("--resume", action="store_true",
                        help="cluster coordinator: replay --journal on boot, "
                             "re-adopting journaled jobs without recomputing "
                             "landed trials")
    parser.add_argument("--probe-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="cluster coordinator: background health-probe "
                             "interval for agent failure detection and "
                             "revival (unset = no prober)")
    parser.add_argument("--coordinator", default=None, metavar="HOST:PORT",
                        help="cluster agents: coordinator address to query "
                             "or change membership on")
    parser.add_argument("--join", default=None, metavar="HOST:PORT",
                        help="cluster agents: admit (or revive) this shard "
                             "agent in the coordinator's membership")
    parser.add_argument("--leave", default=None, metavar="HOST:PORT",
                        help="cluster agents: deregister this shard agent "
                             "(state `left`; never auto-revived)")
    args = parser.parse_args(argv)

    if args.experiment in ACTION_COMMANDS:
        allowed = ACTION_COMMANDS[args.experiment]
        if args.action is None:
            wanted = "a scenario file or name" if allowed is None else (
                " or ".join(allowed)
            )
            parser.error(f"{args.experiment} requires an action: {wanted}")
        if allowed is not None and args.action not in allowed:
            parser.error(
                f"{args.experiment} action must be one of "
                f"{', '.join(allowed)}; got {args.action!r}"
            )
    elif args.action is not None:
        parser.error(f"{args.experiment} takes no action argument")
    if args.experiment in ("run", "scenarios", "serve", "cluster"):
        # a scenario's grid comes from its spec — refuse flags that
        # would otherwise be silently ignored
        passed = [
            flag
            for attr, flag in (
                ("trials", "--trials"), ("scale", "--scale"),
                ("workload_scale", "--workload-scale"),
                ("corunners", "--corunners"),
            )
            if getattr(args, attr) is not None
        ]
        if passed:
            parser.error(
                f"{args.experiment} takes its grid from the scenario spec; "
                f"{', '.join(passed)} not allowed (edit the spec instead)"
            )
    if args.report_json is not None and args.experiment != "run":
        parser.error("--report-json applies to run only")
    if args.trials is None:
        args.trials = 3
    if args.scale is None:
        args.scale = 0.1
    if args.corunners is None:
        args.corunners = 4
    if args.workers < 0:
        parser.error(f"--workers must be >= 0 (0 = auto), got {args.workers}")
    if not 1 <= args.corunners <= MAX_CORUNNERS:
        parser.error(
            f"--corunners must be in [1, {MAX_CORUNNERS}] "
            f"(8 threads per co-runner on 128 cores), got {args.corunners}"
        )
    if args.experiment == "list":
        print(_render_list())
        return 0
    fn, _desc = COMMANDS[args.experiment]
    try:
        print(fn(args))
    except ReproError as e:
        # bad scenario files, unknown workload/machine names, ... —
        # user input problems, not tracebacks
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
