"""``python -m repro`` — the reproduction command line.

Subcommands:

- ``list`` — the experiment catalog (name, paper artifact, config).
- ``run NAME... | --all`` — execute experiments through the registry
  runner, with the artifact cache and ``--jobs N`` trial parallelism.
- ``report`` — render cached results without recomputation.
- ``stream DOMAIN`` — serve interleaved monitored streams of one domain
  through :class:`~repro.serve.MonitorService`, with optional
  checkpoint/resume via ``--snapshot`` and a declarative assertion
  suite via ``--suite FILE``.
- ``assertions list|show|lint|diff`` — inspect, export, validate, and
  compare declarative assertion suites (built-in per domain, or JSON
  files written by ``assertions show --json`` / ``repro.core.save_suite``).
- ``serve DOMAIN`` — run the asyncio TCP front-end
  (:class:`~repro.serve.MonitorServer`): newline-delimited JSON requests,
  batched ingestion, bounded-queue backpressure, optional checkpoint via
  ``--snapshot`` and a ``--ready-file`` announcing the bound port.
- ``fleet DOMAIN --shards N`` — run a sharded monitor fleet: worker
  shard processes behind a consistent-hash router speaking the same
  protocol as ``serve``, with live snapshot-based stream migration
  (the ``migrate``/``rebalance`` ops) and coordinated fleet snapshots
  via ``--snapshot``.

Examples
--------
.. code-block:: console

   $ python -m repro list
   $ python -m repro run fig4_video --jobs 4
   $ python -m repro run table6 --seed 7 --set n_video_frames=600
   $ python -m repro run --all --jobs 2
   $ python -m repro report fig4_video
   $ python -m repro stream tvnews --streams 4 --items 8
   $ python -m repro stream ecg --streams 2 --items 3 --snapshot fleet.json
   $ python -m repro assertions list
   $ python -m repro assertions show tvnews --json > suite.json
   $ python -m repro assertions lint suite.json
   $ python -m repro assertions diff tvnews suite.json
   $ python -m repro stream tvnews --suite suite.json --items 3
   $ python -m repro serve tvnews --port 7781
   $ python -m repro serve tvnews --ready-file server.json --snapshot fleet.json
   $ python -m repro fleet tvnews --shards 2 --ready-file fleet.json
   $ python -m repro fleet tvnews --shards 2 --snapshot fleet-snap.json
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys

from repro.utils.codec import from_jsonable, to_jsonable
from repro.utils.tables import format_table


def _parse_value(text: str):
    """Best-effort literal parsing for ``--set key=value`` overrides."""
    try:
        return ast.literal_eval(text)
    except (SyntaxError, ValueError):
        return text


def _config_overrides(spec, args, *, strict: bool = True) -> dict:
    """Map CLI flags onto the experiment's config fields.

    With ``strict`` (explicitly named experiments) an override naming a
    field the config lacks is an error; under ``run --all`` the same
    override is applied only where the field exists, so a battery-wide
    ``--seed 7`` doesn't abort on the knobless experiments.
    """
    field_names = {f.name for f in dataclasses.fields(spec.config_type)}
    overrides: dict = {}
    if args.seed is not None:
        if "seed" in field_names:
            overrides["seed"] = args.seed
        elif strict:
            raise SystemExit(f"error: experiment {spec.name!r} takes no seed")
    if args.trials is not None:
        if "n_trials" in field_names:
            overrides["n_trials"] = args.trials
        elif strict:
            raise SystemExit(f"error: experiment {spec.name!r} has no trials")
    for assignment in args.set or []:
        key, sep, value = assignment.partition("=")
        if not sep:
            raise SystemExit(f"error: --set expects key=value, got {assignment!r}")
        if key in field_names:
            overrides[key] = _parse_value(value)
        elif strict:
            known = ", ".join(sorted(field_names)) or "(none)"
            raise SystemExit(
                f"error: {spec.name!r} config has no field {key!r}; fields: {known}"
            )
    return overrides


def _cmd_list(args) -> int:
    from repro.experiments import list_experiments

    specs = list_experiments()
    if args.json:
        payload = [
            {
                "name": spec.name,
                "artifact": spec.artifact,
                "description": spec.description,
                "config": to_jsonable(spec.config_type()),
            }
            for spec in specs
        ]
        print(json.dumps(payload, indent=2))
        return 0
    rows = []
    for spec in specs:
        fields = dataclasses.fields(spec.config_type)
        config = ", ".join(f"{f.name}={getattr(spec.config_type(), f.name)}" for f in fields)
        rows.append((spec.name, spec.artifact, config or "-"))
    print(format_table(["Experiment", "Paper artifact", "Config defaults"], rows,
                       title=f"{len(specs)} registered experiments"))
    return 0


def _cmd_run(args) -> int:
    from repro.experiments import list_experiments, run_experiment
    from repro.experiments.reporting import render_result
    from repro.experiments.runner import get_experiment

    if args.all:
        if args.names:
            raise SystemExit("error: give experiment names or --all, not both")
        names = [spec.name for spec in list_experiments()]
    elif args.names:
        names = args.names
    else:
        raise SystemExit("error: give at least one experiment name (or --all)")

    # Resolve every name and its overrides up front, so a typo in the
    # last argument fails before the first expensive experiment runs.
    plan = []
    for name in names:
        try:
            spec = get_experiment(name)
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from None
        plan.append((spec, _config_overrides(spec, args, strict=not args.all)))

    payloads = []
    for spec, overrides in plan:
        run = run_experiment(
            spec.name,
            jobs=args.jobs,
            force=args.force,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
            **overrides,
        )
        if args.json:
            payloads.append(
                {
                    "experiment": spec.name,
                    "artifact": spec.artifact,
                    "cached": run.cached,
                    "elapsed_s": run.elapsed_s,
                    "config": to_jsonable(run.config),
                    "result": to_jsonable(run.result),
                }
            )
        else:
            status = (
                f"[{spec.name}] cache hit ({run.path})"
                if run.cached
                else f"[{spec.name}] ran in {run.elapsed_s:.1f}s"
                + (f" → {run.path}" if run.path else "")
            )
            print(status)
            print(render_result(run.result))
            print()
    if args.json:
        # One parseable document: an object for a single experiment, an
        # array when several ran.
        print(json.dumps(payloads[0] if len(payloads) == 1 else payloads, indent=2))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments import list_experiments
    from repro.experiments.reporting import render_result
    from repro.experiments.runner import get_experiment, load_cached

    names = args.names or [spec.name for spec in list_experiments()]
    for name in names:  # validate everything before rendering anything
        try:
            get_experiment(name)
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from None
    missing = []
    shown = 0
    payloads = []
    for name in names:
        entries = load_cached(name, cache_dir=args.cache_dir)
        if not entries:
            missing.append(name)
            continue
        payload, path = entries[0]  # newest; older fingerprints stay on disk
        shown += 1
        if args.json:
            payloads.append(payload)
        else:
            print(f"[{name}] {payload.get('artifact', '')} (cached at {path})")
            print(render_result(from_jsonable(payload["result"])))
            print()
    if args.json and payloads:
        # One parseable document, like `run --json`.
        print(json.dumps(payloads[0] if len(payloads) == 1 else payloads, indent=2))
    if missing and args.names:
        raise SystemExit(
            "error: no cached artifacts for: "
            + ", ".join(missing)
            + " — run `python -m repro run <name>` first"
        )
    if not shown:
        raise SystemExit(
            "error: the artifact cache is empty — run `python -m repro run --all` first"
        )
    return 0


def _resolve_suite(target: str):
    """A suite from a registered domain name or a suite JSON file."""
    import os

    from repro.core.spec import load_suite
    from repro.domains.registry import domain_names, get_domain

    if target in domain_names():
        try:
            return get_domain(target).assertion_suite()
        except NotImplementedError:
            raise SystemExit(
                f"error: domain {target!r} declares no assertion suite"
            ) from None
    if os.path.exists(target):
        try:
            suite = load_suite(target)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        if suite.domain in domain_names():
            # Importing the domain registers the predicates its built-in
            # specs reference, so file-loaded suites lint/compile alone.
            get_domain(suite.domain)
        return suite
    raise SystemExit(
        f"error: {target!r} is neither a registered domain "
        f"({', '.join(domain_names())}) nor a suite file"
    )


def _suite_rows(suite):
    """One table row per compiled assertion of ``suite``."""
    from repro.core.spec import compile_suite

    try:
        database = compile_suite(suite)
    except (KeyError, TypeError, ValueError) as exc:
        # e.g. a file suite referencing an unregistered predicate —
        # `assertions lint` reports the same problem with details.
        raise SystemExit(
            f"error: suite {suite.name!r} does not compile: "
            f"{exc.args[0] if exc.args else exc}"
        ) from None
    rows = []
    for name in database.all_names():
        entry = database.entry(name)
        suite_entry = entry.spec
        rows.append(
            (
                name,
                type(suite_entry.spec).__name__,
                entry.assertion.taxonomy_class,
                ",".join(entry.tags) or "-",
                "yes" if entry.enabled else "no",
                f"{suite_entry.weight:g}",
            )
        )
    return rows


def _cmd_assertions(args) -> int:
    """Inspect / export / validate / diff declarative assertion suites."""
    from repro.core.spec import lint_suite, suite_payload
    from repro.domains.registry import domain_names

    if args.action == "list":
        targets = args.targets or sorted(domain_names())
        if args.json:
            payload = []
            for target in targets:
                suite = _resolve_suite(target)
                payload.append(
                    {
                        "target": target,
                        "suite": suite.name,
                        "version": suite.version,
                        "domain": suite.domain,
                        "assertions": suite.assertion_names(include_disabled=True),
                        "enabled": suite.assertion_names(),
                    }
                )
            print(json.dumps(payload, indent=2))
            return 0
        for target in targets:
            suite = _resolve_suite(target)
            print(
                format_table(
                    ["Assertion", "Spec", "Taxonomy", "Tags", "Enabled", "Weight"],
                    _suite_rows(suite),
                    title=f"{target}: suite {suite.name!r} v{suite.version} "
                    f"({len(suite)} entr{'y' if len(suite) == 1 else 'ies'})",
                )
            )
            print()
        return 0

    if args.action == "show":
        suite = _resolve_suite(args.targets[0])
        if args.json:
            # The export format --suite / load_suite consume.
            print(json.dumps(suite_payload(suite), indent=2))
        else:
            print(
                format_table(
                    ["Assertion", "Spec", "Taxonomy", "Tags", "Enabled", "Weight"],
                    _suite_rows(suite),
                    title=f"suite {suite.name!r} v{suite.version} "
                    f"(domain {suite.domain or '-'})",
                )
            )
            print(
                "\nExport with `python -m repro assertions show "
                f"{args.targets[0]} --json > suite.json`, then serve it with "
                "`python -m repro stream DOMAIN --suite suite.json`."
            )
        return 0

    if args.action == "lint":
        targets = args.targets or sorted(domain_names())
        failures = 0
        for target in targets:
            problems = lint_suite(_resolve_suite(target))
            if problems:
                failures += 1
                print(f"[{target}] {len(problems)} problem(s):")
                for problem in problems:
                    print(f"  - {problem}")
            else:
                print(f"[{target}] OK")
        return 1 if failures else 0

    # diff
    old = _resolve_suite(args.targets[0])
    new = _resolve_suite(args.targets[1])
    diff = old.diff(new)
    if args.json:
        print(
            json.dumps(
                {
                    "old": {"suite": old.name, "version": old.version},
                    "new": {"suite": new.name, "version": new.version},
                    "added": list(diff.added),
                    "removed": list(diff.removed),
                    "changed": list(diff.changed),
                },
                indent=2,
            )
        )
        return 0
    print(
        f"{old.name!r} v{old.version} → {new.name!r} v{new.version}"
        + ("" if diff else ": no entry changes")
    )
    for label, names in (
        ("added", diff.added),
        ("removed", diff.removed),
        ("changed", diff.changed),
    ):
        for name in names:
            print(f"  {label}: {name}")
    return 0


def _check_domain(name: str) -> None:
    """Exit with the CLI error unless ``name`` is a registered domain."""
    from repro.domains.registry import domain_names

    if name not in domain_names():
        raise SystemExit(
            f"error: unknown domain {name!r}; "
            f"registered domains: {', '.join(domain_names())}"
        )


def _check_pinned_suite(args, suite, payload: dict) -> None:
    """Reject a ``--suite`` other than the one the fleet snapshot pins.

    The snapshot pins the fleet's suite like seed/streams: a different
    ``--suite`` would silently reconfigure the resumed fleet (that is
    apply_suite's job, not resume's).
    """
    if not args.suite:
        return
    pinned = payload.get("suite")
    if pinned is not None:
        pinned = from_jsonable(pinned)
    if pinned != suite:
        raise SystemExit(
            f"error: --suite {args.suite} conflicts with the snapshot "
            f"({args.snapshot} was written with a different assertion "
            "suite); drop the flag to resume, or delete the snapshot "
            "to start over"
        )


def _stop_on_signals():
    """An ``asyncio.Event`` set on SIGINT/SIGTERM, for the running loop.

    Explicit handlers, not KeyboardInterrupt: a server launched as a
    shell background job inherits SIGINT ignored, and SIGTERM would
    otherwise kill it before the shutdown snapshot.
    """
    import asyncio
    import signal

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # e.g. non-main thread / platforms without support
    return stop


def _cmd_stream(args) -> int:
    """Serve ``--streams`` interleaved monitored streams of one domain.

    Each stream gets its own seeded world; every round ingests one raw
    unit per stream through :meth:`MonitorService.ingest_batch`. With
    ``--snapshot PATH``: an existing file is restored first (the fleet
    resumes where it checkpointed — each stream's world is fast-forwarded
    by replaying the units already consumed), and the final state is
    written back to PATH. The replay
    makes resume cost linear in a stream's total history (including
    model inference for av/video); snapshotting world RNG state for an
    O(1) resume is future work.
    """
    import os

    from repro.core.seeding import derive_seed
    from repro.serve import MonitorService
    from repro.serve.snapshot import load_snapshot_payload, save_service_snapshot

    _check_domain(args.domain)
    if args.streams is not None and args.streams < 1:
        raise SystemExit("error: --streams must be >= 1")
    if args.items < 1:
        raise SystemExit("error: --items must be >= 1")

    suite = _resolve_suite(args.suite) if args.suite else None
    try:
        service = MonitorService(args.domain, suite=suite)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    seed = args.seed if args.seed is not None else 0
    n_streams = args.streams if args.streams is not None else 2
    resumed = False
    if args.snapshot and os.path.exists(args.snapshot):
        try:
            payload = load_snapshot_payload(args.snapshot)
            service.restore(payload)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        _check_pinned_suite(args, suite, payload)
        provenance = payload.get("cli")
        if provenance is None:
            # Library-written snapshots carry no world seeds, so the CLI
            # cannot rebuild matching worlds — resuming would bolt fresh
            # default-seeded streams onto an unrelated fleet.
            raise SystemExit(
                f"error: {args.snapshot} was not written by `python -m repro "
                "stream` (no CLI provenance); restore it with "
                "repro.serve.load_service_snapshot instead"
            )
        # The snapshot pins seed/streams: the worlds replay from those
        # seeds, so conflicting explicit flags would silently corrupt
        # the resumed streams — reject them instead.
        for flag, given, pinned in (
            ("--seed", args.seed, provenance.get("seed")),
            ("--streams", args.streams, provenance.get("streams")),
        ):
            if given is not None and pinned is not None and given != pinned:
                raise SystemExit(
                    f"error: {flag} {given} conflicts with the snapshot "
                    f"({args.snapshot} was written with {flag[2:]}={pinned}); "
                    "drop the flag to resume, or delete the snapshot to start over"
                )
        seed = provenance.get("seed", seed)
        n_streams = provenance.get("streams", n_streams)
        resumed = True

    stream_ids = [f"{args.domain}-{k}" for k in range(n_streams)]
    iterators = {}
    for k, stream_id in enumerate(stream_ids):
        world = service.domain.build_world(derive_seed(seed, "stream", k))
        iterator = service.domain.iter_stream(world)
        # Resumed streams replay the deterministic world up to where the
        # checkpoint left off, so ingestion continues with fresh units.
        for _ in range(service.session(stream_id).n_raw):
            next(iterator)
        iterators[stream_id] = iterator

    for _ in range(args.items):
        service.ingest_batch(
            [(stream_id, next(iterators[stream_id])) for stream_id in stream_ids]
        )

    fleet = service.fleet_report()
    if args.json:
        print(
            json.dumps(
                {
                    "domain": args.domain,
                    "seed": seed,
                    "resumed": resumed,
                    "streams": {
                        stream_id: {
                            "n_raw": service.session(stream_id).n_raw,
                            "n_items": report.n_items,
                            "fire_counts": report.fire_counts(),
                            "total_fires": report.total_fires(),
                        }
                        for stream_id, report in fleet.stream_reports.items()
                    },
                    "fleet": {
                        "n_items": fleet.aggregate.n_items,
                        "fire_counts": fleet.fire_counts(),
                        "total_fires": fleet.aggregate.total_fires(),
                    },
                },
                indent=2,
            )
        )
    else:
        print(
            f"[{args.domain}] {n_streams} stream(s) × {args.items} raw unit(s)"
            f" this run (seed {seed}, interleaved)"
            + (" — resumed from snapshot" if resumed else "")
        )
        print(fleet.format_table())
        if fleet.aggregate.records:
            first = fleet.aggregate.records[0]
            print(
                f"First fire: stream {first.context}, {first.assertion_name} "
                f"severity {first.severity:g}"
            )
    if args.snapshot:
        save_service_snapshot(
            service,
            args.snapshot,
            extra={"cli": {"seed": seed, "streams": n_streams}},
        )
        if not args.json:
            print(
                f"Snapshot written to {args.snapshot} "
                "(re-run the same command to resume)"
            )
    return 0


def _cmd_serve(args) -> int:
    """Run the asyncio network front-end until interrupted.

    Binds (ephemeral port by default — ``--ready-file`` announces the
    actual address), optionally restores a fleet snapshot first, and on
    SIGINT/SIGTERM writes the fleet back to ``--snapshot`` so a
    restarted server resumes every stream's session state bit-exactly.
    """
    import asyncio
    import os

    from repro.serve import MonitorServer, MonitorService, ServerConfig
    from repro.serve.snapshot import load_snapshot_payload, save_service_snapshot
    from repro.utils.io import atomic_write_json

    _check_domain(args.domain)
    suite = _resolve_suite(args.suite) if args.suite else None
    try:
        service = MonitorService(args.domain, suite=suite)
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_delay=args.max_delay,
            max_pending=args.max_pending,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None

    restored = 0
    if args.snapshot and os.path.exists(args.snapshot):
        try:
            payload = load_snapshot_payload(args.snapshot)
            service.restore(payload)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        _check_pinned_suite(args, suite, payload)
        restored = len(service)

    async def _main() -> None:
        server = MonitorServer(service, config)
        await server.start()
        stop = _stop_on_signals()
        print(
            f"[{args.domain}] serving on {server.host}:{server.port}"
            + (f" — {restored} stream(s) restored from {args.snapshot}"
               if restored else ""),
            flush=True,
        )
        if args.ready_file:
            atomic_write_json(
                {
                    "host": server.host,
                    "port": server.port,
                    "domain": args.domain,
                    "pid": os.getpid(),
                },
                args.ready_file,
            )
        try:
            await stop.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
        print("interrupted — shutting down", flush=True)
    except KeyboardInterrupt:  # signal arrived before the handlers did
        print("interrupted — shutting down", flush=True)
    if args.snapshot:
        save_service_snapshot(service, args.snapshot)
        print(
            f"Snapshot written to {args.snapshot} "
            "(restart the same command to resume the fleet)"
        )
    return 0


def _cmd_fleet(args) -> int:
    """Run a sharded monitor fleet: worker processes + routing front-end.

    Spawns ``--shards`` worker processes (one MonitorServer each), waits
    for readiness, and serves the whole fleet through one consistent-hash
    router endpoint speaking the identical protocol as ``serve`` — so
    clients and the migrate/rebalance ops all talk to one address. With
    ``--snapshot`` an existing coordinated fleet snapshot is restored on
    start and a fresh one written on shutdown.
    """
    import asyncio
    import os
    import tempfile

    from repro.fleet.manager import FleetManager
    from repro.fleet.router import FleetRouter, RouterConfig
    from repro.fleet.snapshot import (
        SnapshotFormatError,
        load_fleet_snapshot,
        save_fleet_snapshot,
    )
    from repro.utils.io import atomic_write_json

    _check_domain(args.domain)
    if args.shards < 1:
        raise SystemExit("error: --shards must be >= 1")

    restore_payload = None
    if args.snapshot and os.path.exists(args.snapshot):
        try:
            restore_payload = load_fleet_snapshot(args.snapshot)
        except SnapshotFormatError as exc:
            raise SystemExit(f"error: {exc}") from None
        if restore_payload["domain"] != args.domain:
            raise SystemExit(
                f"error: {args.snapshot} is a fleet snapshot for domain "
                f"{restore_payload['domain']!r}, not {args.domain!r}"
            )

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-fleet-")
    manager = FleetManager(
        args.domain,
        args.shards,
        workdir=workdir,
        max_batch=args.max_batch,
        max_delay=args.max_delay,
        max_pending=args.max_pending,
    )
    try:
        specs = manager.start()
    except RuntimeError as exc:
        raise SystemExit(f"error: {exc}") from None

    final_snapshot = {}

    async def _main() -> None:
        router = FleetRouter(
            args.domain,
            manager.addresses(),
            RouterConfig(host=args.host, port=args.port),
        )
        await router.start()
        if restore_payload is not None:
            restored = await router.restore_fleet(restore_payload)
            n_streams = sum(len(v) for v in restored["shards"].values())
            print(
                f"{n_streams} stream(s) restored from {args.snapshot}",
                flush=True,
            )
        stop = _stop_on_signals()
        print(
            f"[{args.domain}] fleet of {args.shards} shard(s) on "
            f"{router.host}:{router.port} "
            f"(workers: {', '.join(f'{s.name}={s.host}:{s.port}' for s in specs.values())})",
            flush=True,
        )
        if args.ready_file:
            atomic_write_json(
                {
                    "host": router.host,
                    "port": router.port,
                    "domain": args.domain,
                    "pid": os.getpid(),
                    "shards": {
                        name: {"host": s.host, "port": s.port, "pid": s.pid}
                        for name, s in specs.items()
                    },
                },
                args.ready_file,
            )
        try:
            await stop.wait()
            if args.snapshot:
                final_snapshot["payload"] = await router.fleet_snapshot()
        finally:
            await router.stop()

    try:
        try:
            asyncio.run(_main())
            print("interrupted — shutting down", flush=True)
        except KeyboardInterrupt:  # signal arrived before the handlers did
            print("interrupted — shutting down", flush=True)
    finally:
        manager.stop()
    if args.snapshot and final_snapshot:
        save_fleet_snapshot(final_snapshot["payload"], args.snapshot)
        print(
            f"Fleet snapshot written to {args.snapshot} "
            "(restart the same command to resume every shard)"
        )
    return 0


def _cmd_improve(args) -> int:
    """Run the closed improvement loop over a serving fleet.

    Fires from ``--streams`` monitored streams feed the labeling queue;
    the ``--policy`` picks ``--budget`` units per round for the oracle;
    retraining (inline, or a background process with ``--jobs 2``)
    publishes versioned models that hot-swap into the fleet at a raw-unit
    boundary. With ``--snapshot PATH`` the entire loop state (fleet,
    fire store, bandit posteriors, labeled set, model versions) is
    restored first if the file exists — ``--rounds`` then means
    *additional* rounds — and written back on exit.
    """
    import os

    from repro.improve import ImproveConfig, ImprovementLoop
    from repro.improve.snapshot import load_loop_payload, save_loop_snapshot

    _check_domain(args.domain)

    resumed = False
    if args.snapshot and os.path.exists(args.snapshot):
        try:
            payload = load_loop_payload(args.snapshot)
            config = from_jsonable(payload["config"])
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        if config.domain != args.domain:
            raise SystemExit(
                f"error: {args.snapshot} is an improvement loop for domain "
                f"{config.domain!r}, not {args.domain!r}"
            )
        # The snapshot pins the loop's configuration; conflicting flags
        # would silently corrupt the resumed loop — reject them instead.
        pinned = (
            ("--policy", args.policy, config.policy),
            ("--streams", args.streams, config.n_streams),
            ("--items-per-round", args.items_per_round, config.items_per_round),
            ("--budget", args.budget, config.budget),
            ("--seed", args.seed, config.seed),
            ("--jobs", args.jobs, config.jobs),
            ("--swap-tick", args.swap_tick, config.swap_tick),
        )
        for flag, given, value in pinned:
            if given is not None and given != value:
                raise SystemExit(
                    f"error: {flag} {given} conflicts with the snapshot "
                    f"({args.snapshot} pins {flag[2:].replace('-', '_')}="
                    f"{value}); drop the flag to resume, or delete the "
                    "snapshot to start over"
                )
        if args.weak and not config.weak:
            raise SystemExit(
                f"error: --weak conflicts with the snapshot ({args.snapshot} "
                "was started without weak supervision)"
            )
        if args.suite and _resolve_suite(args.suite) != config.suite:
            raise SystemExit(
                f"error: --suite {args.suite} conflicts with the snapshot "
                f"({args.snapshot} pins the loop's assertion suite); drop "
                "the flag to resume, or delete the snapshot to start over"
            )
        loop = ImprovementLoop.from_snapshot(payload)
        resumed = True
    else:
        overrides = {
            key: value
            for key, value in {
                "policy": args.policy,
                "n_streams": args.streams,
                "items_per_round": args.items_per_round,
                "budget": args.budget,
                "n_rounds": args.rounds,
                "seed": args.seed,
                "jobs": args.jobs,
                "swap_tick": args.swap_tick,
            }.items()
            if value is not None
        }
        if args.weak:
            overrides["weak"] = True
        if args.suite:
            overrides["suite"] = _resolve_suite(args.suite)
        try:
            config = ImproveConfig(domain=args.domain, **overrides)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        try:
            loop = ImprovementLoop(config)
        except NotImplementedError as exc:  # a domain with no retrainable model
            raise SystemExit(f"error: {exc}") from None

    n_rounds = args.rounds if args.rounds is not None else loop.config.n_rounds
    with loop:
        result = loop.run(n_rounds)
        if args.snapshot:
            save_loop_snapshot(loop, args.snapshot)

    if args.json:
        print(
            json.dumps(
                {
                    "domain": result.domain,
                    "policy": result.policy,
                    "budget": result.budget,
                    "resumed": resumed,
                    "metric_name": result.metric_name,
                    "initial_metric": result.initial_metric,
                    "final_metric": result.final_metric,
                    "n_labeled": result.n_labeled,
                    "n_weak": result.n_weak,
                    "versions": [
                        {"version": v, "metric": metric, "round": round_index}
                        for v, metric, round_index in result.versions
                    ],
                    "rounds": [
                        {
                            "round": r.round_index,
                            "version_start": r.version_start,
                            "version_end": r.version_end,
                            "items": r.n_items,
                            "fires": r.n_fires,
                            "fires_per_item": r.fires_per_item,
                            "oracle_new": r.n_oracle_new,
                            "weak_new": r.n_weak_new,
                        }
                        for r in result.rounds
                    ],
                },
                indent=2,
            )
        )
    else:
        print(result.format_table())
        print(
            f"{result.metric_name}: {result.initial_metric:.2f} → "
            f"{result.final_metric:.2f} after {len(result.rounds)} round(s), "
            f"{result.n_labeled} oracle label(s), {result.n_weak} weak"
            + (" — resumed from snapshot" if resumed else "")
        )
        if args.snapshot:
            print(
                f"Snapshot written to {args.snapshot} "
                "(re-run the same command for more rounds)"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures through the experiment registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the experiment catalog")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run experiments (cached, parallel trials)")
    p_run.add_argument("names", nargs="*", help="experiment names (see `list`)")
    p_run.add_argument("--all", action="store_true", help="run every registered experiment")
    p_run.add_argument("--jobs", type=int, default=1, help="worker processes for independent trials")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--trials", type=int, default=None, help="override the config n_trials")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any other config field (repeatable)")
    p_run.add_argument("--force", action="store_true", help="recompute even on a cache hit")
    p_run.add_argument("--no-cache", action="store_true", help="skip the artifact cache entirely")
    p_run.add_argument("--cache-dir", default=None, help="artifact cache directory (default .repro-cache)")
    p_run.add_argument("--json", action="store_true", help="machine-readable output")
    p_run.set_defaults(fn=_cmd_run)

    p_report = sub.add_parser("report", help="render cached results without recomputation")
    p_report.add_argument("names", nargs="*", help="experiment names (default: all cached)")
    p_report.add_argument("--cache-dir", default=None, help="artifact cache directory")
    p_report.add_argument("--json", action="store_true", help="machine-readable output")
    p_report.set_defaults(fn=_cmd_report)

    p_assert = sub.add_parser(
        "assertions",
        help="inspect, export, lint, and diff declarative assertion suites",
    )
    assert_sub = p_assert.add_subparsers(dest="action", required=True)
    p_a_list = assert_sub.add_parser(
        "list", help="every assertion of one or more suites (default: all domains)"
    )
    p_a_list.add_argument("targets", nargs="*", metavar="DOMAIN|FILE",
                          help="registered domain names or suite JSON files")
    p_a_list.add_argument("--json", action="store_true", help="machine-readable output")
    p_a_list.set_defaults(fn=_cmd_assertions)
    p_a_show = assert_sub.add_parser(
        "show", help="render one suite (--json emits the loadable file format)"
    )
    p_a_show.add_argument("targets", nargs=1, metavar="DOMAIN|FILE")
    p_a_show.add_argument("--json", action="store_true",
                          help="emit the suite file payload (what --suite loads)")
    p_a_show.set_defaults(fn=_cmd_assertions)
    p_a_lint = assert_sub.add_parser(
        "lint", help="validate suites; non-zero exit on problems"
    )
    p_a_lint.add_argument("targets", nargs="*", metavar="DOMAIN|FILE",
                          help="suites to check (default: every registered domain)")
    p_a_lint.set_defaults(fn=_cmd_assertions)
    p_a_diff = assert_sub.add_parser("diff", help="entry-level diff of two suites")
    p_a_diff.add_argument("targets", nargs=2, metavar="DOMAIN|FILE")
    p_a_diff.add_argument("--json", action="store_true", help="machine-readable output")
    p_a_diff.set_defaults(fn=_cmd_assertions)

    p_stream = sub.add_parser(
        "stream", help="serve interleaved monitored streams of one domain"
    )
    p_stream.add_argument("domain", help="registered domain (av, ecg, tvnews, video)")
    p_stream.add_argument("--streams", type=int, default=None,
                          help="number of keyed streams (default 2; pinned by --snapshot on resume)")
    p_stream.add_argument("--items", type=int, default=4,
                          help="raw units ingested per stream this run")
    p_stream.add_argument("--seed", type=int, default=None,
                          help="root seed for the stream worlds (default 0; pinned by --snapshot on resume)")
    p_stream.add_argument("--suite", default=None, metavar="FILE",
                          help="declarative assertion suite to monitor with "
                               "(a domain name or a suite JSON file; pinned by --snapshot on resume)")
    p_stream.add_argument("--snapshot", default=None, metavar="PATH",
                          help="checkpoint file: restored first if it exists, written on exit")
    p_stream.add_argument("--json", action="store_true", help="machine-readable output")
    p_stream.set_defaults(fn=_cmd_stream)

    p_serve = sub.add_parser(
        "serve", help="run the asyncio TCP serving front-end for one domain"
    )
    p_serve.add_argument("domain", help="registered domain (av, ecg, tvnews, video)")
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (default 0 = ephemeral; see --ready-file)")
    p_serve.add_argument("--max-batch", type=int, default=32,
                         help="most raw units coalesced into one service batch")
    p_serve.add_argument("--max-delay", type=float, default=0.005,
                         help="seconds a unit may wait for batch-mates before flush")
    p_serve.add_argument("--max-pending", type=int, default=1024,
                         help="admitted-unit bound; beyond it requests get "
                              "an explicit `overloaded` error")
    p_serve.add_argument("--suite", default=None, metavar="FILE",
                         help="declarative assertion suite to monitor with "
                              "(a domain name or a suite JSON file; pinned by --snapshot)")
    p_serve.add_argument("--snapshot", default=None, metavar="PATH",
                         help="fleet checkpoint: restored first if it exists, "
                              "written on shutdown (Ctrl-C)")
    p_serve.add_argument("--ready-file", default=None, metavar="PATH",
                         help="write {host, port, domain, pid} JSON once listening")
    p_serve.set_defaults(fn=_cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="run a sharded monitor fleet: worker shards behind a "
             "consistent-hash router with live migration",
    )
    p_fleet.add_argument("domain", help="registered domain (av, ecg, tvnews, video)")
    p_fleet.add_argument("--shards", type=int, default=2,
                         help="worker shard processes to spawn (default 2)")
    p_fleet.add_argument("--host", default="127.0.0.1", help="router bind address")
    p_fleet.add_argument("--port", type=int, default=0,
                         help="router TCP port (default 0 = ephemeral; see --ready-file)")
    p_fleet.add_argument("--ready-file", default=None, metavar="PATH",
                         help="write {host, port, domain, pid, shards} JSON once "
                              "the whole fleet is listening")
    p_fleet.add_argument("--snapshot", default=None, metavar="PATH",
                         help="coordinated fleet checkpoint: restored first if it "
                              "exists, written on shutdown (Ctrl-C)")
    p_fleet.add_argument("--workdir", default=None, metavar="DIR",
                         help="directory for worker ready files and logs "
                              "(default: a fresh temp dir)")
    p_fleet.add_argument("--max-batch", type=int, default=32,
                         help="per-shard server knob: units per service batch")
    p_fleet.add_argument("--max-delay", type=float, default=0.005,
                         help="per-shard server knob: batch coalescing window (s)")
    p_fleet.add_argument("--max-pending", type=int, default=1024,
                         help="per-shard server knob: admitted-unit bound")
    p_fleet.set_defaults(fn=_cmd_fleet)

    p_improve = sub.add_parser(
        "improve",
        help="close the loop: monitor → select → label → retrain → hot-swap",
    )
    p_improve.add_argument("domain", help="retrainable domain (ecg, video)")
    p_improve.add_argument("--rounds", type=int, default=None,
                           help="improvement rounds this run (additional rounds on resume)")
    p_improve.add_argument("--budget", type=int, default=None,
                           help="oracle labels per round (default 8)")
    p_improve.add_argument("--policy", choices=["bal", "random", "uniform"], default=None,
                           help="selection policy (default bal)")
    p_improve.add_argument("--streams", type=int, default=None,
                           help="monitored streams (default 2; pinned by --snapshot)")
    p_improve.add_argument("--items-per-round", type=int, default=None,
                           help="raw units per stream per round (default 8)")
    p_improve.add_argument("--seed", type=int, default=None,
                           help="root seed (default 0; pinned by --snapshot)")
    p_improve.add_argument("--jobs", type=int, default=None,
                           help="2+ retrains in a background process (bit-identical)")
    p_improve.add_argument("--swap-tick", type=int, default=None,
                           help="raw-unit boundary where a new version is adopted (default 0)")
    p_improve.add_argument("--weak", action="store_true",
                           help="also pseudo-label fired units via weak supervision")
    p_improve.add_argument("--suite", default=None, metavar="FILE",
                           help="declarative assertion suite for the fleet "
                                "(a domain name or a suite JSON file; pinned by --snapshot)")
    p_improve.add_argument("--snapshot", default=None, metavar="PATH",
                           help="loop checkpoint: restored first if it exists, written on exit")
    p_improve.add_argument("--json", action="store_true", help="machine-readable output")
    p_improve.set_defaults(fn=_cmd_improve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # e.g. `python -m repro run --all | head` — exit quietly with the
        # conventional SIGPIPE status instead of a traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
