"""CLI for the multi-tenant campaign service.

Usage::

    python -m repro serve --data DIR [--host H] [--port P]
                          [--max-workers N] [--lease-timeout S]
                          [--events PATH]
    python -m repro submit --variants winnt,win98 [--cap N] [--muts ...]
                          [--tenant T] [--job-key K] [--save PATH]
                          [--host H] [--port P] [--connect-timeout S]

``serve`` runs a :class:`~repro.service.server.CampaignService` until
SIGTERM/SIGINT, then drains gracefully: it stops leasing, lets worker
shard checkpoints stand, compacts the job queue, and exits 0 -- a
restarted ``serve`` on the same ``--data`` directory finishes whatever
was in flight.

``submit`` sends one campaign spec and streams the results to
completion.  With ``BALLISTA_CHAOS_RATE`` set, the connection runs
through a :class:`~repro.service.chaos.ChaosTransport` (drop+dup at the
given rate), the CI chaos drill's configuration.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro import ALL_VARIANTS


def serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the multi-tenant campaign service.",
    )
    parser.add_argument(
        "--data",
        required=True,
        metavar="DIR",
        help="durable state directory (job queue, shards, results)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: 0 = ephemeral, printed on startup)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent worker processes across all tenants (default: 2)",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help=(
            "shard lease horizon: a worker silent this long loses its "
            "shard to a fresh worker (default: 10)"
        ),
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=5,
        metavar="N",
        help="lease grants per shard before its job fails (default: 5)",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        help=(
            "stream service telemetry (JSON lines) to PATH; render it "
            "with `python -m repro stats PATH`"
        ),
    )
    args = parser.parse_args(argv)
    if args.max_workers < 1:
        parser.error(f"--max-workers must be >= 1, got {args.max_workers}")
    if args.lease_timeout <= 0:
        parser.error(
            f"--lease-timeout must be > 0, got {args.lease_timeout}"
        )
    if args.max_attempts < 1:
        parser.error(f"--max-attempts must be >= 1, got {args.max_attempts}")

    recorder = None
    if args.events:
        from repro.obs.recorder import JsonlRecorder

        try:
            recorder = JsonlRecorder(args.events)
        except OSError as exc:
            parser.error(f"--events {args.events}: {exc}")

    from repro.service.server import CampaignService

    try:
        service = CampaignService(
            args.data,
            max_workers=args.max_workers,
            lease_s=args.lease_timeout,
            max_attempts=args.max_attempts,
            recorder=recorder,
        )
    except ValueError as exc:  # junk in BALLISTA_MAX_MUT_RETRIES
        parser.error(str(exc))
    host, port = service.listen(args.host, args.port)
    sys.stderr.write(f"campaign service listening on {host}:{port}\n")
    sys.stderr.flush()

    def on_signal(signum, frame):  # noqa: ARG001 - signal signature
        service.drain()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        service.serve_forever()
    finally:
        service.close()
        if recorder is not None:
            recorder.close()
    sys.stderr.write("campaign service drained\n")
    return 0


def submit_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description=(
            "Submit one campaign to a running service and stream the "
            "results to completion."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--variants",
        required=True,
        help="comma-separated variant keys to test",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        help="test cases per MuT (default: BALLISTA_CAP or 300)",
    )
    parser.add_argument(
        "--muts",
        default=None,
        help="comma-separated bare MuT names (default: the full plan)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "slices per variant (chained intra-variant slices with "
            "per-slice leases and checkpoints; results stay "
            "byte-identical; default 1)"
        ),
    )
    parser.add_argument("--tenant", default="default")
    parser.add_argument(
        "--job-key",
        default=None,
        help=(
            "idempotency key; resubmitting the same (tenant, key) "
            "returns the existing job (default: derived from the spec)"
        ),
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "TCP connect timeout "
            "(default: BALLISTA_CONNECT_TIMEOUT or 30)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="give up if the job has not completed in this long",
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        help="save the streamed result set to a JSON file",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress status output"
    )
    args = parser.parse_args(argv)

    by_key = {p.key for p in ALL_VARIANTS}
    variants = [k.strip() for k in args.variants.split(",") if k.strip()]
    missing = [k for k in variants if k not in by_key]
    if missing:
        parser.error(
            f"unknown variants: {missing}; choose from {sorted(by_key)}"
        )
    if not variants:
        parser.error("--variants must name at least one variant")
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    muts = None
    if args.muts is not None:
        muts = [m.strip() for m in args.muts.split(",") if m.strip()]
    if args.cap is None:
        from repro.core.campaign import default_cap

        try:
            args.cap = default_cap()
        except ValueError as exc:
            parser.error(str(exc))
    if args.connect_timeout is None:
        from repro.service.client import default_connect_timeout

        try:
            args.connect_timeout = default_connect_timeout()
        except ValueError as exc:
            parser.error(str(exc))
    elif args.connect_timeout <= 0:
        parser.error(
            f"--connect-timeout must be > 0, got {args.connect_timeout}"
        )

    # Chaos drills: BALLISTA_CHAOS_RATE wraps the connection in the CI
    # drop+dup fault schedule (validated up front, like BALLISTA_CAP).
    from repro.service.chaos import ChaosConfig, ChaosTransport

    try:
        chaos = ChaosConfig.from_env()
    except ValueError as exc:
        parser.error(str(exc))
    wrap = None
    if chaos.drop_rate or chaos.dup_rate:
        wrap = lambda t: ChaosTransport(t, chaos)  # noqa: E731

    from repro.service.client import ServiceClient
    from repro.service.rpc import RpcError

    try:
        client = ServiceClient.connect(
            args.host, args.port, wrap=wrap, timeout=args.connect_timeout
        )
    except OSError as exc:
        parser.error(f"cannot connect to {args.host}:{args.port}: {exc}")
    try:
        job_id, created = client.submit(
            variants,
            cap=args.cap,
            muts=muts,
            tenant=args.tenant,
            job_key=args.job_key,
            shards=args.shards,
        )
        if not args.quiet:
            verb = "submitted" if created else "resumed"
            sys.stderr.write(f"{verb} {job_id}\n")
        results = client.stream(job_id, timeout=args.timeout)
    except RpcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        client.close()
    if not args.quiet:
        sys.stderr.write(
            f"{job_id}: {results.total_cases()} cases across "
            f"{len(variants)} variants\n"
        )
    if args.save:
        from repro.core.results_io import save_results

        save_results(results, args.save)
    return 0
