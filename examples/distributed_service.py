#!/usr/bin/env python3
"""The Ballista testing service over real TCP sockets, both ways round.

Act 1 reproduces the paper's architecture: a central test server (the
CMU side) hands deterministic test plans to portable clients over an
ONC-RPC-style protocol; each client runs one OS variant and streams
results back.  Three clients (Windows 98, Windows NT, Linux) run
concurrently against one server on localhost; each runs the campaign's
own plan driver, so the server-side result set is verified identical
to the same campaign run serially in-process, and feeds the same report
generators.

Act 2 inverts the topology with the multi-tenant campaign service: thin
clients submit campaign *specs* and the service itself runs the
workers, journals every job in a durable queue, leases shards with
heartbeat expiry, and streams plan-ordered result rows back.  Two
tenants share one service; each streamed result set is verified
byte-identical to the same campaign run serially in-process.

Run:  python examples/distributed_service.py [cap]
"""

import sys
import tempfile
import threading

from repro import ALL_VARIANTS, LINUX, WIN98, WINNT, Campaign, CampaignConfig
from repro.analysis import render_table1
from repro.core.results_io import results_to_dict
from repro.service import BallistaClient, BallistaServer, CampaignService, ServiceClient


def run_client(personality, host: str, port: int) -> None:
    client = BallistaClient.connect(personality, host, port)
    try:
        tested = client.run()
        print(f"  [{personality.key}] client done: {tested} MuTs tested")
    finally:
        client.close()


def act1_plan_pull(cap: int) -> None:
    """The paper's topology: the client executes, the server collects."""
    variants = [WIN98, WINNT, LINUX]
    server = BallistaServer(variants, cap=cap)
    host, port = server.listen()
    print(f"Ballista server listening on {host}:{port} (cap={cap})")

    threads = [
        threading.Thread(target=run_client, args=(p, host, port))
        for p in variants
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    server.join({p.key for p in variants})
    server.shutdown()
    serial = Campaign(variants, config=CampaignConfig(cap=cap)).run()
    identical = results_to_dict(server.results) == results_to_dict(serial)
    print(
        f"  server holds {server.results.total_cases()} cases; "
        f"identical to serial run: {identical}"
    )

    print()
    print(render_table1(server.results))
    print()
    crashes = {
        p.key: [r.mut_name for r in server.results.catastrophic_muts(p.key)]
        for p in variants
    }
    for key, names in crashes.items():
        print(f"{key:8s} catastrophic: {', '.join(sorted(names)) or '(none)'}")


MUTS = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]


def act2_campaign_service(cap: int) -> None:
    """The inverted topology: the service executes, tenants stream."""
    with tempfile.TemporaryDirectory() as data_dir:
        service = CampaignService(data_dir, max_workers=2, lease_s=10.0)
        host, port = service.listen()
        print(f"campaign service listening on {host}:{port} (cap={cap})")
        try:
            for tenant, keys in (("alice", ["winnt"]), ("bob", ["win98"])):
                client = ServiceClient.connect(host, port)
                try:
                    job_id, created = client.submit(
                        keys, cap=cap, muts=MUTS, tenant=tenant
                    )
                    verb = "submitted" if created else "resumed"
                    print(f"  [{tenant}] {verb} {job_id} ({','.join(keys)})")
                    streamed = client.stream(job_id, timeout=300)
                finally:
                    client.close()
                serial = Campaign(
                    [p for p in ALL_VARIANTS if p.key in keys],
                    config=CampaignConfig(cap=cap),
                    muts=MUTS,
                ).run()
                identical = results_to_dict(streamed) == results_to_dict(serial)
                print(
                    f"  [{tenant}] {streamed.total_cases()} cases streamed; "
                    f"identical to serial run: {identical}"
                )
        finally:
            service.close()


def main() -> None:
    cap = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    print("=== Act 1: plan-pull (the paper's topology) ===")
    act1_plan_pull(cap)
    print()
    print("=== Act 2: multi-tenant campaign service ===")
    act2_campaign_service(cap)


if __name__ == "__main__":
    main()
