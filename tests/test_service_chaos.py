"""Chaos-transport fault injection: the distributed campaign must
survive dropped, duplicated, corrupted, delayed, and severed records,
and must produce the *same* result set it would have produced on a
perfect network (retries + idempotent reporting)."""

import threading

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.mut import MuTRegistry
from repro.core.results_io import load_checkpoint, results_to_dict, save_results
from repro.service import (
    BallistaClient,
    BallistaServer,
    ChaosConfig,
    ChaosDisconnect,
    ChaosTransport,
    LoopbackTransport,
    RetryPolicy,
    RpcError,
    RpcTimeout,
)
from repro.service import protocol as P
from repro.service.rpc import RpcClient, SocketTransport, serve_connection
from repro.service.xdr import XdrDecoder, XdrEncoder

SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]

#: Fast retransmission policy for loopback tests: lost records are
#: detected in tens of milliseconds instead of seconds.
FAST_RETRY = RetryPolicy(attempts=8, call_timeout=0.25, backoff_base=0.005)


@pytest.fixture()
def subset_registry(registry):
    sub = MuTRegistry()
    for mut in registry.all():
        if mut.name in SUBSET:
            sub.register(mut)
    return sub


def echo_handlers():
    """A trivial program: procedure 1 echoes the u32 it was sent."""

    def echo(dec):
        return XdrEncoder().u32(dec.u32()).bytes()

    return {1: echo}


def spawn_echo_server(client_transport_wrapper=lambda t: t):
    server_end, client_end = LoopbackTransport.pair()
    threading.Thread(
        target=serve_connection, args=(server_end, echo_handlers()), daemon=True
    ).start()
    return client_transport_wrapper(client_end)


class TestChaosTransport:
    def test_no_faults_at_zero_rates(self):
        a, b = LoopbackTransport.pair()
        chaos = ChaosTransport(b, ChaosConfig(seed=1))
        chaos.send_record(b"hello")
        assert a.recv_record() == b"hello"
        a.send_record(b"world")
        assert chaos.recv_record() == b"world"
        assert chaos.stats.faults == 0

    def test_same_seed_same_fault_schedule(self):
        def schedule(seed):
            a, b = LoopbackTransport.pair()
            chaos = ChaosTransport(
                b, ChaosConfig(seed=seed, drop_rate=0.3, dup_rate=0.3)
            )
            for index in range(50):
                chaos.send_record(bytes([index]))
            drained = []
            try:
                while True:
                    drained.append(a.recv_record(timeout=0.01))
            except RpcError:
                pass
            return drained, (chaos.stats.drops, chaos.stats.dups)

        first = schedule(99)
        second = schedule(99)
        different = schedule(7)
        assert first == second
        assert first != different
        assert first[1][0] > 0 and first[1][1] > 0

    def test_send_drop_loses_the_record(self):
        a, b = LoopbackTransport.pair()
        chaos = ChaosTransport(b, ChaosConfig(seed=0, drop_rate=1.0))
        chaos.send_record(b"gone")
        with pytest.raises(RpcTimeout):
            a.recv_record(timeout=0.01)
        assert chaos.stats.drops == 1

    def test_recv_drop_consumes_and_keeps_waiting(self):
        a, b = LoopbackTransport.pair()
        chaos = ChaosTransport(b, ChaosConfig(seed=0, drop_rate=1.0))
        a.send_record(b"lost in transit")
        with pytest.raises(RpcTimeout):
            chaos.recv_record(timeout=0.05)
        assert chaos.stats.drops >= 1

    def test_duplicate_delivers_twice(self):
        a, b = LoopbackTransport.pair()
        chaos = ChaosTransport(b, ChaosConfig(seed=0, dup_rate=1.0))
        chaos.send_record(b"twice")
        assert a.recv_record() == b"twice"
        assert a.recv_record() == b"twice"
        assert chaos.stats.dups == 1

    def test_corruption_flips_bytes(self):
        a, b = LoopbackTransport.pair()
        chaos = ChaosTransport(b, ChaosConfig(seed=3, corrupt_rate=1.0))
        payload = bytes(32)
        chaos.send_record(payload)
        received = a.recv_record()
        assert len(received) == len(payload)
        assert received != payload
        assert chaos.stats.corruptions == 1

    def test_truncation_shortens_record(self):
        a, b = LoopbackTransport.pair()
        chaos = ChaosTransport(b, ChaosConfig(seed=3, truncate_rate=1.0))
        chaos.send_record(bytes(range(64)))
        received = a.recv_record()
        assert 0 < len(received) < 64
        assert chaos.stats.truncations == 1

    def test_disconnect_after_kills_transport_permanently(self):
        _, b = LoopbackTransport.pair()
        chaos = ChaosTransport(b, ChaosConfig(seed=0, disconnect_after=2))
        chaos.send_record(b"one")
        chaos.send_record(b"two")
        with pytest.raises(ChaosDisconnect):
            chaos.send_record(b"three")
        with pytest.raises(ChaosDisconnect):
            chaos.recv_record(timeout=0.01)
        assert chaos.stats.disconnects == 1

    def test_delay_sleeps_via_injected_clock(self):
        slept = []
        a, b = LoopbackTransport.pair()
        chaos = ChaosTransport(
            b,
            ChaosConfig(seed=0, delay_rate=1.0, delay_s=0.123),
            sleep=slept.append,
        )
        chaos.send_record(b"later")
        assert a.recv_record() == b"later"
        assert slept == [0.123]
        assert chaos.stats.delays == 1


class TestRetryingRpcClient:
    def test_recovers_from_drops(self):
        chaos_holder = {}

        def wrap(transport):
            chaos = ChaosTransport(
                transport, ChaosConfig(seed=11, drop_rate=0.4)
            )
            chaos_holder["chaos"] = chaos
            return chaos

        client = RpcClient(spawn_echo_server(wrap), retry=FAST_RETRY)
        for value in range(20):
            assert client.call(1, XdrEncoder().u32(value).bytes()).u32() == value
        assert chaos_holder["chaos"].stats.drops > 0
        assert client.stats.retries > 0

    def test_skips_stale_duplicate_replies(self):
        chaos_holder = {}

        def wrap(transport):
            chaos = ChaosTransport(transport, ChaosConfig(seed=5, dup_rate=0.5))
            chaos_holder["chaos"] = chaos
            return chaos

        client = RpcClient(spawn_echo_server(wrap), retry=FAST_RETRY)
        for value in range(20):
            assert client.call(1, XdrEncoder().u32(value).bytes()).u32() == value
        assert chaos_holder["chaos"].stats.dups > 0
        assert client.stats.stale_replies > 0

    def test_gives_up_after_attempt_budget(self):
        transport = spawn_echo_server(
            lambda t: ChaosTransport(t, ChaosConfig(seed=0, drop_rate=1.0))
        )
        sleeps = []
        policy = RetryPolicy(
            attempts=3, call_timeout=0.02, backoff_base=0.01,
            jitter=0.0, sleep=sleeps.append,
        )
        client = RpcClient(transport, retry=policy)
        with pytest.raises(RpcError, match="gave up after 3 attempts"):
            client.call(1, XdrEncoder().u32(1).bytes())
        # Exponential backoff between the retries: base, then doubled
        # (jitter disabled for an exact schedule).
        assert sleeps == [0.01, 0.02]

    def test_backoff_jitter_bounded_and_seeded(self):
        policy = RetryPolicy(
            attempts=4, backoff_base=0.01, jitter=0.25, jitter_seed=42,
        )
        import random

        rng = random.Random(policy.jitter_seed)
        jittered = [policy.backoff(i, rng=rng) for i in range(3)]
        exact = [policy.backoff(i) for i in range(3)]
        for got, base in zip(jittered, exact):
            assert base * 0.75 <= got <= base * 1.25
        # Same seed -> same schedule: two clients built from this policy
        # sleep identically (the property the chaos tests rely on).
        rng2 = random.Random(policy.jitter_seed)
        assert jittered == [policy.backoff(i, rng=rng2) for i in range(3)]
        # Different seeds de-synchronise the herd.
        rng3 = random.Random(7)
        assert jittered != [policy.backoff(i, rng=rng3) for i in range(3)]

    def test_jitter_validation(self):
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.1)

    def test_legacy_client_still_fails_fast(self):
        server_end, client_end = LoopbackTransport.pair(default_timeout=0.05)
        threading.Thread(
            target=serve_connection,
            args=(server_end, echo_handlers()),
            daemon=True,
        ).start()
        transport = ChaosTransport(client_end, ChaosConfig(seed=0, drop_rate=1.0))
        client = RpcClient(transport)  # no RetryPolicy: single shot
        with pytest.raises(RpcError):
            client.call(1, XdrEncoder().u32(1).bytes())


class TestSocketHardening:
    def test_oversized_recv_refused(self):
        import socket

        from repro.service.rpc import MAX_RECORD

        a, _b = socket.socketpair()
        transport = SocketTransport(a)
        with pytest.raises(RpcError, match="refusing to receive"):
            transport._recv_exact(MAX_RECORD + 1)
        with pytest.raises(RpcError, match="refusing to receive"):
            transport._recv_exact(-4)
        a.close()
        _b.close()

    def test_fragment_accumulation_over_max_rejected(self):
        import socket
        import struct

        from repro.service.rpc import MAX_RECORD

        a, b = socket.socketpair()
        receiver = SocketTransport(a)
        # Two fragments, each individually plausible, whose sum busts
        # the record ceiling.
        big = MAX_RECORD - 8
        b.sendall(struct.pack(">I", 16) + b"x" * 16)
        b.sendall(struct.pack(">I", 0x8000_0000 | big))
        with pytest.raises(RpcError, match="exceeds sane maximum"):
            receiver.recv_record()
        a.close()
        b.close()


class TestDistributedCampaignUnderChaos:
    def run_distributed(self, subset_registry, personalities, chaos_config):
        cap = 60
        server = BallistaServer(
            [p for p in personalities],
            registry=subset_registry,
            cap=cap,
            lease_s=30.0,
        )
        chaos_transports = []
        for personality in personalities:
            server_end, client_end = LoopbackTransport.pair()
            server.attach(server_end)
            transport = client_end
            if chaos_config is not None:
                transport = ChaosTransport(client_end, chaos_config)
                chaos_transports.append(transport)
            client = BallistaClient(
                personality,
                transport,
                registry=subset_registry,
                retry=FAST_RETRY,
            )
            client.run()
        server.join({p.key for p in personalities})
        return server, chaos_transports

    def test_five_percent_drop_dup_same_result_set(
        self, subset_registry, win98, winnt
    ):
        """The acceptance bar: 5% drops + 5% duplicates, fixed seed, and
        the final ResultSet is byte-identical to the fault-free run."""
        clean, _ = self.run_distributed(
            subset_registry, [win98, winnt], chaos_config=None
        )
        chaos_config = ChaosConfig(seed=2024, drop_rate=0.05, dup_rate=0.05)
        faulty, chaos_transports = self.run_distributed(
            subset_registry, [win98, winnt], chaos_config
        )
        injected = sum(t.stats.faults for t in chaos_transports)
        assert injected > 0, "chaos schedule injected nothing; change seed"

        local = Campaign(
            [win98, winnt], registry=subset_registry, config=CampaignConfig(cap=60)
        ).run()
        assert results_to_dict(clean.results) == results_to_dict(local)
        assert results_to_dict(faulty.results) == results_to_dict(local)

    def test_duplicate_reports_are_idempotent_under_chaos(
        self, subset_registry, winnt
    ):
        """A duplication-heavy link forces retransmitted REPORTs; the
        server must acknowledge them without double-counting."""
        chaos_config = ChaosConfig(seed=7, drop_rate=0.10, dup_rate=0.10)
        server, transports = self.run_distributed(
            subset_registry, [winnt], chaos_config
        )
        local = Campaign(
            [winnt], registry=subset_registry, config=CampaignConfig(cap=60)
        ).run()
        assert results_to_dict(server.results) == results_to_dict(local)
        assert server.duplicate_reports > 0
        assert sum(t.stats.faults for t in transports) > 0

    def test_killed_and_resumed_client_saves_the_campaigns_bytes(
        self, subset_registry, winnt, tmp_path
    ):
        """A client that dies mid-campaign on a lossy link and is
        relaunched from its checkpoint leaves the server holding the
        local campaign's result file, byte for byte: batches reported
        after the last checkpoint are re-sent under their plan position
        and deduplicated."""
        cap, ckpt = 40, tmp_path / "client.ckpt"
        server = BallistaServer([winnt], registry=subset_registry, cap=cap)
        for config in (
            ChaosConfig(seed=3, drop_rate=0.05, dup_rate=0.05, disconnect_after=17),
            ChaosConfig(seed=4, drop_rate=0.05, dup_rate=0.05),
        ):
            server_end, client_end = LoopbackTransport.pair()
            server.attach(server_end)
            client = BallistaClient(
                winnt,
                ChaosTransport(client_end, config),
                registry=subset_registry,
                retry=FAST_RETRY,
                checkpoint_path=ckpt,
                checkpoint_every=2,
            )
            if config.disconnect_after is None:
                client.run()
            else:
                with pytest.raises(RpcError):
                    client.run()
                assert 0 < len(load_checkpoint(ckpt).results) < len(
                    subset_registry.for_variant(winnt)
                )
        server.join({"winnt"})
        assert server.duplicate_reports > 0
        save_results(server.results, tmp_path / "served.json")
        local = Campaign(
            [winnt], registry=subset_registry, config=CampaignConfig(cap=cap)
        ).run()
        save_results(local, tmp_path / "local.json")
        assert (tmp_path / "served.json").read_bytes() == (
            tmp_path / "local.json"
        ).read_bytes()


class TestLeasesAndGracefulDegradation:
    def test_lease_expiry_marks_variant_partial(
        self, subset_registry, win98, winnt
    ):
        """One client dies mid-campaign; the campaign still finishes
        with the survivor, and the dead variant is flagged partial."""
        server = BallistaServer(
            [win98, winnt], registry=subset_registry, cap=40, lease_s=0.2
        )

        # The win98 client's link is severed mid-run.
        server_end, client_end = LoopbackTransport.pair()
        server.attach(server_end)
        doomed = BallistaClient(
            win98,
            ChaosTransport(client_end, ChaosConfig(seed=0, disconnect_after=7)),
            registry=subset_registry,
            retry=RetryPolicy(attempts=2, call_timeout=0.05, backoff_base=0.001),
        )
        with pytest.raises(RpcError):
            doomed.run()

        # The winnt client is healthy.
        server_end, client_end = LoopbackTransport.pair()
        server.attach(server_end)
        BallistaClient(winnt, client_end, registry=subset_registry).run()

        server.join({"win98", "winnt"}, timeout=10.0)
        assert server.expired_variants() == {"win98"}
        assert server.completed_variants() == {"winnt"}

        results = server.results
        assert results.is_partial("win98")
        assert not results.is_partial("winnt")
        # The survivor's results are complete and usable.
        assert len(results.for_variant("winnt")) == len(
            subset_registry.for_variant(winnt)
        )
        # Partial results are real measurements, just fewer of them.
        assert len(results.for_variant("win98")) < len(
            subset_registry.for_variant(win98)
        )

    def test_partial_variant_flagged_in_table1(self, subset_registry, winnt):
        from repro.analysis.tables import render_table1

        results = Campaign(
            [winnt], registry=subset_registry, config=CampaignConfig(cap=20)
        ).run()
        assert "partial" not in render_table1(results)
        results.mark_partial("winnt")
        rendered = render_table1(results)
        assert "!Windows NT" in rendered
        assert "partial results" in rendered

    def test_heartbeat_renews_lease(self, subset_registry, winnt):
        server = BallistaServer(
            [winnt], registry=subset_registry, cap=10, lease_s=0.15
        )
        server_end, client_end = LoopbackTransport.pair()
        server.attach(server_end)
        client = BallistaClient(winnt, client_end, registry=subset_registry)
        client.rpc.call(P.PROC_HELLO, P.encode_hello("winnt"))
        import time

        for _ in range(4):
            time.sleep(0.05)
            client.heartbeat()
        server._check_leases()
        assert server.expired_variants() == set()
        time.sleep(0.3)  # now go silent past the lease
        server._check_leases()
        assert server.expired_variants() == {"winnt"}
