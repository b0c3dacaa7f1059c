"""Tests for the Ballista testing service: XDR, RPC, server/client, and
the Windows CE split client."""

import os
import threading

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.crash_scale import CaseCode
from repro.core.mut import MuTRegistry
from repro.core.results import ResultSet
from repro.core.results_io import results_to_dict, row_to_dict
from repro.service import (
    BallistaClient,
    BallistaServer,
    CEHostClient,
    CETargetAgent,
    ChaosConfig,
    ChaosTransport,
    LoopbackTransport,
    RpcError,
    SerialLink,
)
from repro.service import protocol as P
from repro.service.rpc import (
    ACCEPT_PROC_UNAVAIL,
    RpcClient,
    SocketTransport,
    decode_call,
    decode_reply,
    encode_call,
    encode_reply,
    serve_connection,
)
from repro.service.serial import SerialLinkDown
from repro.service.xdr import XdrDecoder, XdrEncoder, XdrError
from repro.sim.machine import Machine


SUBSET = ["GetThreadContext", "CloseHandle", "strcpy", "isalpha", "fclose"]

#: CI's fault-injection job re-runs this module with every client
#: transport wrapped in a seeded ChaosTransport; the end-to-end tests
#: must still produce identical results thanks to retries + idempotent
#: reporting.  Locally both default to zero chaos.
CHAOS_RATE = float(os.environ.get("BALLISTA_CHAOS_RATE", "0"))
CHAOS_SEED = int(os.environ.get("BALLISTA_CHAOS_SEED", "0"))


def maybe_chaos(transport):
    if not CHAOS_RATE:
        return transport
    return ChaosTransport(
        transport,
        ChaosConfig(
            seed=CHAOS_SEED, drop_rate=CHAOS_RATE, dup_rate=CHAOS_RATE
        ),
    )


@pytest.fixture()
def subset_registry(registry):
    sub = MuTRegistry()
    for mut in registry.all():
        if mut.name in SUBSET:
            sub.register(mut)
    return sub


class TestXdr:
    def test_u32_roundtrip(self):
        data = XdrEncoder().u32(0xDEADBEEF).bytes()
        assert XdrDecoder(data).u32() == 0xDEADBEEF

    def test_i32_negative(self):
        data = XdrEncoder().i32(-42).bytes()
        assert XdrDecoder(data).i32() == -42

    def test_string_padding(self):
        data = XdrEncoder().string("abcde").bytes()
        assert len(data) % 4 == 0
        assert XdrDecoder(data).string() == "abcde"

    def test_string_array(self):
        data = XdrEncoder().string_array(["a", "bb", ""]).bytes()
        assert XdrDecoder(data).string_array() == ["a", "bb", ""]

    def test_opaque_roundtrip(self):
        blob = bytes(range(7))
        data = XdrEncoder().opaque(blob).bytes()
        assert XdrDecoder(data).opaque() == blob

    def test_truncated_raises(self):
        with pytest.raises(XdrError):
            XdrDecoder(b"\x00\x00").u32()

    def test_implausible_length_rejected(self):
        data = XdrEncoder().u32(0xFFFF_FFF0).bytes()
        with pytest.raises(XdrError):
            XdrDecoder(data).opaque()

    def test_done_flags_trailing_bytes(self):
        dec = XdrDecoder(XdrEncoder().u32(1).u32(2).bytes())
        dec.u32()
        with pytest.raises(XdrError):
            dec.done()


class TestRpcFraming:
    def test_call_reply_roundtrip(self):
        record = encode_call(7, 42, XdrEncoder().string("body").bytes())
        xid, procedure, dec = decode_call(record)
        assert (xid, procedure) == (7, 42)
        assert dec.string() == "body"
        reply = encode_reply(7, 0, XdrEncoder().u32(5).bytes())
        out = decode_reply(reply, expected_xid=7)
        assert out.u32() == 5

    def test_xid_mismatch_rejected(self):
        reply = encode_reply(9, 0)
        with pytest.raises(RpcError, match="xid"):
            decode_reply(reply, expected_xid=7)

    def test_unknown_procedure_gets_proc_unavail(self):
        a, b = LoopbackTransport.pair()
        thread = threading.Thread(
            target=serve_connection, args=(a, {}), daemon=True
        )
        thread.start()
        client = RpcClient(b)
        with pytest.raises(RpcError, match="accept state 3"):
            client.call(99)

    def test_handler_decode_error_gets_garbage_args(self):
        def handler(dec):
            dec.u32()  # body is empty -> XdrError
            return b""

        a, b = LoopbackTransport.pair()
        threading.Thread(
            target=serve_connection, args=(a, {1: handler}), daemon=True
        ).start()
        with pytest.raises(RpcError, match=f"accept state {4}"):
            RpcClient(b).call(1)

    def test_socket_transport_roundtrip(self):
        import socket

        server_sock, client_sock = socket.socketpair()
        server = SocketTransport(server_sock)
        client = SocketTransport(client_sock)
        client.send_record(b"payload-bytes")
        assert server.recv_record() == b"payload-bytes"
        server.close()
        client.close()


class TestProtocolCodecs:
    def test_hello_reply_roundtrip(self):
        entries = [P.PlanEntry("libc", "strcpy", "C string", ("buffer", "cstring"))]
        data = P.encode_hello_reply(entries, 300)
        decoded, cap = P.decode_hello_reply(XdrDecoder(data))
        assert cap == 300
        assert decoded == entries

    def test_plan_roundtrip(self):
        cases = [("A", "B"), ("C", "D")]
        data = P.encode_plan_reply(cases)
        assert P.decode_plan_reply(XdrDecoder(data)) == cases

    def test_report_roundtrip(self, subset_registry, win98):
        """A REPORT carries one row in the results codec's encoding, and
        the server records exactly that row."""
        mut = subset_registry.get("libc", "strcpy")
        sent = ResultSet()
        row = sent.new_result("win98", mut.name, mut.api, mut.group)
        row.record(0, CaseCode.PASS_NO_ERROR, True)
        row.record(1, CaseCode.CATASTROPHIC, False, "system crash", ("A", "B"))
        row.interference_crash, row.planned_cases = True, 2
        server = BallistaServer([win98], registry=subset_registry, cap=2)
        a, b = LoopbackTransport.pair()
        server.attach(a)
        RpcClient(b).call(
            P.PROC_REPORT, P.encode_json({"seq": 0, "row": row_to_dict(row)})
        )
        assert results_to_dict(server.results) == results_to_dict(sent)


class TestServiceEndToEnd:
    def test_loopback_matches_local_campaign(
        self, subset_registry, win98, winnt
    ):
        cap = 60
        server = BallistaServer([win98, winnt], registry=subset_registry, cap=cap)
        for personality in (win98, winnt):
            a, b = LoopbackTransport.pair()
            server.attach(a)
            BallistaClient(
                personality, maybe_chaos(b), registry=subset_registry
            ).run()
        server.join({"win98", "winnt"})

        local = Campaign(
            [win98, winnt], registry=subset_registry, config=CampaignConfig(cap=cap)
        ).run()
        # Whole documents: details and failing value names included, so
        # every failure the server holds replays like the campaign's.
        assert results_to_dict(server.results) == results_to_dict(local)

    def test_tcp_sockets_end_to_end(self, subset_registry, winnt):
        server = BallistaServer([winnt], registry=subset_registry, cap=20)
        host, port = server.listen()
        client = BallistaClient.connect(winnt, host, port, wrap=maybe_chaos)
        try:
            tested = client.run()
        finally:
            client.close()
            server.shutdown()
        server.join({"winnt"})
        assert tested == len(subset_registry.for_variant(winnt))

    def test_join_times_out_when_client_absent(self, subset_registry, winnt):
        server = BallistaServer([winnt], registry=subset_registry, cap=10)
        with pytest.raises(TimeoutError):
            server.join({"winnt"}, timeout=0.05)


class TestCESplitClient:
    def make_split(self, subset_registry, wince, cap=40):
        link = SerialLink()
        machine = Machine(wince)
        agent = CETargetAgent(machine, link, registry=subset_registry, cap=cap)
        host = CEHostClient(
            wince, link, agent, registry=subset_registry, cap=cap
        )
        return link, machine, host

    def test_matches_local_campaign_outcomes(self, subset_registry, wince):
        """The host records what a local campaign records, except what it
        cannot see: the target's crash reason (the Catastrophic case's
        detail text)."""
        _, _, host = self.make_split(subset_registry, wince)
        remote = host.run()
        local = Campaign(
            [wince], registry=subset_registry, config=CampaignConfig(cap=40)
        ).run()
        assert len(remote) == len(local)
        for row in local:
            mine = dict(row_to_dict(remote.get("wince", row.mut_name, row.api)))
            theirs = dict(row_to_dict(row))
            if row.catastrophic:
                crash = str(len(row.codes) - 1)
                mine["details"] = dict(mine["details"])
                theirs["details"] = dict(theirs["details"])
                assert mine["details"].pop(crash) == (
                    "target unresponsive after crash"
                )
                assert theirs["details"].pop(crash)
            assert mine == theirs, row.mut_name

    def test_crash_detected_via_unresponsive_polls(self, subset_registry, wince):
        _, machine, host = self.make_split(subset_registry, wince)
        results = host.run()
        crashed = [r.mut_name for r in results.catastrophic_muts("wince")]
        assert "GetThreadContext" in crashed
        assert machine.reboot_count >= 1

    def test_virtual_time_is_orders_of_magnitude_slower(
        self, subset_registry, wince
    ):
        _, _, host = self.make_split(subset_registry, wince, cap=20)
        results = host.run()
        per_case = host.elapsed_ms / max(results.total_cases(), 1)
        assert per_case > 2_000  # "five to ten seconds per test case"

    def test_disconnected_link_raises(self, subset_registry, wince):
        link, _, host = self.make_split(subset_registry, wince)
        link.disconnect()
        mut = subset_registry.get("win32", "CloseHandle")
        from repro.core.results import ResultSet

        results = ResultSet()
        result = results.new_result("wince", mut.name, mut.api, mut.group)
        with pytest.raises(SerialLinkDown):
            host.run_mut(mut, result)

    def test_serial_link_accounts_transfer_time(self):
        link = SerialLink(latency_ms_per_kb=1000)
        link.host_send({"cmd": "ping"})
        assert link.transfer_ms >= 1
        assert link.target_recv() == {"cmd": "ping"}
        assert link.target_recv() is None
