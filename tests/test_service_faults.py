"""Fault-injection tests for the testing service: a dependable testing
harness must itself handle broken peers, truncated records, and dead
links."""

import threading

import pytest

from repro.core.crash_scale import CaseCode
from repro.core.results import ResultSet
from repro.core.results_io import row_to_dict
from repro.service import protocol as P
from repro.service.rpc import (
    ACCEPT_SYSTEM_ERR,
    LoopbackTransport,
    RpcClient,
    RpcError,
    SocketTransport,
    serve_connection,
)
from repro.service.xdr import XdrDecoder, XdrEncoder


def report_body(registry, seq, **change):
    """A REPORT for a one-case winnt ``CloseHandle`` row, with the
    row's fields overridden by ``change``."""
    mut = registry.get("win32", "CloseHandle")
    results = ResultSet()
    row = results.new_result("winnt", mut.name, mut.api, mut.group)
    row.record(0, CaseCode.PASS_NO_ERROR, False)
    row.planned_cases = 1
    return P.encode_json({"seq": seq, "row": {**row_to_dict(row), **change}})


def spawn_server(handlers):
    server_end, client_end = LoopbackTransport.pair()
    thread = threading.Thread(
        target=serve_connection, args=(server_end, handlers), daemon=True
    )
    thread.start()
    return RpcClient(client_end), client_end


class TestServerLoopResilience:
    def test_handler_crash_returns_system_err_and_survives(self):
        calls = []

        def fragile(dec):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("handler bug")
            return XdrEncoder().u32(7).bytes()

        client, _ = spawn_server({1: fragile})
        with pytest.raises(RpcError, match=f"accept state {ACCEPT_SYSTEM_ERR}"):
            client.call(1)
        # The connection is still serviceable after the handler crash.
        assert client.call(1).u32() == 7

    def test_garbage_record_is_ignored(self):
        def ok(dec):
            return b""

        server_end, client_end = LoopbackTransport.pair()
        thread = threading.Thread(
            target=serve_connection, args=(server_end, {1: ok}), daemon=True
        )
        thread.start()
        client_end.send_record(b"\x00\x01")  # unparseable: silently dropped
        client = RpcClient(client_end)
        client.call(1)  # loop survived

    def test_reply_to_wrong_xid_detected(self):
        server_end, client_end = LoopbackTransport.pair()

        def rogue():
            server_end.recv_record()
            from repro.service.rpc import encode_reply

            server_end.send_record(encode_reply(0xBEEF, 0))

        threading.Thread(target=rogue, daemon=True).start()
        client = RpcClient(client_end)
        with pytest.raises(RpcError, match="xid mismatch"):
            client.call(1)


class TestSocketFraming:
    def test_multi_fragment_records_reassembled(self):
        import socket
        import struct

        from repro.service.rpc import LAST_FRAGMENT

        a, b = socket.socketpair()
        receiver = SocketTransport(a)
        # Send "hello world" as two fragments by hand.
        b.sendall(struct.pack(">I", 6) + b"hello ")
        b.sendall(struct.pack(">I", LAST_FRAGMENT | 5) + b"world")
        assert receiver.recv_record() == b"hello world"
        a.close()
        b.close()

    def test_connection_closed_mid_record(self):
        import socket
        import struct

        a, b = socket.socketpair()
        receiver = SocketTransport(a)
        b.sendall(struct.pack(">I", 0x8000_0010))  # promises 16 bytes
        b.sendall(b"only8byt")
        b.close()
        with pytest.raises(RpcError, match="closed mid-record"):
            receiver.recv_record()
        a.close()

    def test_implausible_fragment_length_rejected(self):
        import socket
        import struct

        a, b = socket.socketpair()
        receiver = SocketTransport(a)
        b.sendall(struct.pack(">I", 0x8400_0000))  # 64 MiB fragment
        with pytest.raises(RpcError, match="implausible"):
            receiver.recv_record()
        a.close()
        b.close()


class TestProtocolRobustness:
    def test_hello_with_unknown_variant_is_system_err(self, registry, winnt):
        from repro.service.server import BallistaServer

        server = BallistaServer([winnt], registry=registry, cap=10)
        client, _ = spawn_server(server.handlers())
        with pytest.raises(RpcError, match=f"accept state {ACCEPT_SYSTEM_ERR}"):
            client.call(P.PROC_HELLO, P.encode_hello("beos"))

    def test_get_plan_for_unknown_mut_is_system_err(self, registry, winnt):
        from repro.service.server import BallistaServer

        server = BallistaServer([winnt], registry=registry, cap=10)
        client, _ = spawn_server(server.handlers())
        with pytest.raises(RpcError):
            client.call(P.PROC_GET_PLAN, P.encode_get_plan("win32", "NopeA"))

    def test_retransmitted_report_is_acked_not_double_counted(
        self, registry, winnt
    ):
        from repro.service.server import BallistaServer

        server = BallistaServer([winnt], registry=registry, cap=10)
        client, _ = spawn_server(server.handlers())
        body = report_body(registry, seq=0)
        client.call(P.PROC_REPORT, body)
        # A retransmission (same sequence number) is acknowledged so the
        # client can move on, but the batch is recorded exactly once.
        client.call(P.PROC_REPORT, body)
        assert server.duplicate_reports == 1
        assert len(server.results) == 1
        row = server.results.get("winnt", "CloseHandle")
        assert len(row.codes) == 1

    def test_conflicting_report_seq_is_system_err(self, registry, winnt):
        from repro.service.server import BallistaServer

        server = BallistaServer([winnt], registry=registry, cap=10)
        client, _ = spawn_server(server.handlers())

        client.call(P.PROC_REPORT, report_body(registry, seq=0))
        # Same MuT under a *new* sequence number is a client bug, not a
        # retransmission: the duplicate result is still rejected.
        with pytest.raises(RpcError, match=f"accept state {ACCEPT_SYSTEM_ERR}"):
            client.call(P.PROC_REPORT, report_body(registry, seq=1))

    @pytest.mark.parametrize(
        "change",
        [
            {"variant": "beos"},
            {"mut": "NopeA"},
            {"group": "C string"},
            {"codes": "zz"},
            {"exceptional": ""},
        ],
        ids=[
            "unknown-variant",
            "unknown-mut",
            "wrong-group",
            "bad-hex",
            "short-row",
        ],
    )
    def test_report_the_server_cannot_vouch_for_is_system_err(
        self, registry, winnt, change
    ):
        """A REPORT comes from outside: the server refuses a row it does
        not know how to place, and records nothing for it."""
        from repro.service.server import BallistaServer

        server = BallistaServer([winnt], registry=registry, cap=10)
        client, _ = spawn_server(server.handlers())
        with pytest.raises(RpcError, match=f"accept state {ACCEPT_SYSTEM_ERR}"):
            client.call(P.PROC_REPORT, report_body(registry, seq=0, **change))
        assert len(server.results) == 0

    def test_report_with_garbage_body_is_garbage_args(self, registry, winnt):
        from repro.service.rpc import ACCEPT_GARBAGE_ARGS
        from repro.service.server import BallistaServer

        server = BallistaServer([winnt], registry=registry, cap=10)
        client, _ = spawn_server(server.handlers())
        with pytest.raises(RpcError, match=f"accept state {ACCEPT_GARBAGE_ARGS}"):
            client.call(P.PROC_REPORT, b"\x00\x00")

    def test_decoder_rejects_truncated_plan(self):
        data = P.encode_plan_reply([("A", "B")])
        from repro.service.xdr import XdrError

        with pytest.raises(XdrError):
            P.decode_plan_reply(XdrDecoder(data[:-6]))
