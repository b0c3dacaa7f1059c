"""The Windows CE split testing client (paper section 3.2).

The Ballista client could not run on the CE device, so it was split:

* **test generation and reporting** on a Windows NT PC
  (:class:`CEHostClient`), and
* **test execution and control** on the CE target
  (:class:`CETargetAgent`), reached over a serial link.

The CE remote API gives the host file I/O and process creation but *no
process synchronisation*, so the host starts the test process with the
parameter list on its command line and then polls the target filesystem
until the result file appears -- "unfortunately this means tests are
several orders of magnitude slower ... taking five to ten seconds per
test case", which the simulation's virtual clock reproduces.

A crashed target stops answering the poll; the host declares a
Catastrophic failure, asks for a (virtual) hard reboot, and moves on to
the next MuT.
"""

from __future__ import annotations

from repro.core.campaign import _INTERFERENCE_MARKER
from repro.core.crash_scale import CaseCode
from repro.core.executor import Executor
from repro.core.generator import CaseGenerator, TestCase
from repro.core.mut import MuT, MuTRegistry, default_registry
from repro.core.results import ResultSet
from repro.core.types import TypeRegistry, default_types
from repro.service.serial import SerialLink
from repro.sim.errors import MachineCrashed
from repro.sim.machine import Machine
from repro.sim.personality import Personality

#: Virtual cost of downloading a per-MuT test executable to the target.
DOWNLOAD_MS = 4_000
#: Virtual cost of starting the test process through the remote API.
CREATE_MS = 4_200
#: Virtual cost of one result-file poll round trip.
POLL_MS = 450
#: Polls before the host declares the target dead.
MAX_POLLS = 12


class CETargetAgent:
    """The execution/control component running on the CE device.

    It answers the host's remote-API requests: create a process that
    runs one test case and records the outcome into the target
    filesystem, read back files, and reboot after a crash.
    """

    def __init__(
        self,
        machine: Machine,
        link: SerialLink,
        registry: MuTRegistry | None = None,
        types: TypeRegistry | None = None,
        cap: int = 300,
    ) -> None:
        self.machine = machine
        self.link = link
        self.registry = registry or default_registry()
        self.generator = CaseGenerator(types or default_types(), cap=cap)

    def pump(self) -> None:
        """Process every pending host request (the agent's main loop
        body; the host drives it between polls)."""
        while True:
            request = self.link.target_recv()
            if request is None:
                return
            self._handle(request)

    def _handle(self, request: dict) -> None:
        command = request.get("cmd")
        if command == "reboot":
            self.machine.reboot()
            self.link.target_send({"ok": True, "rebooted": True})
            return
        if self.machine.crashed:
            # A crashed device answers nothing: the host's polls simply
            # time out.  (We drop the request on the floor.)
            return
        if command == "ping":
            self.link.target_send({"ok": True})
        elif command == "create_process":
            self._run_test(request)
            self.link.target_send({"ok": True, "started": True})
        elif command == "read_file":
            node = self.machine.fs.lookup(request["path"])
            if node is None or node.is_directory:
                self.link.target_send({"ok": False, "missing": True})
            else:
                self.link.target_send(
                    {"ok": True, "data": node.data.decode("latin-1")}
                )
        elif command == "delete_file":
            try:
                self.machine.fs.unlink(request["path"])
                self.link.target_send({"ok": True})
            except Exception:
                self.link.target_send({"ok": False})
        else:
            self.link.target_send({"ok": False, "error": "bad command"})

    def _run_test(self, request: dict) -> None:
        """Spawn the test process: argv carries (api, name, value names),
        the outcome is recorded into the result file."""
        api, name = request["argv"][0], request["argv"][1]
        value_names = tuple(request["argv"][2:])
        mut = self.registry.get(api, name)
        case = TestCase(mut.name, int(request.get("index", 0)), value_names)
        executor = Executor(self.machine, self.generator)
        try:
            outcome = executor.run_case(mut, case)
        except MachineCrashed:
            return  # device is down; nothing gets written
        if self.machine.crashed:
            return  # the crash ate the filesystem write too
        record = f"{int(outcome.code)} {outcome.error_code} {outcome.detail}"
        self.machine.fs.create_file(request["result_file"], record.encode("latin-1"))


class CEHostClient:
    """The generation/reporting component running on the NT host."""

    def __init__(
        self,
        personality: Personality,
        link: SerialLink,
        agent: CETargetAgent,
        registry: MuTRegistry | None = None,
        types: TypeRegistry | None = None,
        cap: int = 300,
    ) -> None:
        if personality.api != "win32":
            raise ValueError("the CE split client tests Win32 targets")
        self.personality = personality
        self.link = link
        self.agent = agent
        self.registry = registry or default_registry()
        self.types = types or default_types()
        self.generator = CaseGenerator(self.types, cap=cap)
        #: Virtual host-side wall-clock spent (ms).
        self.elapsed_ms = 0

    # ------------------------------------------------------------------

    def _request(self, message: dict) -> dict | None:
        self.link.host_send(message)
        self.agent.pump()
        return self.link.host_recv()

    def _poll_result(self, path: str) -> str | None:
        """Poll for the result file, as the paper's host did."""
        for _ in range(MAX_POLLS):
            self.elapsed_ms += POLL_MS
            reply = self._request({"cmd": "read_file", "path": path})
            if reply is not None and reply.get("ok"):
                return reply["data"]
        return None

    def run_mut(self, mut: MuT, result: "object") -> None:
        """Test one MuT, recording into a MuTResult-compatible object."""
        self.elapsed_ms += DOWNLOAD_MS  # download the test executable
        for case in self.generator.cases(mut):
            # The host generated the case, so it knows which inputs
            # are exceptional; the crash reason it cannot see.
            exceptional = self.generator.resolve_case(mut, case)[1]
            result_file = f"/tmp/ce_result_{mut.name}_{case.index}.txt"
            self.elapsed_ms += CREATE_MS  # remote process creation
            self._request(
                {
                    "cmd": "create_process",
                    "argv": [mut.api, mut.name, *case.value_names],
                    "index": case.index,
                    "result_file": result_file,
                }
            )
            data = self._poll_result(result_file)
            if data is None:
                # The device stopped answering: Catastrophic.
                result.record(
                    case.index,
                    CaseCode.CATASTROPHIC,
                    exceptional,
                    "target unresponsive after crash",
                    case.value_names,
                )
                if _INTERFERENCE_MARKER in (
                    self.agent.machine.crash_reason or ""
                ):
                    result.interference_crash = True
                self._request({"cmd": "reboot"})
                return
            code_text, error_text, detail = data.split(" ", 2)
            result.record(
                case.index,
                CaseCode(int(code_text)),
                exceptional,
                detail,
                case.value_names,
                error_code=int(error_text),
            )
            self._request({"cmd": "delete_file", "path": result_file})

    def run(self, muts: list[MuT] | None = None) -> ResultSet:
        """Run the full CE plan; returns a ResultSet."""
        results = ResultSet()
        plan = muts or self.registry.for_variant(self.personality)
        for mut in plan:
            result = results.new_result(
                self.personality.key, mut.name, mut.api, mut.group
            )
            result.planned_cases = self.generator.case_count(mut)
            result.capped = self.generator.is_capped(mut)
            self.run_mut(mut, result)
        return results
