"""Checker: MuT implementations scan user memory a region at a time."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import (
    Checker,
    Finding,
    Project,
    SourceFile,
    dotted_name,
    register_checker,
)

#: Packages holding MuT implementations, where strings and paths are
#: picked up through caller pointers.
_MUT_PACKAGES = ("libc", "posix", "win32")

#: Loads through a caller pointer, besides ``<...>mem.read``; each takes
#: its size as the last positional argument.
_LOADS = frozenset({"copy_in", "_user_read", "crt_read"})

#: The largest load size that still counts as "one unit".
_UNIT = 4


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _small(node: ast.AST, names: dict[str, int]) -> int | None:
    """The unit size ``node`` always evaluates to -- an int literal of
    at most :data:`_UNIT`, a conditional between two, or a local name
    only ever bound to one -- else ``None``."""
    if isinstance(node, ast.Constant):
        value = node.value
        return value if type(value) is int and 0 < value <= _UNIT else None
    if isinstance(node, ast.IfExp):
        body, orelse = _small(node.body, names), _small(node.orelse, names)
        return max(body, orelse) if body and orelse else None
    if isinstance(node, ast.Name):
        return names.get(node.id)
    return None


def _unit_names(function: ast.AST) -> dict[str, int]:
    """Local names every assignment in ``function`` binds to a unit
    size (``step = 4 if word_reads else 1``)."""
    sizes: dict[str, int | None] = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            size = _small(node.value, {})
            for target in node.targets:
                if isinstance(target, ast.Name):
                    known = sizes.get(target.id, size)
                    sizes[target.id] = (
                        max(known, size) if known and size else None
                    )
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            if isinstance(node.target, ast.Name):
                sizes[node.target.id] = None
    return {name: size for name, size in sizes.items() if size}


def _unit_load(call: ast.Call, names: dict[str, int]) -> int | None:
    """The unit size of a small user-memory load, else ``None``."""
    name = _callee(call)
    if name == "read":
        owner = dotted_name(call.func.value)  # type: ignore[attr-defined]
        if owner is None or owner.rsplit(".", 1)[-1] != "mem":
            return None
    elif name not in _LOADS and not name.startswith("kernel_copy_"):
        return None
    return _small(call.args[-1], names) if call.args else None


class _LoopVisitor(ast.NodeVisitor):
    """Pairs each small load with the innermost loop it runs in."""

    def __init__(self) -> None:
        self.loops: list[ast.AST] = []
        self.names: dict[str, int] = {}
        self.hits: list[tuple[ast.Call, int, ast.AST]] = []

    def _loop(self, node: ast.AST) -> None:
        self.loops.append(node)
        self.generic_visit(node)
        self.loops.pop()

    visit_For = visit_AsyncFor = visit_While = _loop

    def _scope(self, node: ast.AST) -> None:
        # A nested function body is not the enclosing loop's body.
        outer = self.loops, self.names
        self.loops, self.names = [], _unit_names(node)
        self.generic_visit(node)
        self.loops, self.names = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _scope

    def visit_Call(self, node: ast.Call) -> None:
        size = _unit_load(node, self.names)
        if size is not None and self.loops:
            self.hits.append((node, size, self.loops[-1]))
        self.generic_visit(node)


def _windowed(loop: ast.AST) -> bool:
    """True when the loop scans through ``AddressSpace.window``: its one
    small load per iteration is then the region-edge load."""
    return any(
        isinstance(node, ast.Call) and _callee(node) == "window"
        for node in ast.walk(loop)
    )


@register_checker
class UserScanChecker(Checker):
    name = "user-scan"
    title = "User-memory strings are scanned by windows, not per unit"
    rationale = (
        "The paper's verdicts hinge on how each API picks strings up\n"
        "through caller pointers: an unterminated buffer, or a pointer\n"
        "into a read-only or freed page, is where Linux returns EFAULT\n"
        "and Windows 9x/CE crash.  Those pickups must fault at exactly\n"
        "the address a real scanner would, but a loop issuing one\n"
        "checked load per byte or word costs one interpreter round trip\n"
        "per unit -- once the largest layer of the campaign hot path.\n"
        "AddressSpace.window scans every load inside one readable region\n"
        "with a single bytearray.find and never faults; the scanner\n"
        "issues only the one load at a region edge, through its own\n"
        "access path (mem.read, or copy_in for the kernel's PROBE/RAW/\n"
        "CORRUPT handling), so fault address, reason, panics and\n"
        "corruption stay those of the per-unit loop.  SCAN-PER-UNIT\n"
        "flags a loop in libc/, posix/ or win32/ whose body loads user\n"
        "memory (mem.read, copy_in, _user_read, crt_read,\n"
        "kernel_copy_*) with a size of 4 or less -- a literal, or a\n"
        "local only ever bound to such literals -- and does not scan\n"
        "through AddressSpace.window.  Loop over windows instead;\n"
        "AddressSpace.read_terminated does so for plain user-mode loads."
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for source in project.source_files(*_MUT_PACKAGES):
            yield from self._check(source)

    def _check(self, source: SourceFile) -> Iterator[Finding]:
        visitor = _LoopVisitor()
        visitor.visit(source.tree)
        for call, size, loop in visitor.hits:
            if _windowed(loop):
                continue
            yield self.finding(
                "SCAN-PER-UNIT",
                f"{_callee(call)}() loads {size} byte(s) of user memory "
                "per loop iteration; scan through AddressSpace.window and "
                "issue only the region-edge load",
                path=source.rel,
                line=call.lineno,
            )
