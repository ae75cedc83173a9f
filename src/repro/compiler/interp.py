"""An IR interpreter.

Executes :class:`IRModule` programs with a byte-addressed segmented memory
model and a small C library.  Used by the MetaMut validation loop (test
programs must be executable) and by the differential tests that check the
optimizer preserves semantics (-O0 vs -O2 must behave identically on
UB-free programs).
"""

from __future__ import annotations

import struct as _struct
from dataclasses import dataclass

from repro.compiler.flatir import FlatFunction, to_nodes
from repro.compiler.ir import (
    BinOp, Br, Call, Cast, Gep, GlobalAddr, ImmFloat, ImmInt, IRFunction,
    IRModule, IRType, Jmp, Load, LocalAddr, Memcpy, Operand, Ret, Store,
    Temp, UnOp,
)

#: Pointers are encoded as integers: (segment+1) << SEG_SHIFT | offset.
SEG_SHIFT = 40
_OFF_MASK = (1 << SEG_SHIFT) - 1

#: The deepest interpreted call nesting a program may reach; one call
#: deeper traps as a stack overflow.  An interpreted call costs three
#: Python frames, so a run at the bound stays well inside Python's default
#: recursion limit even under a caller 300 frames deep, and whether a
#: program overflows never depends on where it was run from.
MAX_CALL_DEPTH = 150

_PACK = {
    IRType.I8: "<b", IRType.I16: "<h", IRType.I32: "<i", IRType.I64: "<q",
    IRType.F32: "<f", IRType.F64: "<d", IRType.PTR: "<q",
}


class Trap(Exception):
    """A runtime trap (bad pointer, division by zero, abort, ...)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Exit(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


class OutOfFuel(Exception):
    """The program exceeded its execution budget (treated as a hang)."""


@dataclass
class ExecResult:
    status: str  # "ok" | "abort" | "trap" | "timeout" | "unsupported"
    return_code: int = 0
    output: str = ""
    reason: str = ""

    @property
    def observable(self) -> tuple[str, int, str]:
        """The behaviour tuple used by differential testing."""
        return (self.status, self.return_code, self.output)


class Interpreter:
    """Executes an IR module starting from a chosen function.

    Buffer-native functions (the default pipeline's
    :class:`~repro.compiler.flatir.FlatFunction`) are decoded once, up
    front, into fresh object-IR copies, so every module runs through the
    one object engine and the module itself is only read.
    """

    def __init__(self, module: IRModule, fuel: int = 200_000) -> None:
        self.module = module
        self.functions: dict[str, IRFunction] = {
            name: to_nodes(fn.buf) if type(fn) is FlatFunction else fn
            for name, fn in module.functions.items()
        }
        self.fuel = fuel
        self.segments: dict[int, bytearray] = {}
        self.seg_names: dict[str, int] = {}
        self._next_seg = 0
        self.output: list[str] = []
        self._rand_state = 1
        #: Interpreted calls now active below the entry function.
        self.depth = 0
        self._init_globals()

    # -- memory ------------------------------------------------------------

    def _new_segment(self, size: int) -> int:
        seg = self._next_seg
        self._next_seg += 1
        self.segments[seg] = bytearray(max(size, 1))
        return seg

    def _ptr(self, seg: int, off: int = 0) -> int:
        return ((seg + 1) << SEG_SHIFT) | (off & _OFF_MASK)

    def _decode(self, ptr: int) -> tuple[int, int]:
        if not isinstance(ptr, int) or ptr <= 0:
            raise Trap(f"invalid pointer {ptr!r}")
        seg = (ptr >> SEG_SHIFT) - 1
        off = ptr & _OFF_MASK
        if seg not in self.segments:
            raise Trap(f"wild pointer segment {seg}")
        return seg, off

    def _init_globals(self) -> None:
        for name, g in self.module.globals.items():
            seg = self._new_segment(g.size)
            self.seg_names[name] = seg
        # Second pass: fill initializers (may reference other globals).
        for name, g in self.module.globals.items():
            seg = self.seg_names[name]
            for off, ty, value in g.init:
                if isinstance(value, tuple) and value[0] == "addr":
                    target = value[1]
                    if target in self.seg_names:
                        resolved = self._ptr(self.seg_names[target], value[2])
                    else:
                        resolved = 0
                    self._write(seg, off, IRType.PTR, resolved)
                else:
                    self._write(seg, off, ty, value)

    def _write(self, seg: int, off: int, ty: IRType, value: int | float) -> None:
        buf = self.segments[seg]
        size = ty.size
        if off < 0 or off + size > len(buf):
            raise Trap(f"out-of-bounds store at {off} (+{size}) in segment of {len(buf)}")
        if ty.is_int or ty is IRType.PTR:
            value = int(value) & ((1 << ty.bits) - 1)
            buf[off : off + size] = int(value).to_bytes(size, "little")
        else:
            buf[off : off + size] = _struct.pack(_PACK[ty], _clamp_float(value, ty))

    def _read(self, seg: int, off: int, ty: IRType, signed: bool = True) -> int | float:
        buf = self.segments[seg]
        size = ty.size
        if off < 0 or off + size > len(buf):
            raise Trap(f"out-of-bounds load at {off} (+{size}) in segment of {len(buf)}")
        raw = bytes(buf[off : off + size])
        if ty.is_float:
            return _struct.unpack(_PACK[ty], raw)[0]
        value = int.from_bytes(raw, "little", signed=False)
        if ty is IRType.PTR:
            return value
        if signed and value >= (1 << (ty.bits - 1)):
            value -= 1 << ty.bits
        return value

    # -- execution ---------------------------------------------------------

    def run(self, entry: str = "main", args: list[int | float] | None = None) -> ExecResult:
        if entry not in self.functions:
            return ExecResult("unsupported", reason=f"no function {entry!r}")
        try:
            value = self._call_function(self.functions[entry], args or [])
            code = int(value) if isinstance(value, (int, float)) else 0
            return ExecResult("ok", code & 0xFF, "".join(self.output))
        except _Exit as e:
            return ExecResult("ok", e.code & 0xFF, "".join(self.output))
        except Trap as t:
            status = "abort" if t.reason == "abort" else "trap"
            return ExecResult(status, 134, "".join(self.output), t.reason)
        except OutOfFuel:
            return ExecResult("timeout", 0, "".join(self.output))
        except RecursionError:
            return ExecResult("trap", 139, "".join(self.output), "stack overflow")

    def _call_function(
        self, fn: IRFunction, args: list[int | float]
    ) -> int | float | None:
        frame_segs: dict[str, int] = {}
        for slot, size in fn.slots.items():
            frame_segs[slot] = self._new_segment(size)
        temps: dict[int, int | float] = {}
        for i, _p in enumerate(fn.params):
            temps[-(i + 1)] = args[i] if i < len(args) else 0
        blocks = fn.block_map()
        if not fn.blocks:
            return 0
        label = fn.blocks[0].label
        while True:
            block = blocks.get(label)
            if block is None:
                raise Trap(f"jump to unknown block {label}")
            next_label: str | None = None
            for instr in block.instrs:
                self.fuel -= 1
                if self.fuel <= 0:
                    raise OutOfFuel
                result = self._step(instr, temps, frame_segs)
                if result is not None:
                    kind, payload = result
                    if kind == "jmp":
                        next_label = payload
                        break
                    if kind == "ret":
                        for seg in frame_segs.values():
                            self.segments.pop(seg, None)
                        return payload
            if next_label is None:
                # Fell off the end of a block without a terminator.
                for seg in frame_segs.values():
                    self.segments.pop(seg, None)
                return 0
            label = next_label

    def _value(self, op: Operand, temps: dict[int, int | float]) -> int | float:
        if isinstance(op, ImmInt):
            return op.value
        if isinstance(op, ImmFloat):
            return op.value
        assert isinstance(op, Temp)
        if op.index not in temps:
            raise Trap(f"use of undefined temp {op}")
        return temps[op.index]

    def _step(self, instr, temps, frame_segs):
        if isinstance(instr, BinOp):
            temps[instr.dst.index] = self._binop(instr, temps)
            return None
        if isinstance(instr, UnOp):
            v = self._value(instr.src, temps)
            if instr.op == "neg":
                out = -v
            elif instr.op == "bnot":
                out = ~int(v)
            elif instr.op == "lnot":
                out = int(not v)
            else:
                raise Trap(f"unknown unop {instr.op}")
            temps[instr.dst.index] = _wrap(out, instr.ty)
            return None
        if isinstance(instr, Cast):
            temps[instr.dst.index] = self._cast(instr, temps)
            return None
        if isinstance(instr, LocalAddr):
            seg = frame_segs.get(instr.slot)
            if seg is None:
                raise Trap(f"unknown slot {instr.slot}")
            temps[instr.dst.index] = self._ptr(seg)
            return None
        if isinstance(instr, GlobalAddr):
            if instr.name in self.seg_names:
                temps[instr.dst.index] = self._ptr(self.seg_names[instr.name])
            elif instr.name in self.functions:
                temps[instr.dst.index] = self._fn_ptr(instr.name)
            else:
                raise Trap(f"unknown global {instr.name}")
            return None
        if isinstance(instr, Load):
            seg, off = self._decode(int(self._value(instr.ptr, temps)))
            temps[instr.dst.index] = self._read(seg, off, instr.ty)
            return None
        if isinstance(instr, Store):
            seg, off = self._decode(int(self._value(instr.ptr, temps)))
            self._write(seg, off, instr.ty, self._value(instr.value, temps))
            return None
        if isinstance(instr, Gep):
            base = int(self._value(instr.base, temps))
            index = int(self._value(instr.index, temps))
            temps[instr.dst.index] = base + index * instr.scale + instr.offset
            return None
        if isinstance(instr, Memcpy):
            dseg, doff = self._decode(int(self._value(instr.dst_ptr, temps)))
            sseg, soff = self._decode(int(self._value(instr.src_ptr, temps)))
            data = bytes(self.segments[sseg][soff : soff + instr.size])
            if doff + instr.size > len(self.segments[dseg]):
                raise Trap("memcpy overflow")
            self.segments[dseg][doff : doff + instr.size] = data
            return None
        if isinstance(instr, Call):
            value = self._call(instr, temps)
            if instr.dst is not None:
                temps[instr.dst.index] = value if value is not None else 0
            return None
        if isinstance(instr, Jmp):
            return ("jmp", instr.target)
        if isinstance(instr, Br):
            cond = self._value(instr.cond, temps)
            return ("jmp", instr.if_true if cond else instr.if_false)
        if isinstance(instr, Ret):
            value = (
                self._value(instr.value, temps) if instr.value is not None else None
            )
            return ("ret", value)
        raise Trap(f"unknown instruction {instr!r}")

    _FN_SEG_BASE = 1 << 30

    def _fn_ptr(self, name: str) -> int:
        names = sorted(self.functions)
        return ((self._FN_SEG_BASE + names.index(name)) << SEG_SHIFT) | 1

    def _binop(self, instr: BinOp, temps) -> int | float:
        a = self._value(instr.lhs, temps)
        b = self._value(instr.rhs, temps)
        op, ty = instr.op, instr.ty
        if op.startswith(("lt", "le", "gt", "ge", "eq", "ne")):
            if op.endswith("u") and ty.is_int:
                a, b = _unsigned(a, ty), _unsigned(b, ty)
                op = op[:-1]
            return int(
                {
                    "lt": a < b, "le": a <= b, "gt": a > b,
                    "ge": a >= b, "eq": a == b, "ne": a != b,
                }[op]
            )
        if op in ("/", "%", "/u", "%u", ">>u") and not ty.is_float:
            a_i, b_i = int(a), int(b)
            if op.endswith("u"):
                a_i, b_i = _unsigned(a_i, ty), _unsigned(b_i, ty)
                op = op[0] if op != ">>u" else ">>"
            if op in ("/", "%") and b_i == 0:
                raise Trap("integer division by zero")
            if op == "/":
                out = int(a_i / b_i) if b_i else 0
            elif op == "%":
                out = a_i - int(a_i / b_i) * b_i
            else:
                out = a_i >> (b_i & (ty.bits - 1))
            return _wrap(out, ty)
        if ty.is_float:
            try:
                out = {
                    "+": a + b, "-": a - b, "*": a * b,
                    "/": a / b if b else float("inf") * (1 if a > 0 else -1 if a < 0 else 0),
                }.get(op)
            except (ZeroDivisionError, OverflowError):
                out = 0.0
            if out is None:
                raise Trap(f"float op {op}")
            return _clamp_float(out, ty)
        a_i, b_i = int(a), int(b)
        if op == "+":
            out = a_i + b_i
        elif op == "-":
            out = a_i - b_i
        elif op == "*":
            out = a_i * b_i
        elif op == "<<":
            out = a_i << (b_i & (ty.bits - 1))
        elif op == ">>":
            out = a_i >> (b_i & (ty.bits - 1))
        elif op == "&":
            out = a_i & b_i
        elif op == "|":
            out = a_i | b_i
        elif op == "^":
            out = a_i ^ b_i
        else:
            raise Trap(f"unknown binop {op}")
        return _wrap(out, ty)

    def _cast(self, instr: Cast, temps) -> int | float:
        v = self._value(instr.src, temps)
        to = instr.to_ty
        if to.is_float:
            return _clamp_float(float(v), to)
        if to is IRType.PTR:
            return int(v)
        iv = int(v)
        return _wrap(iv, to) if instr.signed else _unsigned(_wrap(iv, to), to)

    # -- library -----------------------------------------------------------

    def _call(self, instr: Call, temps) -> int | float | None:
        name = instr.callee
        args = [self._value(a, temps) for a in instr.args]
        if name in self.functions:
            if self.depth >= MAX_CALL_DEPTH:
                # Reported like Python's own overflow (see ``run``).
                raise RecursionError(f"more than {MAX_CALL_DEPTH} nested calls")
            self.depth += 1
            try:
                return self._call_function(self.functions[name], args)
            finally:
                self.depth -= 1
        handler = getattr(self, f"_lib_{name}", None)
        if handler is None:
            raise Trap(f"call to unknown function {name!r}")
        return handler(args)

    def _cstring(self, ptr: int) -> str:
        seg, off = self._decode(int(ptr))
        buf = self.segments[seg]
        end = off
        while end < len(buf) and buf[end] != 0:
            end += 1
        return bytes(buf[off:end]).decode("latin-1", "replace")

    def _format(self, fmt: str, args: list) -> str:
        out: list[str] = []
        ai = 0
        i = 0
        while i < len(fmt):
            ch = fmt[i]
            if ch != "%":
                out.append(ch)
                i += 1
                continue
            j = i + 1
            while j < len(fmt) and fmt[j] in "0123456789.+-# l":
                j += 1
            if j >= len(fmt):
                out.append("%")
                break
            conv = fmt[j]
            arg = args[ai] if ai < len(args) else 0
            ai += 1
            if conv in "di":
                out.append(str(int(arg)))
            elif conv == "u":
                out.append(str(int(arg) & 0xFFFFFFFF))
            elif conv == "x":
                out.append(format(int(arg) & 0xFFFFFFFFFFFFFFFF, "x"))
            elif conv == "c":
                out.append(chr(int(arg) & 0xFF))
            elif conv in "fge":
                out.append(f"{float(arg):.6f}" if conv == "f" else f"{float(arg):g}")
            elif conv == "s":
                out.append(self._cstring(int(arg)))
            elif conv == "p":
                out.append(hex(int(arg)))
            elif conv == "%":
                out.append("%")
                ai -= 1
            else:
                out.append(conv)
            i = j + 1
        return "".join(out)

    def _lib_printf(self, args):
        text = self._format(self._cstring(int(args[0])), args[1:])
        self.output.append(text)
        return len(text)

    def _lib_puts(self, args):
        self.output.append(self._cstring(int(args[0])) + "\n")
        return 0

    def _lib_putchar(self, args):
        self.output.append(chr(int(args[0]) & 0xFF))
        return int(args[0])

    def _lib_sprintf(self, args):
        text = self._format(self._cstring(int(args[1])), args[2:])
        seg, off = self._decode(int(args[0]))
        data = text.encode("latin-1", "replace") + b"\x00"
        buf = self.segments[seg]
        if off + len(data) > len(buf):
            raise Trap("sprintf overflow")
        buf[off : off + len(data)] = data
        return len(text)

    def _lib_snprintf(self, args):
        text = self._format(self._cstring(int(args[2])), args[3:])
        n = int(args[1])
        seg, off = self._decode(int(args[0]))
        data = text.encode("latin-1", "replace")[: max(n - 1, 0)] + b"\x00"
        buf = self.segments[seg]
        if off + len(data) > len(buf):
            raise Trap("snprintf overflow")
        buf[off : off + len(data)] = data
        return len(text)

    def _lib_abort(self, args):
        raise Trap("abort")

    def _lib_exit(self, args):
        raise _Exit(int(args[0]) if args else 0)

    def _lib_assert(self, args):
        if not args or not args[0]:
            raise Trap("abort")
        return 0

    def _lib_malloc(self, args):
        size = int(args[0]) if args else 0
        if size < 0 or size > 1 << 24:
            return 0
        return self._ptr(self._new_segment(size))

    def _lib_calloc(self, args):
        n = int(args[0]) * int(args[1]) if len(args) >= 2 else 0
        return self._lib_malloc([n])

    def _lib_free(self, args):
        return 0

    def _lib_memset(self, args):
        seg, off = self._decode(int(args[0]))
        value = int(args[1]) & 0xFF
        n = int(args[2])
        buf = self.segments[seg]
        if off + n > len(buf) or n < 0:
            raise Trap("memset overflow")
        buf[off : off + n] = bytes([value]) * n
        return args[0]

    def _lib_memcpy(self, args):
        dseg, doff = self._decode(int(args[0]))
        sseg, soff = self._decode(int(args[1]))
        n = int(args[2])
        data = bytes(self.segments[sseg][soff : soff + n])
        if doff + n > len(self.segments[dseg]):
            raise Trap("memcpy overflow")
        self.segments[dseg][doff : doff + n] = data
        return args[0]

    def _lib_strlen(self, args):
        return len(self._cstring(int(args[0])))

    def _lib_strcpy(self, args):
        s = self._cstring(int(args[1]))
        seg, off = self._decode(int(args[0]))
        data = s.encode("latin-1", "replace") + b"\x00"
        buf = self.segments[seg]
        if off + len(data) > len(buf):
            raise Trap("strcpy overflow")
        buf[off : off + len(data)] = data
        return args[0]

    def _lib_strcmp(self, args):
        a = self._cstring(int(args[0]))
        b = self._cstring(int(args[1]))
        return (a > b) - (a < b)

    def _lib_abs(self, args):
        return abs(int(args[0]))

    def _lib_labs(self, args):
        return abs(int(args[0]))

    def _lib_rand(self, args):
        self._rand_state = (self._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._rand_state

    def _lib_srand(self, args):
        self._rand_state = int(args[0]) & 0x7FFFFFFF
        return 0

    def _lib_scanf(self, args):
        return 0  # no stdin in the sandbox; scanf matches nothing


def _wrap(value: int, ty: IRType) -> int:
    if not ty.is_int:
        return value
    bits = ty.bits
    value &= (1 << bits) - 1
    if value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def _unsigned(value: int | float, ty: IRType) -> int:
    return int(value) & ((1 << ty.bits) - 1)


def _clamp_float(value: float, ty: IRType) -> float:
    if ty is IRType.F32:
        try:
            return _struct.unpack("<f", _struct.pack("<f", value))[0]
        except (OverflowError, ValueError):
            return float("inf") if value > 0 else float("-inf")
    return float(value)


def execute(
    module: IRModule, entry: str = "main", fuel: int = 200_000
) -> ExecResult:
    """Convenience wrapper: run ``entry`` and return the result."""
    return Interpreter(module, fuel=fuel).run(entry)

