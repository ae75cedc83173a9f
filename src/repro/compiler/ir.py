"""A three-address intermediate representation.

The IR is deliberately LLVM-flavoured: functions of basic blocks, virtual
temporaries, explicit loads/stores against stack slots and globals, and
branch/jump terminators.  The optimizer passes and the back end operate on
this representation; the interpreter executes it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Union


class IRType(enum.Enum):
    I8 = "i8"
    I16 = "i16"
    I32 = "i32"
    I64 = "i64"
    F32 = "f32"
    F64 = "f64"
    PTR = "ptr"
    VOID = "void"

    @property
    def is_int(self) -> bool:
        return self in (IRType.I8, IRType.I16, IRType.I32, IRType.I64)

    @property
    def is_float(self) -> bool:
        return self in (IRType.F32, IRType.F64)

    @property
    def size(self) -> int:
        return {
            IRType.I8: 1, IRType.I16: 2, IRType.I32: 4, IRType.I64: 8,
            IRType.F32: 4, IRType.F64: 8, IRType.PTR: 8, IRType.VOID: 0,
        }[self]

    @property
    def bits(self) -> int:
        return self.size * 8


@dataclass(frozen=True)
class Temp:
    """A virtual register."""

    index: int

    def __repr__(self) -> str:
        return f"%t{self.index}"


@dataclass(frozen=True)
class ImmInt:
    value: int

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class ImmFloat:
    value: float

    def __repr__(self) -> str:
        return repr(self.value)


Operand = Union[Temp, ImmInt, ImmFloat]


@dataclass
class Instr:
    """Base class for IR instructions."""

    def operands(self) -> list[Operand]:
        return []

    def dest(self) -> Temp | None:
        return None

    def replace_operands(self, mapping: dict[Operand, Operand]) -> None:
        pass

    @property
    def has_side_effects(self) -> bool:
        return False


@dataclass
class BinOp(Instr):
    dst: Temp
    op: str  # + - * / % << >> & | ^ and comparisons: lt le gt ge eq ne
    lhs: Operand
    rhs: Operand
    ty: IRType

    def operands(self) -> list[Operand]:
        return [self.lhs, self.rhs]

    def dest(self) -> Temp | None:
        return self.dst

    def replace_operands(self, mapping: dict[Operand, Operand]) -> None:
        self.lhs = mapping.get(self.lhs, self.lhs)
        self.rhs = mapping.get(self.rhs, self.rhs)

    def __repr__(self) -> str:
        return f"{self.dst} = {self.op} {self.ty.value} {self.lhs}, {self.rhs}"


@dataclass
class UnOp(Instr):
    dst: Temp
    op: str  # neg, lnot, bnot
    src: Operand
    ty: IRType

    def operands(self) -> list[Operand]:
        return [self.src]

    def dest(self) -> Temp | None:
        return self.dst

    def replace_operands(self, mapping: dict[Operand, Operand]) -> None:
        self.src = mapping.get(self.src, self.src)

    def __repr__(self) -> str:
        return f"{self.dst} = {self.op} {self.ty.value} {self.src}"


@dataclass
class Cast(Instr):
    dst: Temp
    src: Operand
    from_ty: IRType
    to_ty: IRType
    signed: bool = True

    def operands(self) -> list[Operand]:
        return [self.src]

    def dest(self) -> Temp | None:
        return self.dst

    def replace_operands(self, mapping: dict[Operand, Operand]) -> None:
        self.src = mapping.get(self.src, self.src)

    def __repr__(self) -> str:
        return f"{self.dst} = cast {self.from_ty.value}->{self.to_ty.value} {self.src}"


@dataclass
class LocalAddr(Instr):
    """Address of a stack slot."""

    dst: Temp
    slot: str

    def dest(self) -> Temp | None:
        return self.dst

    def __repr__(self) -> str:
        return f"{self.dst} = local &{self.slot}"


@dataclass
class GlobalAddr(Instr):
    dst: Temp
    name: str

    def dest(self) -> Temp | None:
        return self.dst

    def __repr__(self) -> str:
        return f"{self.dst} = global &{self.name}"


@dataclass
class Load(Instr):
    dst: Temp
    ptr: Operand
    ty: IRType
    volatile: bool = False

    def operands(self) -> list[Operand]:
        return [self.ptr]

    def dest(self) -> Temp | None:
        return self.dst

    def replace_operands(self, mapping: dict[Operand, Operand]) -> None:
        self.ptr = mapping.get(self.ptr, self.ptr)

    @property
    def has_side_effects(self) -> bool:
        return self.volatile

    def __repr__(self) -> str:
        v = " volatile" if self.volatile else ""
        return f"{self.dst} = load{v} {self.ty.value} {self.ptr}"


@dataclass
class Store(Instr):
    ptr: Operand
    value: Operand
    ty: IRType
    volatile: bool = False

    def operands(self) -> list[Operand]:
        return [self.ptr, self.value]

    def replace_operands(self, mapping: dict[Operand, Operand]) -> None:
        self.ptr = mapping.get(self.ptr, self.ptr)
        self.value = mapping.get(self.value, self.value)

    @property
    def has_side_effects(self) -> bool:
        return True

    def __repr__(self) -> str:
        v = " volatile" if self.volatile else ""
        return f"store{v} {self.ty.value} {self.value} -> {self.ptr}"


@dataclass
class Gep(Instr):
    """Pointer arithmetic: dst = base + index * scale + offset."""

    dst: Temp
    base: Operand
    index: Operand
    scale: int
    offset: int = 0

    def operands(self) -> list[Operand]:
        return [self.base, self.index]

    def dest(self) -> Temp | None:
        return self.dst

    def replace_operands(self, mapping: dict[Operand, Operand]) -> None:
        self.base = mapping.get(self.base, self.base)
        self.index = mapping.get(self.index, self.index)

    def __repr__(self) -> str:
        return f"{self.dst} = gep {self.base} + {self.index}*{self.scale} + {self.offset}"


@dataclass
class Call(Instr):
    dst: Temp | None
    callee: str
    args: list[Operand]
    arg_tys: list[IRType]
    ret_ty: IRType

    def operands(self) -> list[Operand]:
        return list(self.args)

    def dest(self) -> Temp | None:
        return self.dst

    def replace_operands(self, mapping: dict[Operand, Operand]) -> None:
        self.args = [mapping.get(a, a) for a in self.args]

    @property
    def has_side_effects(self) -> bool:
        return True

    def __repr__(self) -> str:
        args = ", ".join(map(repr, self.args))
        dst = f"{self.dst} = " if self.dst else ""
        return f"{dst}call {self.callee}({args})"


@dataclass
class Memcpy(Instr):
    dst_ptr: Operand
    src_ptr: Operand
    size: int

    def operands(self) -> list[Operand]:
        return [self.dst_ptr, self.src_ptr]

    def replace_operands(self, mapping: dict[Operand, Operand]) -> None:
        self.dst_ptr = mapping.get(self.dst_ptr, self.dst_ptr)
        self.src_ptr = mapping.get(self.src_ptr, self.src_ptr)

    @property
    def has_side_effects(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"memcpy {self.dst_ptr} <- {self.src_ptr} ({self.size})"


# Terminators ----------------------------------------------------------------


@dataclass
class Jmp(Instr):
    target: str

    def __repr__(self) -> str:
        return f"jmp {self.target}"


@dataclass
class Br(Instr):
    cond: Operand
    if_true: str
    if_false: str

    def operands(self) -> list[Operand]:
        return [self.cond]

    def replace_operands(self, mapping: dict[Operand, Operand]) -> None:
        self.cond = mapping.get(self.cond, self.cond)

    def __repr__(self) -> str:
        return f"br {self.cond} ? {self.if_true} : {self.if_false}"


@dataclass
class Ret(Instr):
    value: Operand | None
    ty: IRType

    def operands(self) -> list[Operand]:
        return [self.value] if self.value is not None else []

    def replace_operands(self, mapping: dict[Operand, Operand]) -> None:
        if self.value is not None:
            self.value = mapping.get(self.value, self.value)

    def __repr__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"


TERMINATORS = (Jmp, Br, Ret)


@dataclass
class Block:
    label: str
    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr | None:
        if self.instrs and isinstance(self.instrs[-1], TERMINATORS):
            return self.instrs[-1]
        return None

    def successors(self) -> list[str]:
        term = self.terminator
        if isinstance(term, Jmp):
            return [term.target]
        if isinstance(term, Br):
            return [term.if_true, term.if_false]
        return []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<block {self.label} ({len(self.instrs)} instrs)>"


@dataclass
class IRFunction:
    name: str
    params: list[tuple[str, IRType]]
    ret_ty: IRType
    blocks: list[Block] = field(default_factory=list)
    #: slot name -> (size in bytes, value IRType or None for aggregates)
    slots: dict[str, int] = field(default_factory=dict)
    attributes: list[str] = field(default_factory=list)

    def block(self, label: str) -> Block:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)

    def block_map(self) -> dict[str, Block]:
        return {b.label: b for b in self.blocks}

    def instructions(self) -> Iterator[Instr]:
        for b in self.blocks:
            yield from b.instrs

    def predecessors(self) -> dict[str, list[str]]:
        preds: dict[str, list[str]] = {b.label: [] for b in self.blocks}
        for b in self.blocks:
            for s in b.successors():
                preds.setdefault(s, []).append(b.label)
        return preds

    def dump(self) -> str:
        lines = [f"func {self.name}({', '.join(n for n, _ in self.params)}):"]
        for slot, size in self.slots.items():
            lines.append(f"  slot {slot}: {size}")
        for b in self.blocks:
            lines.append(f"{b.label}:")
            lines.extend(f"  {i!r}" for i in b.instrs)
        return "\n".join(lines)


@dataclass
class GlobalVar:
    name: str
    size: int
    #: Initial bytes as a flat list of (offset, IRType, int|float) triples.
    init: list[tuple[int, IRType, int | float]] = field(default_factory=list)
    #: Raw string data (for string literals / char arrays).
    bytes_init: bytes | None = None
    const: bool = False
    volatile: bool = False


@dataclass
class IRModule:
    functions: dict[str, IRFunction] = field(default_factory=dict)
    globals: dict[str, GlobalVar] = field(default_factory=dict)

    def dump(self) -> str:
        parts = [
            f"global {g.name}: {g.size}"
            f"{' const' if g.const else ''}{' volatile' if g.volatile else ''}"
            f" init={g.init!r} bytes={g.bytes_init!r}"
            for g in self.globals.values()
        ]
        parts.extend(f.dump() for f in self.functions.values())
        return "\n\n".join(parts)
