"""The C type system used by the front end.

Types are immutable value objects. ``QualType`` pairs a type with
const/volatile qualifiers, mirroring Clang's design, which the paper's μAST
APIs (``checkBinop``, ``checkAssignment``, ``formatAsDecl``) are written
against.

As Clang's ``ASTContext`` does, the module keeps one ``BuiltinType`` per
kind and one ``QualType`` per builtin kind and qualifiers, and every site
that makes a builtin type hands out that one (:func:`builtin`,
:func:`qualified`): a parsed program shares its ``int`` with every other.
Types still compare by value.  Record types are never shared this way,
because a record's equality ignores its fields.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class BuiltinKind(enum.Enum):
    VOID = "void"
    BOOL = "_Bool"
    CHAR = "char"
    SCHAR = "signed char"
    UCHAR = "unsigned char"
    SHORT = "short"
    USHORT = "unsigned short"
    INT = "int"
    UINT = "unsigned int"
    LONG = "long"
    ULONG = "unsigned long"
    LONGLONG = "long long"
    ULONGLONG = "unsigned long long"
    FLOAT = "float"
    DOUBLE = "double"
    LONGDOUBLE = "long double"
    COMPLEX_FLOAT = "_Complex float"
    COMPLEX_DOUBLE = "_Complex double"


_SIGNED_INTS = {
    BuiltinKind.SCHAR, BuiltinKind.SHORT, BuiltinKind.INT,
    BuiltinKind.LONG, BuiltinKind.LONGLONG, BuiltinKind.CHAR,
}
_UNSIGNED_INTS = {
    BuiltinKind.BOOL, BuiltinKind.UCHAR, BuiltinKind.USHORT,
    BuiltinKind.UINT, BuiltinKind.ULONG, BuiltinKind.ULONGLONG,
}
_FLOATS = {BuiltinKind.FLOAT, BuiltinKind.DOUBLE, BuiltinKind.LONGDOUBLE}
_COMPLEX = {BuiltinKind.COMPLEX_FLOAT, BuiltinKind.COMPLEX_DOUBLE}

#: Integer conversion rank, used by the usual arithmetic conversions.
_RANK = {
    BuiltinKind.BOOL: 0,
    BuiltinKind.CHAR: 1, BuiltinKind.SCHAR: 1, BuiltinKind.UCHAR: 1,
    BuiltinKind.SHORT: 2, BuiltinKind.USHORT: 2,
    BuiltinKind.INT: 3, BuiltinKind.UINT: 3,
    BuiltinKind.LONG: 4, BuiltinKind.ULONG: 4,
    BuiltinKind.LONGLONG: 5, BuiltinKind.ULONGLONG: 5,
}

#: Width in bits on our simulated LP64 target.
BUILTIN_BITS = {
    BuiltinKind.BOOL: 1,
    BuiltinKind.CHAR: 8, BuiltinKind.SCHAR: 8, BuiltinKind.UCHAR: 8,
    BuiltinKind.SHORT: 16, BuiltinKind.USHORT: 16,
    BuiltinKind.INT: 32, BuiltinKind.UINT: 32,
    BuiltinKind.LONG: 64, BuiltinKind.ULONG: 64,
    BuiltinKind.LONGLONG: 64, BuiltinKind.ULONGLONG: 64,
}


class Type:
    """Base class for all canonical types."""

    def spelling(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.spelling()}>"


@dataclass(frozen=True)
class BuiltinType(Type):
    kind: BuiltinKind

    def spelling(self) -> str:
        return self.kind.value


@dataclass(frozen=True)
class PointerType(Type):
    pointee: "QualType"

    def spelling(self) -> str:
        return f"{self.pointee.spelling()} *"


@dataclass(frozen=True)
class ArrayType(Type):
    element: "QualType"
    size: int | None  # None for incomplete arrays (e.g. parameters)

    def spelling(self) -> str:
        n = "" if self.size is None else str(self.size)
        return f"{self.element.spelling()} [{n}]"


@dataclass(frozen=True)
class FunctionType(Type):
    result: "QualType"
    params: tuple["QualType", ...]
    variadic: bool = False
    no_prototype: bool = False  # K&R-style declaration: foo()

    def spelling(self) -> str:
        parts = [p.spelling() for p in self.params]
        if self.variadic:
            parts.append("...")
        return f"{self.result.spelling()} ({', '.join(parts)})"


@dataclass(frozen=True)
class RecordType(Type):
    """A struct or union type, identified by its tag."""

    tag_kind: str  # "struct" or "union"
    name: str  # generated name for anonymous records
    # Fields are attached by sema; keeping them out of equality lets the
    # forward-declared and completed forms compare equal.
    fields: tuple[tuple[str, "QualType"], ...] | None = field(
        default=None, compare=False
    )

    def spelling(self) -> str:
        return f"{self.tag_kind} {self.name}"

    def field_type(self, name: str) -> "QualType | None":
        for fname, ftype in self.fields or ():
            if fname == name:
                return ftype
        return None


@dataclass(frozen=True)
class EnumType(Type):
    name: str

    def spelling(self) -> str:
        return f"enum {self.name}"


@dataclass(frozen=True)
class QualType:
    """A type together with const/volatile qualifiers."""

    type: Type
    const: bool = False
    volatile: bool = False

    def spelling(self) -> str:
        quals = []
        if self.const:
            quals.append("const")
        if self.volatile:
            quals.append("volatile")
        prefix = " ".join(quals)
        base = self.type.spelling()
        return f"{prefix} {base}".strip()

    # -- structural predicates -----------------------------------------

    def is_void(self) -> bool:
        return isinstance(self.type, BuiltinType) and self.type.kind is BuiltinKind.VOID

    def is_bool(self) -> bool:
        return isinstance(self.type, BuiltinType) and self.type.kind is BuiltinKind.BOOL

    def is_integer(self) -> bool:
        if isinstance(self.type, EnumType):
            return True
        return isinstance(self.type, BuiltinType) and (
            self.type.kind in _SIGNED_INTS or self.type.kind in _UNSIGNED_INTS
        )

    def is_signed(self) -> bool:
        return isinstance(self.type, BuiltinType) and self.type.kind in _SIGNED_INTS

    def is_floating(self) -> bool:
        return isinstance(self.type, BuiltinType) and self.type.kind in _FLOATS

    def is_complex(self) -> bool:
        return isinstance(self.type, BuiltinType) and self.type.kind in _COMPLEX

    def is_arithmetic(self) -> bool:
        return self.is_integer() or self.is_floating() or self.is_complex()

    def is_pointer(self) -> bool:
        return isinstance(self.type, PointerType)

    def is_array(self) -> bool:
        return isinstance(self.type, ArrayType)

    def is_function(self) -> bool:
        return isinstance(self.type, FunctionType)

    def is_record(self) -> bool:
        return isinstance(self.type, RecordType)

    def is_scalar(self) -> bool:
        return self.is_arithmetic() or self.is_pointer()

    # -- transformations ------------------------------------------------

    def unqualified(self) -> "QualType":
        if not (self.const or self.volatile):
            return self
        return qualified(self.type)

    def with_const(self, const: bool = True) -> "QualType":
        return qualified(self.type, const=const, volatile=self.volatile)

    def decayed(self) -> "QualType":
        """Array-to-pointer / function-to-pointer decay."""
        if isinstance(self.type, ArrayType):
            return QualType(PointerType(self.type.element))
        if isinstance(self.type, FunctionType):
            return QualType(PointerType(QualType(self.type)))
        return self

    def pointee(self) -> "QualType | None":
        if isinstance(self.type, PointerType):
            return self.type.pointee
        return None

    def element(self) -> "QualType | None":
        if isinstance(self.type, ArrayType):
            return self.type.element
        return None


# Shared builtin types ----------------------------------------------------

_BUILTIN_TYPES = {kind: BuiltinType(kind) for kind in BuiltinKind}
#: Made on first use: a campaign meets a dozen or so of the 72.
_BUILTIN_QUALTYPES: dict[tuple[BuiltinKind, bool, bool], QualType] = {}


def builtin(
    kind: BuiltinKind, const: bool = False, volatile: bool = False
) -> QualType:
    """The one ``QualType`` of builtin ``kind`` with these qualifiers."""
    key = (kind, const, volatile)
    qt = _BUILTIN_QUALTYPES.get(key)
    if qt is None:
        qt = _BUILTIN_QUALTYPES[key] = QualType(
            _BUILTIN_TYPES[kind], const, volatile
        )
    return qt


def qualified(ty: Type, const: bool = False, volatile: bool = False) -> QualType:
    """``QualType(ty, const, volatile)``, the shared one when ``ty`` is builtin."""
    if type(ty) is BuiltinType:
        return builtin(ty.kind, const, volatile)
    return QualType(ty, const, volatile)


# Convenience singletons -------------------------------------------------

VOID = builtin(BuiltinKind.VOID)
BOOL = builtin(BuiltinKind.BOOL)
CHAR = builtin(BuiltinKind.CHAR)
INT = builtin(BuiltinKind.INT)
UINT = builtin(BuiltinKind.UINT)
LONG = builtin(BuiltinKind.LONG)
ULONG = builtin(BuiltinKind.ULONG)
LONGLONG = builtin(BuiltinKind.LONGLONG)
ULONGLONG = builtin(BuiltinKind.ULONGLONG)
FLOAT = builtin(BuiltinKind.FLOAT)
DOUBLE = builtin(BuiltinKind.DOUBLE)
COMPLEX_DOUBLE = builtin(BuiltinKind.COMPLEX_DOUBLE)
CHAR_PTR = QualType(PointerType(CHAR))
INT_PTR = QualType(PointerType(INT))
VOID_PTR = QualType(PointerType(VOID))


def pointer_to(pointee: QualType) -> QualType:
    return QualType(PointerType(pointee))


def array_of(element: QualType, size: int | None) -> QualType:
    return QualType(ArrayType(element, size))


def integer_promote(ty: QualType) -> QualType:
    """Apply the C integer promotions."""
    if isinstance(ty.type, EnumType):
        return INT
    if not ty.is_integer():
        return ty
    kind = ty.type.kind  # type: ignore[union-attr]
    if _RANK.get(kind, 99) < _RANK[BuiltinKind.INT]:
        return INT
    return ty.unqualified()


def usual_arithmetic_conversions(lhs: QualType, rhs: QualType) -> QualType | None:
    """Return the common type of an arithmetic binop, or None if not arithmetic."""
    if not (lhs.is_arithmetic() and rhs.is_arithmetic()):
        return None
    if lhs.is_complex() or rhs.is_complex():
        return COMPLEX_DOUBLE
    for candidate in (BuiltinKind.LONGDOUBLE, BuiltinKind.DOUBLE, BuiltinKind.FLOAT):
        for ty in (lhs, rhs):
            if isinstance(ty.type, BuiltinType) and ty.type.kind is candidate:
                return builtin(candidate)
    lhs, rhs = integer_promote(lhs), integer_promote(rhs)
    lk = lhs.type.kind  # type: ignore[union-attr]
    rk = rhs.type.kind  # type: ignore[union-attr]
    if lk == rk:
        return lhs
    if _RANK[lk] == _RANK[rk]:
        return lhs if lk in _UNSIGNED_INTS else rhs
    return lhs if _RANK[lk] > _RANK[rk] else rhs


def assignable(lhs: QualType, rhs: QualType) -> bool:
    """Conservative model of C's simple-assignment constraints."""
    lhs = lhs.unqualified()
    rhs = rhs.decayed()
    if lhs.is_arithmetic() and rhs.is_arithmetic():
        return True
    if lhs.is_bool() and rhs.is_scalar():
        return True
    if lhs.is_pointer() and rhs.is_pointer():
        lp, rp = lhs.pointee(), rhs.pointee()
        assert lp is not None and rp is not None
        if lp.is_void() or rp.is_void():
            return True
        return lp.type == rp.type
    if lhs.is_pointer() and rhs.is_integer():
        return True  # allowed with a warning in C; our target accepts it
    if lhs.is_record() and rhs.is_record():
        return lhs.type == rhs.type
    return False


def compatible_for_swap(a: QualType, b: QualType) -> bool:
    """Whether two expressions' types can be exchanged (both directions)."""
    return assignable(a, b) and assignable(b, a)
