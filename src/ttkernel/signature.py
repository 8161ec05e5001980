"""Signatures: declared constants in order, with a name index.

A signature realizes the free-model setting: type constants with term
telescopes, term constants with a telescope and a result type, and
transparent definitions (expanded during elaboration, so checked bodies
never mention other definitions). It answers lookups by kind, the
declaration's class; ``check.declare`` checks a declaration and appends it.
"""

from __future__ import annotations

from dataclasses import field

from .syntax import Node, Term, Ty, node


class Declaration(Node):
    """Base class for signature entries."""
    __slots__ = ()
    name: str


@node
class PostulateTy(Declaration):
    name: str
    params: tuple[Ty, ...] = ()  # telescope


@node
class PostulateTm(Declaration):
    name: str
    params: tuple[Ty, ...]
    result: Ty  # scoped in params


@node
class Define(Declaration):
    name: str
    declared_type: Ty
    body: Term


@node
class Signature(Node):
    decls: tuple[Declaration, ...] = ()
    # name -> declaration; not in __match_args__, so ==, hash and repr see decls only
    _names: dict[str, Declaration] = field(init=False)

    def __post_init__(self):
        self._names = {d.name: d for d in self.decls}

    def find(self, kind: type[Declaration], name: str) -> Declaration | None:
        """The declaration named ``name`` if it is a ``kind`` (any: ``Declaration``), else None."""
        d = self._names.get(name)
        return d if isinstance(d, kind) else None

    def of_kind(self, kind: type[Declaration]) -> list[Declaration]:
        """The declarations that are a ``kind``, in declaration order."""
        return [d for d in self.decls if isinstance(d, kind)]

    def extend(self, decl: Declaration) -> Signature:
        """``decl`` appended, unchecked: the parent's index is copied, not rebuilt."""
        sig = object.__new__(Signature)
        sig.decls = self.decls + (decl,)
        sig._names = {**self._names, decl.name: decl}
        return sig
