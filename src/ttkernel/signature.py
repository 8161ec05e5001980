"""Signatures: declared constants in order, with a name index.

A signature realizes the free-model setting: type constants with term
telescopes, term constants with a telescope and a result type, and
transparent definitions. A definition stays a constant: terms name it with
``Const``, the checker gives it its declared type, NbE evaluates it
through a table of values and the rewriting oracle unfolds it. Bodies are
closed and mention only the definitions before them. A signature answers
lookups by kind, the declaration's class; ``check.declare`` checks a
declaration and appends it.

Extending costs the same at any length. A signature and those extended
from it share one list of declarations, one name index and the tables kept
for its definitions, and each sees the prefix of its own length. A
signature that is no longer the longest of that lineage, because it was
extended already, copies its prefix when extended again, so two signatures
extended from one parent never see each other's declarations or entries.
"""

from __future__ import annotations

from .syntax import Node, Term, Ty, const_names, node


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
    __match_args__ = ("decls",)  # ==, hash and repr see the declarations alone

    _decls: list  # shared along the lineage; this signature sees the first _length
    _length: int
    _index: dict  # name -> position in _decls, shared likewise
    _tables: dict  # table name -> {constant name: entry}, shared likewise
    _derived: dict  # what ``derived`` built for this signature alone

    def __init__(self, decls: tuple[Declaration, ...] = ()):
        self._decls = list(decls)
        self._length = len(self._decls)
        self._index = {d.name: i for i, d in enumerate(self._decls)}
        self._tables = {}
        self._derived = {}

    @property
    def decls(self) -> tuple[Declaration, ...]:
        return tuple(self._decls[: self._length])

    def find(self, kind: type[Declaration], name: str) -> Declaration | None:
        """The declaration named ``name`` if it is a ``kind`` (any: ``Declaration``), else None."""
        i = self._index.get(name)
        if i is None or i >= self._length:
            return None
        d = self._decls[i]
        return d if isinstance(d, kind) else None

    def of_kind(self, kind: type[Declaration]) -> list[Declaration]:
        """The declarations that are a ``kind``, in declaration order."""
        return [d for d in self._decls[: self._length] if isinstance(d, kind)]

    def extend(self, decl: Declaration) -> Signature:
        """``decl`` appended, unchecked. The longest signature of a lineage
        appends in place; any other copies its prefix, and its tables'
        entries for the names in it, first."""
        n = self._length
        if n and n == len(self._decls) and decl.name not in self._index:
            sig = object.__new__(Signature)
            sig._decls, sig._index, sig._tables = self._decls, self._index, self._tables
        else:
            sig = Signature(self._decls[:n])
            for key, table in self._tables.items():
                sig._tables[key] = {
                    name: entry
                    for name, entry in table.items()
                    if name != decl.name and self.find(Declaration, name)
                }
        sig._index[decl.name] = len(sig._decls)
        sig._decls.append(decl)
        sig._length = n + 1
        sig._derived = {}
        return sig

    def table(self, key: str) -> dict:
        """The entries kept under ``key`` for the constants used as functions,
        by name, filled by their users: shared with the signatures extended
        from this one."""
        got = self._tables.get(key)
        if got is None:
            got = self._tables[key] = {}
        return got

    def derived(self, build):
        """``build(self)``, computed once for this signature alone."""
        got = self._derived.get(build)
        if got is None:
            got = self._derived[build] = build(self)
        return got

    def unfolding_order(self, name: str, table: dict) -> list[Define]:
        """The definition ``name`` and those its body reaches through others
        that have no entry in ``table``, in declaration order. A body names
        only definitions before it, so entries filled in this order are each
        computed from entries already there, never by recursing into another
        definition: a chain of any length costs no stack."""
        decls, index = self._decls, self._index
        todo, found = [name], {}  # name -> position
        while todo:
            n = todo.pop()
            if n in found or n in table:
                continue
            i = index[n]
            d = decls[i]
            if d.__class__ is Define:  # a term constant has no body
                found[n] = i
                todo += const_names(d.body)
        return [decls[i] for i in sorted(found.values())]
