"""Signatures: declared constants in order, with a name index.

A signature realizes the free-model setting: type constants with term
telescopes, term constants with a telescope and a result type, and
transparent definitions. A definition stays a constant: terms name it with
``Const``. Bodies are closed and mention only the definitions before them.
A signature answers lookups by kind, the declaration's class;
``check.declare`` checks a declaration and appends it.

A constant used as a function (a definition, or a term constant given
fewer arguments than it takes) has a type, which the checker reads, and a
body, from which each engine computes its ``entry`` for it, kept under a
key of its own. Only ``function`` says what a term constant's are.

Extending costs the same at any length. A signature and those extended
from it share one list of declarations and one name index, and each sees
the prefix of its own length. A signature that is no longer the longest of
that lineage, because it was extended already, copies its prefix when
extended again, so siblings never see each other's declarations. Entries
and derived views are caches of one signature alone: an extended signature
starts with none.
"""

from __future__ import annotations

from .syntax import Node, Term, Ty, const_names, eta_constant, node, pi_over


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
    _cache: dict  # key -> {constant name: entry}, and build -> view: this signature's alone

    def __init__(self, decls: tuple[Declaration, ...] = ()):
        self._decls = list(decls)
        self._length = len(self._decls)
        self._index = {d.name: i for i, d in enumerate(self._decls)}
        self._cache = {}

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
        appends in place; any other copies its prefix first."""
        n = self._length
        if n and n == len(self._decls) and decl.name not in self._index:
            sig = object.__new__(Signature)
            sig._decls, sig._index, sig._cache = self._decls, self._index, {}
        else:
            sig = Signature(self._decls[:n])
        sig._index[decl.name] = len(sig._decls)
        sig._decls.append(decl)
        sig._length = n + 1
        return sig

    def derived(self, build):
        """``build(self)``, computed once for this signature alone."""
        got = self._cache.get(build)
        if got is None:
            got = self._cache[build] = build(self)
        return got

    def function(self, name: str) -> tuple[Ty, Term] | None:
        """The constant ``name`` used as a function, as ``(type, body)``: a
        definition's declared type and body, or a term constant's Pi over
        its parameters and eta-expansion; None for any other name."""
        d = self.find(Declaration, name)
        if d.__class__ is Define:
            return d.declared_type, d.body
        if d.__class__ is PostulateTm:
            return pi_over(d.params, d.result), eta_constant(name, len(d.params))
        return None

    def entry(self, key: str, name: str, compute):
        """The entry under ``key`` of the constant ``name`` used as a function.
        A miss fills it, and each unfilled one its body reaches, in
        declaration order, with ``compute(self, type, body)`` of ``function``.
        A body names only the definitions before it, so ``compute`` finds
        their entries filled and never recurses into another fill: a chain
        of any length costs no stack."""
        try:
            return self._cache[key][name]
        except KeyError:
            table = self._cache.setdefault(key, {})
        todo, found = [name], {}  # name -> (type, body)
        while todo:
            n = todo.pop()
            if n not in found and n not in table:
                found[n] = self.function(n)
                assert found[n] is not None, f"'{n}' is no constant used as a function"
                todo += const_names(found[n][1])
        for n in sorted(found, key=self._index.__getitem__):
            table[n] = compute(self, *found[n])
        return table[name]
