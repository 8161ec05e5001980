"""Signatures: declared constants in order, with a name index.

A signature realizes the free-model setting: type constants with term
telescopes, term constants with a telescope and a result type, and
transparent definitions. A definition stays a constant: terms name it, as
they name a postulated term constant, with ``Const``. Bodies are closed
and mention only the constants before them.
A signature answers lookups by kind, the declaration's class;
``check.declare`` checks a declaration and appends it.

A term constant, named by a ``Const`` head, has a type, which the checker
reads: a definition's as declared, a postulate's the Pi over its
parameters. A definition has a body too, from which each engine computes
its ``entry`` for it, kept under a key of its own; a postulate has no
body, and its entry under every key is its own head, a neutral. Only
``function`` says what a term constant's type and body are.

Extending costs the same at any length. A signature and those extended
from it share one list of declarations and one name index, and each sees
the prefix of its own length. A signature that is no longer the longest of
that lineage, because it was extended already, copies its prefix when
extended again, so siblings never see each other's declarations. Entries
and derived views are caches of one signature alone: an extended signature
starts with none.
"""

from __future__ import annotations

from .syntax import Const, Node, Term, Ty, const_names, node, pi_over


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

    def function(self, name: str) -> tuple[Ty, Term | None] | None:
        """The term constant ``name`` as ``(type, body)``: a definition's
        declared type and body, or a postulate's Pi over its parameters and
        no body; None for any other name."""
        d = self.find(Declaration, name)
        if d.__class__ is Define:
            return d.declared_type, d.body
        if d.__class__ is PostulateTm:
            return pi_over(d.params, d.result), None
        return None

    def entry(self, key: str, name: str, compute):
        """The entry under ``key`` of the term constant ``name``. A miss
        fills it, and each unfilled one its body reaches, in declaration
        order: a postulate's is its own head, a definition's ``compute(self,
        type, body)`` of ``function``. A body names only the constants before
        it, so ``compute`` finds their entries filled and never recurses into
        another fill: a chain of any length costs no stack."""
        try:
            return self._cache[key][name]
        except KeyError:
            table = self._cache.setdefault(key, {})
        todo, found = [name], {}  # name -> (type, body)
        while todo:
            n = todo.pop()
            if n not in found and n not in table:
                fn = found[n] = self.function(n)
                assert fn is not None, f"'{n}' is no term constant"
                if fn[1] is not None:
                    todo += const_names(fn[1])
        for n in sorted(found, key=self._index.__getitem__):
            ty, body = found[n]
            table[n] = Const(n) if body is None else compute(self, ty, body)
        return table[name]
