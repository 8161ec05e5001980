"""Signatures: ordered, checked collections of postulated constants.

A signature realizes the free-model setting: type constants with term
telescopes, term constants with a telescope and a result type, and
transparent definitions (expanded during elaboration, so checked bodies
never mention other definitions).
"""

from __future__ import annotations

from .errors import DuplicateName, UnknownName
from .syntax import Context, Node, Term, Ty, node


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

    def get(self, name: str) -> Declaration | None:
        for d in self.decls:
            if d.name == name:
                return d
        return None

    def lookup(self, name: str) -> Declaration:
        d = self.get(name)
        if d is None:
            raise UnknownName(f"unknown name '{name}'")
        return d


def declare(sig: Signature, decl: Declaration) -> Signature:
    """Check ``decl`` against ``sig`` and append it."""
    from .check import check, check_ty  # late import: the checker depends on signatures

    if sig.get(decl.name) is not None:
        raise DuplicateName(f"duplicate name '{decl.name}'")
    match decl:
        case PostulateTy(_, params) | PostulateTm(_, params, _):
            ctx = Context()
            for ty in params:
                check_ty(sig, ctx, ty)
                ctx = ctx.extend(ty)
            if isinstance(decl, PostulateTm):
                check_ty(sig, ctx, decl.result)
        case Define(_, declared_type, body):
            check_ty(sig, Context(), declared_type)
            check(sig, Context(), body, declared_type)
        case _:
            raise AssertionError(f"not a declaration: {decl!r}")
    return Signature(sig.decls + (decl,))


def validate(sig: Signature) -> None:
    """Re-check prefix-closed well-formedness from scratch."""
    rebuilt = Signature()
    for d in sig.decls:
        rebuilt = declare(rebuilt, d)
