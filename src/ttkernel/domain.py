"""Semantic domain for normalization by evaluation.

Values are weak-head: codomains and case arms live in closures that
capture an environment and a piece of syntax. A neutral carries its type
at every type and keeps semantic payloads (values, closures); reify reads
it back, eta-expanding it at function types. Environments are ordered
outermost-first, so ``Var(i)`` evaluates to ``env[len(env) - 1 - i]``.
"""

from __future__ import annotations

from .syntax import Node, Term, Ty, node


class SemTy(Node):
    """Semantic types."""
    __slots__ = ()


class Value(Node):
    """Semantic values."""
    __slots__ = ()


class Neutral(Node):
    """Blocked eliminations over de Bruijn levels."""
    __slots__ = ()


Env = tuple  # of Value, outermost binder first


@node
class Closure(Node):
    """A body under a captured environment: a term or a type binding one
    variable (a lambda, a codomain, a motive) or a term binding two (the
    successor case of the eliminator)."""

    env: Env
    body: Term | Ty


@node
class DPi(SemTy):
    dom: SemTy
    cod: Closure


@node
class DNat(SemTy):
    pass


@node
class DConst(SemTy):
    name: str
    args: tuple[Value, ...] = ()


@node
class VLam(Value):
    clo: Closure


@node
class VZero(Value):
    pass


@node
class VSucc(Value):
    """``k`` successors over ``base``; built by ``syntax.succ``."""

    k: int
    base: Value


@node
class VNe(Value):
    """A neutral at its semantic type, function types included."""

    ty: SemTy
    ne: Neutral


@node
class NVar(Neutral):
    level: int


@node
class NApp(Neutral):
    fn: Neutral
    arg: Value
    arg_ty: SemTy


@node
class NNatInd(Neutral):
    scrut: Neutral
    motive: Closure
    zcase: Value
    scase: Closure


@node
class NConst(Neutral):
    name: str
    args: tuple[Value, ...] = ()
