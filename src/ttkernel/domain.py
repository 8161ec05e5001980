"""Semantic domain for normalization by evaluation.

Values are weak-head: lambda bodies and case arms live in closures that
capture an environment and a piece of syntax. Types never compute, so a
type is not evaluated either: its semantic form is a closure too, the
syntactic type under the environment it was met in. Values carry no
types: only a variable holds its own, and readback synthesizes a neutral's
type from its head, as Coquand's algorithm does (1996). A neutral keeps
semantic payloads (values, closures) and is itself a value.
Environments are ordered outermost-first, so ``Var(i)`` evaluates to
``env[len(env) - 1 - i]``.
"""

from __future__ import annotations

from .syntax import Node, Term, Ty, node


class Value(Node):
    """Semantic values."""
    __slots__ = ()


class Neutral(Value):
    """Blocked eliminations over de Bruijn levels."""
    __slots__ = ()


Env = tuple  # of Value, outermost binder first


@node
class Closure(Node):
    """A body under a captured environment: a term or a type binding one
    variable (a lambda, a motive), a term binding two (the successor case
    of the eliminator), or a type binding none (a semantic type)."""

    env: Env
    body: Term | Ty


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
class NVar(Neutral):
    """A variable at its semantic type, the one value that holds a type."""

    level: int
    ty: Closure


@node
class NApp(Neutral):
    fn: Neutral
    arg: Value


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
