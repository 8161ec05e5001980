"""Semantic domain for normalization by evaluation.

Values are weak-head: codomains and case arms live in closures that
capture an environment and a piece of syntax. Neutrals keep semantic
payloads (values, closures) and are read back to normal-form trees only
at reify time. Environments are ordered outermost-first, so ``Var(i)``
evaluates to ``env[len(env) - 1 - i]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Term, Ty


class SemTy:
    """Semantic types."""


class Value:
    """Semantic values."""


class Neutral:
    """Blocked eliminations over de Bruijn levels."""


Env = tuple  # of Value, outermost binder first


@dataclass(frozen=True)
class Closure:
    """A body under a captured environment: a term or a type binding one
    variable (a lambda, a codomain, a motive) or a term binding two (the
    successor case of the eliminator)."""

    env: Env
    body: Term | Ty


@dataclass(frozen=True)
class ReflectClosure:
    """The defunctionalized function ``d -> reflect(cod(d), ne d)``.

    Produced by reflect at a function type; ``dom`` is recorded so that
    application can stamp the argument's type into the neutral spine.
    """

    ne: Neutral
    dom: SemTy
    cod: Closure


@dataclass(frozen=True)
class DPi(SemTy):
    dom: SemTy
    cod: Closure


@dataclass(frozen=True)
class DNat(SemTy):
    pass


@dataclass(frozen=True)
class DConst(SemTy):
    name: str
    args: tuple[Value, ...] = ()


@dataclass(frozen=True)
class VLam(Value):
    clo: Closure | ReflectClosure


@dataclass(frozen=True)
class VZero(Value):
    pass


@dataclass(frozen=True)
class VSucc(Value):
    pred: Value


@dataclass(frozen=True)
class VNe(Value):
    """A neutral embedded in a base type (never at a function type)."""

    ty: SemTy
    ne: Neutral


@dataclass(frozen=True)
class NVar(Neutral):
    level: int


@dataclass(frozen=True)
class NApp(Neutral):
    fn: Neutral
    arg: Value
    arg_ty: SemTy


@dataclass(frozen=True)
class NNatInd(Neutral):
    scrut: Neutral
    motive: Closure
    zcase: Value
    scase: Closure


@dataclass(frozen=True)
class NConst(Neutral):
    name: str
    args: tuple[Value, ...] = ()
