"""Core syntax: terms, types, contexts, shifting and substitution.

Terms and types are well-scoped de Bruijn trees: ``Var(0)`` is the
innermost binder. A context is a telescope ordered outermost-first, so
``Var(i)`` refers to ``entries[len(entries) - 1 - i]``. ``BINDERS``
declares, once, which fields are under binders. Every node is a slotted
dataclass on the ``Node`` base, which the kernel never mutates;
structural equality is alpha-equivalence for free. As nothing is
mutated, trees share subtrees: the variable traversals (shift and
substitution) return every subtree they do not change as it is, so a
closed term comes back as the very same object. Code may use ``is``
as a shortcut for ``==``, never as meaning: equal trees need not be the
same object.
"""

from __future__ import annotations

from dataclasses import dataclass

node = dataclass(slots=True, eq=False, repr=False)  # Node supplies ==, hash and repr


class Node:
    """Base of every tree class: structural ``==``, ``hash`` and dataclass-style
    ``repr``. A numeral is one node, but source nesting can make trees deep, so all
    three walk them with an explicit stack over each class's fields
    (``__match_args__``), never recursing."""

    __slots__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if not self.__match_args__:  # no fields: one class, one value
            return True
        xs, ys = [self], [other]
        while xs:
            a, b = xs.pop(), ys.pop()
            if a is b:
                continue
            cls = a.__class__
            if cls is not b.__class__ or cls is tuple and len(a) != len(b):
                return False
            if cls is tuple:
                xs += a
                ys += b
            elif isinstance(a, Node):
                for name in cls.__match_args__:
                    xs.append(getattr(a, name))
                    ys.append(getattr(b, name))
            elif a != b:
                return False
        return True

    def __hash__(self):  # equal trees walk alike
        if not self.__match_args__:
            return hash((self.__class__,))
        shape = (len(x) if x.__class__ is tuple else x.__class__ if isinstance(x, Node) else x
                 for x in walk(self))
        return hash(tuple(shape))

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if x.__class__ is str:  # text ready to print
                out.append(x)
                continue
            if x.__class__ is tuple:
                out.append("(")
                stack.append(",)" if len(x) == 1 else ")")
                fields = [("", y) for y in x]
            else:
                out.append(x.__class__.__qualname__ + "(")
                stack.append(")")
                fields = [(name + "=", getattr(x, name)) for name in x.__match_args__]
            for i, (label, y) in reversed(list(enumerate(fields))):
                stack.append(y if isinstance(y, (Node, tuple)) else repr(y))
                stack.append(", " + label if i else label)
        return "".join(out)


def walk(t):
    """Every node, tuple and field value in ``t``, depth-first, ``t`` first."""
    stack = [t]
    while stack:
        x = stack.pop()
        yield x
        if x.__class__ is tuple:
            stack += x
        elif isinstance(x, Node):
            stack += [getattr(x, name) for name in x.__match_args__]


# ---------------------------------------------------------------------------
# Successor chains.  A chain of successors is one node in every layer: ``cls``
# is the layer's successor class (Succ, SuccNf, VSucc), whose fields are
# ``k >= 1`` and ``base``, and a base is never of the same class.


def succ(cls, k: int, base):
    """``k`` successors of class ``cls`` over ``base``, as one node: ``base``
    itself when ``k`` is 0, its count raised when it is already a chain."""
    if base.__class__ is cls:
        return cls(base.k + k, base.base)
    return cls(k, base) if k else base


class Ty(Node):
    """Base class for types."""
    __slots__ = ()


class Term(Node):
    """Base class for terms."""
    __slots__ = ()


@node
class Pi(Ty):
    dom: Ty
    cod: Ty


@node
class Nat(Ty):
    pass


@node
class TyConst(Ty):
    name: str
    args: tuple[Term, ...] = ()


@node
class Var(Term):
    index: int


@node
class Lam(Term):
    body: Term


@node
class App(Term):
    fn: Term
    arg: Term


@node
class Zero(Term):
    pass


@node
class Succ(Term):
    """``k`` successors over ``base``; built by ``succ``."""

    k: int
    base: Term


@node
class NatInd(Term):
    """Fully annotated eliminator for Nat. ``motive`` binds the scrutinee;
    ``scase`` binds the predecessor (index 1) and the recursive result (index 0)."""

    scrut: Term
    motive: Ty
    zcase: Term
    scase: Term


@node
class TmConst(Term):
    name: str
    args: tuple[Term, ...] = ()


@node
class Const(Term):
    """A constant as a function: a definition, or a term constant given fewer
    arguments than it takes, by name. It is a closed head, applied with
    ``App``; the checker gives it its type as declared (a term constant's as
    the Pi over its parameters), NbE the value of its body (a term
    constant's eta-expansion, ``eta_constant``) and the oracle unfolds it."""

    name: str


# The binders, declared once: how many each field of a class is under, in
# field order; every other class binds nothing. Substitution below restates
# them by hand, for speed, and the tests check that the two agree.
BINDERS = {Pi: (0, 1), Lam: (1,), NatInd: (0, 1, 0, 2)}


def binders(cls) -> tuple[int, ...]:
    """The number of binders over each field of ``cls``, in field order."""
    return BINDERS.get(cls) or (0,) * len(cls.__match_args__)


@node
class Context(Node):
    """A telescope: entry i is scoped over the entries before it."""

    entries: tuple[Ty, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def extend(self, ty: Ty) -> Context:
        return Context(self.entries + (ty,))

    def var_type(self, index: int) -> Ty:
        """Type of ``Var(index)``, weakened to the whole context."""
        n = len(self.entries)
        if not 0 <= index < n:
            raise IndexError(f"variable {index} in context of length {n}")
        return shift(self.entries[n - 1 - index], index + 1)


def numeral(n: int) -> Term:
    return succ(Succ, n, Zero())


def split_pi(ty: Ty) -> tuple[tuple[Ty, ...], Ty]:
    """``(params, result)``: ``ty`` is the Pi type over ``params`` returning ``result``."""
    params = []
    while isinstance(ty, Pi):
        params.append(ty.dom)
        ty = ty.cod
    return tuple(params), ty


def apps(t: Term, args) -> Term:
    """``t`` applied to ``args``, one ``App`` each, the first innermost."""
    for a in args:
        t = App(t, a)
    return t


def pi_over(params: tuple[Ty, ...], result: Ty) -> Ty:
    """The Pi type over ``params`` returning ``result``; ``split_pi`` undone."""
    for p in reversed(params):
        result = Pi(p, result)
    return result


def eta_constant(name: str, arity: int) -> Term:
    """``\\x_1 ... x_n. name x_1 ... x_n``: the term constant ``name`` of
    ``arity`` parameters as a function."""
    t: Term = TmConst(name, tuple(Var(arity - 1 - i) for i in range(arity)))
    for _ in range(arity):
        t = Lam(t)
    return t


# ---------------------------------------------------------------------------
# Variable traversals.  All index manipulation funnels through one walk,
# written out by hand for speed, over the binders that ``BINDERS`` declares.
# ``on_var(v, depth)`` gets each ``Var`` node under ``depth`` binders and
# returns its replacement, ``v`` itself when the index stays. The walk
# returns every subtree in which nothing changed as it is, so a closed term
# comes back as the same object and a changed one shares its unchanged
# parts; ``is`` is only ever a shortcut here, never meaning.


def _map_term(t: Term, depth: int, on_var) -> Term:
    cls = t.__class__
    if cls is Var:
        return on_var(t, depth)
    if cls is App:
        f = _map_term(t.fn, depth, on_var)
        a = _map_term(t.arg, depth, on_var)
        return t if f is t.fn and a is t.arg else App(f, a)
    if cls is Lam:
        b = _map_term(t.body, depth + 1, on_var)
        return t if b is t.body else Lam(b)
    if cls is Zero or cls is Const:
        return t
    if cls is Succ:
        new = _map_term(t.base, depth, on_var)
        return t if new is t.base else succ(Succ, t.k, new)
    if cls is TmConst:
        args = _map_args(t.args, depth, on_var)
        return t if args is t.args else TmConst(t.name, args)
    match t:
        case NatInd(n, motive, z, s):
            n2 = _map_term(n, depth, on_var)
            motive2 = _map_ty(motive, depth + 1, on_var)
            z2 = _map_term(z, depth, on_var)
            s2 = _map_term(s, depth + 2, on_var)
            if n2 is n and motive2 is motive and z2 is z and s2 is s:
                return t
            return NatInd(n2, motive2, z2, s2)
    raise AssertionError(f"not a term: {t!r}")


def _map_ty(ty: Ty, depth: int, on_var) -> Ty:
    match ty:
        case Nat():
            return ty
        case Pi(dom, cod):
            d = _map_ty(dom, depth, on_var)
            c = _map_ty(cod, depth + 1, on_var)
            return ty if d is dom and c is cod else Pi(d, c)
        case TyConst(c, args):
            new = _map_args(args, depth, on_var)
            return ty if new is args else TyConst(c, new)
    raise AssertionError(f"not a type: {ty!r}")


def _map_args(args: tuple[Term, ...], depth: int, on_var) -> tuple[Term, ...]:
    """A constant's arguments mapped: ``args`` itself when none changes,
    otherwise a copy made from the first changed argument on."""
    for i, a in enumerate(args):
        b = _map_term(a, depth, on_var)
        if b is not a:
            return args[:i] + (b,) + tuple(_map_term(x, depth, on_var) for x in args[i + 1 :])
    return args


def _map(t, on_var):
    if isinstance(t, Ty):
        return _map_ty(t, 0, on_var)
    return _map_term(t, 0, on_var)


def shift(t, by: int, cutoff: int = 0):
    """Add ``by`` to every free index >= ``cutoff``."""
    if by == 0 or t.__class__ is Nat:  # Nat, the most frequent type, has no variable
        return t

    def on_var(v, d):
        return Var(v.index + by) if v.index >= cutoff + d else v

    return _map(t, on_var)


def subst_many(t, sigma: tuple[Term, ...]):
    """Simultaneously replace ``Var(j)`` by ``sigma[j]``; higher indices drop."""
    k = len(sigma)
    if k == 0 or t.__class__ is Nat:
        return t

    def on_var(v, d):
        i = v.index
        if i < d:
            return v
        j = i - d
        if j < k:
            return shift(sigma[j], d)
        return Var(i - k)

    return _map(t, on_var)


def subst1(body, arg: Term):
    """Capture-avoiding substitution of ``arg`` for the innermost binder."""
    return subst_many(body, (arg,))


def inst_params(t, args: tuple[Term, ...]):
    """Instantiate a term/type scoped in a parameter telescope.

    ``args`` is in telescope order (outermost parameter first), so the
    innermost index 0 receives the last argument.
    """
    return subst_many(t, tuple(reversed(args)))


def motive_succ_case(motive: Ty) -> Ty:
    """Expected type of a NatInd successor case, scoped over (n, ih)."""
    return subst1(shift(motive, 2, cutoff=1), succ(Succ, 1, Var(1)))


def uses_index(t, i: int) -> bool:
    """Does the free variable ``i`` occur in ``t``?"""
    found = False

    def on_var(v, d):
        nonlocal found
        if v.index == i + d:
            found = True
        return v

    _map(t, on_var)
    return found


def const_names(t) -> list[str]:
    """The names of the ``Const`` heads in a term or type, one per occurrence.
    Written out over the grammar, for speed; the tests hold it to ``walk``."""
    names, stack = [], [t]
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is App:
            stack.append(x.fn)
            stack.append(x.arg)
        elif cls is Var or cls is Zero or cls is Nat:
            pass
        elif cls is Const:
            names.append(x.name)
        elif cls is Lam:
            stack.append(x.body)
        elif cls is Succ:
            stack.append(x.base)
        elif cls is NatInd:
            stack += (x.scrut, x.motive, x.zcase, x.scase)
        elif cls is TmConst or cls is TyConst:
            stack += x.args
        elif cls is Pi:
            stack += (x.dom, x.cod)
        else:
            raise AssertionError(f"not a term or type: {x!r}")
    return names


def node_count(t) -> int:
    """Size of a term or type: nodes including binders, where a chain of
    ``k`` successors counts ``k``."""
    return sum(x.k if x.__class__ is Succ else 1 for x in walk(t) if isinstance(x, Node))


def alpha_eq(a, b) -> bool:
    """Alpha-equivalence: plain structural equality of de Bruijn trees."""
    return a == b
