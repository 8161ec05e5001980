"""Core syntax: terms, types, contexts, shifting and substitution.

Terms and types are well-scoped de Bruijn trees: ``Var(0)`` is the
innermost binder. A context is a telescope ordered outermost-first, so
``Var(i)`` refers to ``entries[len(entries) - 1 - i]``. ``BINDERS``
declares, once, which fields are under binders. A term constant, defined
or postulated, is a ``Const`` head applied with ``App``: a postulate has
no body, so a spine over it is neutral. Every node is a slotted
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

    def __hash__(self):
        """The hash of ``walk``'s shape: each node's class, each tuple's length
        and each field value, in ``walk``'s order, so equal trees hash alike.
        Built from a list in a plain loop, as enumeration hashes many small
        memo keys: ``tuple`` of a generator resizes a fresh tuple of 10 to
        the shape's length, so each call would park one more tuple on
        CPython's free list of that length, memory the process keeps."""
        shape, stack = [], [self]
        while stack:
            x = stack.pop()
            cls = x.__class__
            if cls is tuple:
                shape.append(len(x))
                stack += x
            elif isinstance(x, Node):
                shape.append(cls)
                for name in cls.__match_args__:
                    stack.append(getattr(x, name))
            else:
                shape.append(x)
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
# Successor chains.  A chain of successors is one node, ``Succ``, whose
# fields are ``k >= 1`` and ``base``, and a base is never a ``Succ``.


def succ(k: int, base):
    """``k`` successors over ``base``, as one node: ``base`` itself when
    ``k`` is 0, its count raised when it is already a chain."""
    if base.__class__ is Succ:
        return Succ(base.k + k, base.base)
    return Succ(k, base) if k else base


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
    """``k`` successors over ``base``; built by ``succ``. As a value (a
    numeral is its own value), ``base`` is a value."""

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
class Const(Term):
    """A term constant by name: a definition, or a postulated term constant.
    It is a closed head, applied with ``App``; the checker gives it its type
    as declared (a postulate's as the Pi over its parameters). A definition
    has a body, whose value NbE takes and which the oracle unfolds; a
    postulate has none, and is a neutral head."""

    name: str


# The binders, declared once: how many each field of a class is under, in
# field order; every other class binds nothing. ``uses_index`` reads them;
# the substitution walk restates them by hand, for speed, and
# tests/test_normal.py::test_binder_table_agrees_with_substitution holds
# ``shift``, ``subst_many`` and ``uses_index`` to this table.
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
    return succ(n, Zero())


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


# ---------------------------------------------------------------------------
# Variable traversals.  Shifting and substitution are one walk, ``_subst``,
# written out by hand for speed over the binders that ``BINDERS`` declares.
# It adds each field's binders to ``depth``, which starts at 0 (at the
# cutoff, for a shift): an index below ``depth`` stays, index ``depth + j``
# becomes ``sigma[j]`` shifted by ``depth`` when ``j < len(sigma)``, and
# any other index moves by ``by - len(sigma)``. The walk returns every
# subtree in which nothing changed as it is, so a closed term comes back as
# the same object and a changed one shares its unchanged parts; ``is`` is
# only ever a shortcut here, never meaning.


def _subst(t, depth: int, sigma: tuple[Term, ...], by: int):
    cls = t.__class__
    if cls is Var:
        i = t.index
        if i < depth:
            return t
        if i - depth < len(sigma):
            return shift(sigma[i - depth], depth)
        return Var(i + by - len(sigma))
    if cls is App:
        f = _subst(t.fn, depth, sigma, by)
        a = _subst(t.arg, depth, sigma, by)
        return t if f is t.fn and a is t.arg else App(f, a)
    if cls is Lam:
        b = _subst(t.body, depth + 1, sigma, by)
        return t if b is t.body else Lam(b)
    if cls is Zero or cls is Nat or cls is Const:
        return t
    if cls is Succ:
        b = _subst(t.base, depth, sigma, by)
        return t if b is t.base else succ(t.k, b)
    if cls is TyConst:  # from the first changed argument on, a copy
        args = t.args
        for i, a in enumerate(args):
            b = _subst(a, depth, sigma, by)
            if b is not a:
                rest = tuple(_subst(x, depth, sigma, by) for x in args[i + 1 :])
                return TyConst(t.name, args[:i] + (b,) + rest)
        return t
    if cls is Pi:
        d = _subst(t.dom, depth, sigma, by)
        c = _subst(t.cod, depth + 1, sigma, by)
        return t if d is t.dom and c is t.cod else Pi(d, c)
    if cls is NatInd:
        n = _subst(t.scrut, depth, sigma, by)
        m = _subst(t.motive, depth + 1, sigma, by)
        z = _subst(t.zcase, depth, sigma, by)
        s = _subst(t.scase, depth + 2, sigma, by)
        if n is t.scrut and m is t.motive and z is t.zcase and s is t.scase:
            return t
        return NatInd(n, m, z, s)
    raise AssertionError(f"not a term or type: {t!r}")


def shift(t, by: int, cutoff: int = 0):
    """Add ``by`` to every free index >= ``cutoff``."""
    if by == 0 or t.__class__ is Nat:  # Nat, the most frequent type, has no variable
        return t
    return _subst(t, cutoff, (), by)


def subst_many(t, sigma: tuple[Term, ...]):
    """Simultaneously replace ``Var(j)`` by ``sigma[j]``; higher indices drop."""
    if not sigma or t.__class__ is Nat:
        return t
    return _subst(t, 0, sigma, 0)


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
    return subst1(shift(motive, 2, cutoff=1), succ(1, Var(1)))


def uses_index(t, i: int) -> bool:
    """Does the free variable ``i`` occur in ``t``?"""
    stack = [(t, i)]
    while stack:
        x, j = stack.pop()
        cls = x.__class__
        if cls is Var:
            if x.index == j:
                return True
        elif cls is tuple:
            stack += [(y, j) for y in x]
        elif isinstance(x, Node):
            for name, b in zip(cls.__match_args__, binders(cls)):
                stack.append((getattr(x, name), j + b))
    return False


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
        elif cls is TyConst:
            stack += x.args
        elif cls is Pi:
            stack += (x.dom, x.cod)
        else:
            raise AssertionError(f"not a term or type: {x!r}")
    return names


def node_count(t) -> int:
    """Size of a term or type: nodes including binders, where a chain of
    ``k`` successors counts ``k``. Written out over the grammar, for speed;
    the tests hold it to ``walk``."""
    n, stack = 0, [t]
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is App:
            n += 1
            stack.append(x.fn)
            stack.append(x.arg)
        elif cls is Var or cls is Zero or cls is Nat or cls is Const:
            n += 1
        elif cls is Succ:
            n += x.k
            stack.append(x.base)
        elif cls is Lam:
            n += 1
            stack.append(x.body)
        elif cls is Pi:
            n += 1
            stack += (x.dom, x.cod)
        elif cls is TyConst:
            n += 1
            stack += x.args
        elif cls is NatInd:
            n += 1
            stack += (x.scrut, x.motive, x.zcase, x.scase)
        else:
            raise AssertionError(f"not a term or type: {x!r}")
    return n


def alpha_eq(a, b) -> bool:
    """Alpha-equivalence: plain structural equality of de Bruijn trees."""
    return a == b
