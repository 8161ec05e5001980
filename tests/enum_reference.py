"""The reference enumerator: every well-scoped tree, filtered through the
kernel checker. Complete by construction and slow; at each size,
``gen.enum_terms`` and the enumerator's types (``enum_types`` in
``test_gen.py``) must return the same terms and types, each once, in
whatever order."""

from itertools import product

from ttkernel.check import check_ty
from ttkernel.errors import KernelError
from ttkernel.gen import typable
from ttkernel.signature import PostulateTm, PostulateTy
from ttkernel.syntax import App, Const, Context, Lam, Nat, NatInd, Pi, TyConst, Var, Zero, succ

# The benchmark's partition targets (context, type) over the CROSSVAL
# signature of conftest.py; 192/68/21/21 terms up to size 6.
PARTITION_TARGETS = (
    (Context((Nat(),)), Nat()),
    (Context(), Pi(Nat(), Nat())),
    (Context((TyConst("A"),)), TyConst("B", (Var(0),))),
    (Context((Nat(),)), TyConst("C", (Var(0),))),
)


class RawEnum:
    """All well-scoped trees of an exact node count, memoized by depth."""

    def __init__(self, sig):
        self.tm_consts = [d for d in sig.decls if isinstance(d, PostulateTm)]
        self.ty_consts = [d for d in sig.decls if isinstance(d, PostulateTy)]
        self._terms = {}
        self._types = {}

    def terms(self, n, s):
        key = (n, s)
        if key in self._terms:
            return self._terms[key]
        out = []
        if s == 1:
            out += [Var(i) for i in range(n)]
            out.append(Zero())
            out += [Const(d.name) for d in self.tm_consts]  # heads: App applies them
        elif s >= 2:
            out += [succ(1, p) for p in self.terms(n, s - 1)]
            out += [Lam(b) for b in self.terms(n + 1, s - 1)]
            for s1 in range(1, s - 1):
                for f in self.terms(n, s1):
                    out += [App(f, a) for a in self.terms(n, s - 1 - s1)]
            for sizes in compositions(s - 1, 4):
                for scrut in self.terms(n, sizes[0]):
                    for motive in self.types(n + 1, sizes[1]):
                        for z in self.terms(n, sizes[2]):
                            out += [
                                NatInd(scrut, motive, z, sc)
                                for sc in self.terms(n + 2, sizes[3])
                            ]
        result = tuple(out)
        self._terms[key] = result
        return result

    def types(self, n, s):
        key = (n, s)
        if key in self._types:
            return self._types[key]
        out = []
        if s == 1:
            out.append(Nat())
            out += [TyConst(d.name) for d in self.ty_consts if not d.params]
        elif s >= 2:
            for d in self.ty_consts:
                if d.params:
                    out += [
                        TyConst(d.name, args)
                        for args in self._arg_tuples(n, len(d.params), s - 1)
                    ]
            for s1 in range(1, s - 1):
                for dom in self.types(n, s1):
                    out += [Pi(dom, cod) for cod in self.types(n + 1, s - 1 - s1)]
        result = tuple(out)
        self._types[key] = result
        return result

    def _arg_tuples(self, n, k, budget):
        for sizes in compositions(budget, k):
            yield from product(*(self.terms(n, sz) for sz in sizes))


def compositions(total, parts):
    """All tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_terms(sig, ctx, ty, max_size):
    """Every well-typed term at ``ty`` with node count <= ``max_size``."""
    raw = RawEnum(sig)
    out = []
    for s in range(1, max_size + 1):
        out += [t for t in raw.terms(len(ctx), s) if typable(sig, ctx, t, ty)]
    return out


def reference_types(sig, ctx, max_size):
    """Every well-formed type with node count <= ``max_size``."""
    raw = RawEnum(sig)
    out = []
    for s in range(1, max_size + 1):
        out += [ty for ty in raw.types(len(ctx), s) if _well_formed(sig, ctx, ty)]
    return out


def _well_formed(sig, ctx, ty):
    try:
        check_ty(sig, ctx, ty)
    except KernelError:
        return False
    return True
