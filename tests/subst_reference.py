"""The reference traversal: the variable walks of ``syntax`` as they were
before they shared unchanged subtrees, rebuilding every node they visit.
``syntax.shift``, ``subst_many``, ``uses_index`` and ``motive_succ_case``
must return results ``==`` to these. ``rename_with`` has no kernel
counterpart: it is how ``renamings`` maps variables."""

from ttkernel.syntax import App, Lam, Nat, NatInd, Pi, Succ, TmConst, Ty, TyConst, Var, Zero, succ


def _map_term(t, depth, on_var):
    match t:
        case Var(i):
            return on_var(i, depth)
        case Lam(b):
            return Lam(_map_term(b, depth + 1, on_var))
        case App(f, a):
            return App(_map_term(f, depth, on_var), _map_term(a, depth, on_var))
        case Zero():
            return t
        case Succ(k, base):
            return succ(k, _map_term(base, depth, on_var))
        case NatInd(n, motive, z, s):
            return NatInd(
                _map_term(n, depth, on_var),
                _map_ty(motive, depth + 1, on_var),
                _map_term(z, depth, on_var),
                _map_term(s, depth + 2, on_var),
            )
        case TmConst(c, args):
            return TmConst(c, tuple(_map_term(a, depth, on_var) for a in args))
    raise AssertionError(f"not a term: {t!r}")


def _map_ty(ty, depth, on_var):
    match ty:
        case Pi(dom, cod):
            return Pi(_map_ty(dom, depth, on_var), _map_ty(cod, depth + 1, on_var))
        case Nat():
            return ty
        case TyConst(c, args):
            return TyConst(c, tuple(_map_term(a, depth, on_var) for a in args))
    raise AssertionError(f"not a type: {ty!r}")


def _map(t, on_var):
    if isinstance(t, Ty):
        return _map_ty(t, 0, on_var)
    return _map_term(t, 0, on_var)


def shift(t, by, cutoff=0):
    if by == 0:
        return t

    def on_var(i, d):
        return Var(i + by) if i >= cutoff + d else Var(i)

    return _map(t, on_var)


def subst_many(t, sigma):
    k = len(sigma)

    def on_var(i, d):
        if i < d:
            return Var(i)
        j = i - d
        if j < k:
            return shift(sigma[j], d)
        return Var(i - k)

    return _map(t, on_var)


def subst1(body, arg):
    return subst_many(body, (arg,))


def motive_succ_case(motive):
    return subst1(shift(motive, 2, cutoff=1), Succ(1, Var(1)))


def uses_index(t, i):
    found = False

    def on_var(j, d):
        nonlocal found
        if j == i + d:
            found = True
        return Var(j)

    _map(t, on_var)
    return found


def rename_with(mapping, t):
    def on_var(i, d):
        if i < d:
            return Var(i)
        return Var(mapping[i - d] + d)

    return _map(t, on_var)
