"""Renamings: type-respecting variable maps between contexts, and a
generator of them. The kernel never renames; the renaming laws and
acceptance criterion 5 (normal forms are stable under renaming) do.
Variables are mapped by ``subst_reference.rename_with``."""

from __future__ import annotations

from ttkernel.gen import GenerationStuck, _rng, gen_context
from ttkernel.signature import Signature
from ttkernel.syntax import Context, Node, Ty, node, uses_index

from subst_reference import rename_with


@node
class Renaming(Node):
    """A type-respecting variable map between contexts.

    ``map[i]`` is the target index of source variable i. Weakening,
    exchange and contraction are all representable.
    """

    source: Context
    target: Context
    map: tuple[int, ...]

    def __post_init__(self):
        assert len(self.map) == len(self.source), "map length must match source"
        for i, j in enumerate(self.map):
            assert 0 <= j < len(self.target), f"map[{i}]={j} escapes the target"
            src_ty = rename_with(self.map, self.source.var_type(i))
            assert src_ty == self.target.var_type(j), (
                f"renaming does not respect the type of variable {i}"
            )

    @staticmethod
    def identity(ctx: Context) -> Renaming:
        return Renaming(ctx, ctx, tuple(range(len(ctx))))

    @staticmethod
    def weakening(ctx: Context, ty: Ty) -> Renaming:
        return Renaming(ctx, ctx.extend(ty), tuple(i + 1 for i in range(len(ctx))))

    def lift(self, dom: Ty) -> Renaming:
        """Extend under one binder of type ``dom`` (scoped in the source)."""
        return Renaming(
            self.source.extend(dom),
            self.target.extend(rename_with(self.map, dom)),
            (0,) + tuple(j + 1 for j in self.map),
        )

    def compose(self, first: Renaming) -> Renaming:
        """``self`` after ``first``."""
        assert first.target == self.source
        return Renaming(first.source, self.target, tuple(self.map[j] for j in first.map))


def rename(r: Renaming, t):
    """Apply a renaming to a term or type."""
    return rename_with(r.map, t)


def gen_renaming(sig: Signature, seed=0) -> tuple[Context, Context, Renaming]:
    """A target telescope, an induced source, and a type-respecting map.

    The construction walks source slots, picks a target variable whose
    type's support already has preimages, and pulls the type back along
    the map; repeats give contractions, skips give weakenings, and the
    order gives exchanges.
    """
    rng = _rng(seed)
    for _ in range(100):
        tgt = gen_context(sig, rng, max_len=3, size=3)
        n_t = len(tgt)
        if n_t == 0:
            continue
        lvl_map: list[int] = []  # source level -> target level
        entries: list[Ty] = []
        for i in range(rng.randint(0, n_t + 1)):
            candidates = []
            for lvl in range(n_t):
                entry = tgt.entries[lvl]
                needed = [u for u in range(lvl) if uses_index(entry, u)]
                if all(any(m == lvl - 1 - u for m in lvl_map) for u in needed):
                    candidates.append(lvl)
            if not candidates:
                break
            lvl = rng.choice(candidates)
            entry = tgt.entries[lvl]
            inverse = []
            for u in range(lvl):
                pre = [kk for kk, m in enumerate(lvl_map) if m == lvl - 1 - u]
                k_src = rng.choice(pre) if pre else 0  # unused when u is not free
                inverse.append(max(i - 1 - k_src, 0) if not pre else i - 1 - k_src)
            entries.append(rename_with(tuple(inverse), entry))
            lvl_map.append(lvl)
        src = Context(tuple(entries))
        n_s = len(entries)
        idx_map = tuple(n_t - 1 - lvl_map[n_s - 1 - v] for v in range(n_s))
        return src, tgt, Renaming(src, tgt, idx_map)
    raise GenerationStuck("could not generate a renaming")
