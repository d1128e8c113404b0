"""The packed kernel: generator signatures, packed monomials and their products.

A :class:`Signature` describes a commutative algebra: one cap per generator,
either an int k >= 2, the generator being nilpotent of index k (its k-th power
is zero), or None, the generator being idempotent (it squares to itself).
Mixed signatures cover tensor products such as "n zeon generators times m
idempotent generators" with a single flat id space.

Every monomial is one packed ``int`` (see :class:`Signature`), and
:func:`mul_into`, which multiplies packed term dicts, is the only product of
monomials.  Each product layer calls it from one place:
``algebra.Element.__mul__`` (which ``__pow__`` steps through) for the public
algebra, ``walks._row_times_matrix`` for every walk and matrix product, and
:func:`subset_products` for every subset level.  Every enumerator works on
packed terms from here alone; the public value type,
:class:`~hyperzeon.algebra.Element`, lives in :mod:`~hyperzeon.algebra`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from itertools import accumulate, groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .algebra import Element

# A canonical monomial: ((generator_id, exponent), ...) sorted by generator id.
# The empty tuple is the unit.  Idempotent generators always carry exponent 1;
# a nilpotent generator of index k carries an exponent in [1, k-1].
Monomial = tuple


class Signature:
    """Ordered generator caps defining one algebra context.

    ``caps`` holds one entry per generator: its nilpotency index, an int >= 2,
    or None for an idempotent generator.  Generator ids are dense (0..G-1) and
    stable.  Tensor products are formed by concatenation (``sig_a + sig_b``);
    ``blocks`` keeps the id ranges of the operands' blocks, in order, so
    (a + b) + c and a + (b + c) have the same three; a signature built any
    other way is one block.  Two signatures are equal when their caps agree;
    ``symbols`` are cosmetic, one per block: a generator prints as its
    block's symbol, or by default ζ, ν or ε after its cap, and its id within
    the block.

    Packed monomials: generator g owns a bit field starting at ``_shifts[g]``,
    fields laid out in id order from the low bits up to ``_shifts[G]``.  An
    idempotent field is one bit.  A nilpotent field of index c holds the exponent in
    v = max(1, (c-1).bit_length()) value bits followed by one guard bit, and
    carries a bias of 2**v - c.  Adding two exponents plus the bias sets the
    guard bit exactly when their sum reaches c, so one addition multiplies all
    nilpotent fields at once and one mask test finds a vanished product.
    No valid key sets a guard bit, so fields are read and written whole.
    Its tables are per field or per bit: O(width) memory.
    """

    __slots__ = ("caps", "symbols", "blocks", "_shifts", "_bit_gid", "_idem", "_bias", "_guard")

    def __init__(self, caps: Iterable[int | None], symbol: str | None = None):
        self.caps = tuple(caps)
        for cap in self.caps:
            if cap is not None and (type(cap) is not int or cap < 2):
                raise ValueError(f"a cap must be None or an int >= 2, got {cap!r}")
        shifts, bit_gid = [], []
        idem = bias = guard = 0
        shift = 0
        for gid, cap in enumerate(self.caps):
            shifts.append(shift)
            if cap:
                v = max(1, (cap - 1).bit_length())
                bias |= ((1 << v) - cap) << shift
                guard |= 1 << (shift + v)
                width = v + 1
            else:
                width = 1
                idem |= 1 << shift
            bit_gid.extend([gid] * width)
            shift += width
        shifts.append(shift)
        self._shifts = tuple(shifts)
        self._bit_gid = tuple(bit_gid)
        self._idem = idem
        self._bias = bias
        self._guard = guard
        self.blocks = (range(len(self.caps)),)
        self.symbols = (symbol,)

    @classmethod
    def zeons(cls, n: int, symbol: str = "ζ") -> "Signature":
        """n generators that square to zero."""
        return cls([2] * n, symbol)

    @classmethod
    def generalized_zeons(cls, indices: Iterable[int], symbol: str = "ν") -> "Signature":
        """One nilpotent generator per entry, of that nilpotency index."""
        return cls(indices, symbol)

    @classmethod
    def idempotents(cls, n: int, symbol: str = "ε") -> "Signature":
        """n generators that square to themselves."""
        return cls([None] * n, symbol)

    def __add__(self, other: "Signature") -> "Signature":
        if not isinstance(other, Signature):
            return NotImplemented
        out = Signature(self.caps + other.caps)
        out.symbols = self.symbols + other.symbols
        n = len(self)
        out.blocks = self.blocks + tuple(range(b.start + n, b.stop + n) for b in other.blocks)
        return out

    def __len__(self) -> int:
        return len(self.caps)

    def __eq__(self, other) -> bool:
        # identity first: the caps tuples of large signatures are long
        return self is other or (isinstance(other, Signature) and self.caps == other.caps)

    def __hash__(self) -> int:
        return hash(self.caps)

    def __repr__(self) -> str:
        kinds = ",".join("I" if cap is None else str(cap) for cap in self.caps)
        return f"Signature[{kinds}]"

    # the value type loads only where a caller asks for an element
    def gen(self, gid: int) -> "Element":
        """The generator with id ``gid`` as an element."""
        from .algebra import Element

        return Element.blade(self, [gid])

    def one(self) -> "Element":
        from .algebra import Element

        return Element.scalar(self, 1)

    def zero(self) -> "Element":
        from .algebra import Element

        return Element.scalar(self, 0)

    # -- packed monomials ------------------------------------------------------

    def encode(self, monomial) -> int | None:
        """Packed key of ((gid, exp), ...) in any order, or None when a nilpotent power saturates.

        Repeated generators accumulate and idempotent exponents collapse to 1.
        """
        caps, shifts = self.caps, self._shifts
        key = 0
        for gid, exp in monomial:
            if type(gid) is not int or not 0 <= gid < len(caps):
                raise ValueError(f"generator id {gid!r} out of range")
            if type(exp) is not int or exp < 1:
                raise ValueError(f"exponent must be an int >= 1, got {exp!r}")
            shift = shifts[gid]
            cap = caps[gid]
            if cap:
                field = ((1 << (shifts[gid + 1] - shift)) - 1) << shift
                exp += (key & field) >> shift
                if exp >= cap:
                    return None
                key = (key & ~field) | (exp << shift)
            else:
                key |= 1 << shift
        return key

    def decode(self, key: int) -> Monomial:
        """The canonical tuple monomial of a key: each block's :meth:`support`, a field read per id.

        Id i of block b is generator ``blocks[b].start + i - 1``.
        """
        shifts = self._shifts
        return tuple(
            (g, (key >> shifts[g]) & ((1 << (shifts[g + 1] - shifts[g])) - 1))
            for b, span in enumerate(self.blocks)
            for g in (span.start + i - 1 for i in self.support(key, b))
        )

    def _block(self, block) -> range:
        """The id range of block ``block``, an int index into ``blocks``; ValueError otherwise."""
        if type(block) is not int or not 0 <= block < len(self.blocks):
            raise ValueError(f"block {block!r} out of range")
        return self.blocks[block]

    def support(self, key: int, block: int) -> tuple[int, ...]:
        """The ids of the generators present in a packed key, ascending, each once.

        Only those in ``blocks[block]``, numbered from 1 within it as the
        default display subscripts are.  The one reader of a key's bit
        layout: it shifts the block down to bit 0, then past each field
        found.  A negative key or one past the last field raises ValueError.
        """
        span = self._block(block)
        shifts, bit_gid = self._shifts, self._bit_gid
        if key < 0 or key.bit_length() > shifts[-1]:
            raise ValueError("key out of range")
        base = span.start - 1
        pos = shifts[span.start]
        key = (key >> pos) & ((1 << (shifts[span.stop] - pos)) - 1)
        out = []
        while key:
            g = bit_gid[pos + (key & -key).bit_length() - 1]
            out.append(g - base)
            key >>= shifts[g + 1] - pos
            pos = shifts[g + 1]
        return tuple(out)

    def mask(self, ids: Iterable[int], block: int) -> int:
        """The packed key of the product of the given generators, each to the first power.

        Ids are numbered from 1 within ``blocks[block]``, exactly as
        :meth:`support` reads them back.  The one block-aware writer of keys,
        as ``support`` is the one reader.  Over idempotent and index-2
        generators ``key & m == m`` tests that all of them are present.
        """
        span = self._block(block)
        shifts, out = self._shifts, 0
        for i in ids:
            if type(i) is not int or not 1 <= i <= len(span):
                raise ValueError(f"generator id {i!r} out of range")
            out |= 1 << shifts[span[i - 1]]
        return out

    def _name(self, gid: int) -> tuple[str, int]:
        """The printed (symbol, id within its block) of generator ``gid``."""
        # the last block starting at or before gid; empty blocks at that start come earlier
        b = bisect_right(self.blocks, gid, key=attrgetter("start")) - 1
        cap = self.caps[gid]
        symbol = self.symbols[b] or ("ε" if cap is None else "ζ" if cap == 2 else "ν")
        return symbol, gid - self.blocks[b].start + 1

    def render_monomial(self, monomial: Monomial) -> str:
        """Deterministic text for one monomial, multi-index style (e.g. ζ{1,2}ε3).

        A run of first powers of one symbol prints as one multi-index; a higher
        power prints on its own (ν1^2ν2^2).
        """
        parts = []
        named = [(*self._name(gid), exp) for gid, exp in monomial]
        for (symbol, exp), run in groupby(named, lambda t: (t[0], t[2])):
            subs = [str(i) for _, i, _ in run]
            if exp != 1:
                parts.extend(f"{symbol}{sub}^{exp}" for sub in subs)
            elif len(subs) == 1:
                parts.append(symbol + subs[0])
            else:
                parts.append(f"{symbol}{{{','.join(subs)}}}")
        return "".join(parts)


def mul_into(signature: Signature, acc: dict, a: Mapping, b: Mapping) -> dict:
    """Add the product a*b into ``acc`` (packed monomial -> coefficient) and return it.

    ``a`` and ``b`` map packed monomials of ``signature`` to coefficients (a
    dict or an :attr:`Element.packed` view) and are only read.  ``acc``
    belongs to the caller and may already hold terms; entries can reach zero
    along the way, and :meth:`Element.from_packed` drops them at the end.
    """
    if len(a) < len(b):
        a, b = b, a  # the product commutes; split the smaller operand
    idem, bias, guard = signature._idem, signature._bias, signature._guard
    # s = a + (b & N) + BIAS: no field carries out, so a's idempotent bits pass
    # through the sum unchanged and b's are OR-ed in afterwards
    get, items = acc.get, a.items()
    for mb, cb in b.items():
        bn, bi = (mb & ~idem) + bias, mb & idem
        for ma, ca in items:
            s = ma + bn
            if s & guard:
                continue
            m = (s - bias) | bi
            acc[m] = get(m, 0) + ca * cb
    return acc


def subset_products(signature: Signature, factors, depth: int | None = None, target: int = 0):
    """Yield (j, terms) for j = 1, 2, ...: the products of all j-subsets of ``factors``.

    ``factors`` is an iterable of packed monomials of ``signature``, each
    taken with coefficient 1; ``terms`` maps every packed product that
    survives to the number of j-subsets giving it, and belongs to the caller.
    Level j is the part of the product of (1 + f) over the factors made of j
    factors: each subset is formed once, by appending factors in index order,
    so no coefficient carries the j! orderings of the j-th power of their sum.
    Without ``depth`` the levels run until no subset is left.  With ``depth``,
    only level ``depth`` is yielded, and subsets that can no longer reach
    ``depth`` factors are dropped on the way; a depth above the number of
    factors yields nothing.  With ``target``, a mask of first powers of
    idempotent or index-2 generators, a level holds only the products that
    carry all of it (it may be empty), and only subsets that later factors
    can still complete to carry it are kept.
    """
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    idem, guard = signature._idem, signature._guard
    # index-2 first-power bits: field starts just below a guard
    if target & ~(idem | guard >> 1 & ((idem | guard) << 1 | 1)):
        raise ValueError("target bits must be first powers of idempotent or index-2 generators")
    factors = list(factors)
    units = [{f: 1} for f in factors]  # read only, so they double as level 1
    count = len(units)
    # reach[i]: the target bits of factors i, i+1, ...
    reach = list(accumulate(reversed(factors), lambda r, f: r | f & target, initial=0))[::-1]
    # a j-subset whose last factor is i can grow to `depth` factors iff i < cut + j
    cut = count if depth is None else count - depth
    # parts[i]: products of the current level's subsets whose last factor is i
    parts = [u if reach[i] == target else {} for i, u in enumerate(units[: max(0, cut + 1)])]
    j = 1
    while any(parts):
        if depth is None or j == depth:
            level: dict = {}
            for part in parts:
                for m, c in part.items():
                    if m & target == target:
                        level[m] = level.get(m, 0) + c
            yield j, level
            if j == depth:
                return
        # level j+1 ending at i: (level-j subsets ending before i) * factor i,
        # with equal products merged in the running prefix first
        prefix: dict = {}
        nxt = [{} for _ in range(min(count, cut + j + 1))]
        for i in range(j, len(nxt)):
            for m, c in parts[i - 1].items():
                prefix[m] = prefix.get(m, 0) + c
            if reach[i] != reach[i - 1]:  # drop products that can no longer carry the target
                prefix = {m: c for m, c in prefix.items() if (m | reach[i]) & target == target}
            mul_into(signature, nxt[i], prefix, units[i])
        parts = nxt
        del prefix  # free the old level's merge before the next level is merged
        j += 1


def subset_level(signature: Signature, factors, k: int) -> dict:
    """Level k of :func:`subset_products`: the products of all k-subsets, or {}."""
    for _, level in subset_products(signature, factors, k):
        return level
    return {}
