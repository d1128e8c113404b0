"""Exact sparse arithmetic in commutative algebras whose generators are nilpotent or idempotent.

An algebra is described by a :class:`Signature`: one cap per generator, either
an int k >= 2, the generator being nilpotent of index k (its k-th power is
zero), or None, the generator being idempotent (it squares to itself).  Mixed
signatures cover tensor products such as "n zeon generators times m idempotent
generators" with a single flat id space.  Elements are immutable sparse sums of monomials with exact
integer or rational coefficients; all operations are pure functions.

Internally every monomial is one packed ``int`` (see :class:`Signature`), and
:func:`mul_into`, which multiplies packed term dicts, is the only product of
monomials.  Each product layer calls it from one place: ``Element.__mul__``
(which ``__pow__`` steps through) for the public algebra,
``walks._row_times_matrix`` for every walk and matrix product, and
:func:`subset_products` for every subset level.  :class:`Element` is the
public value type, and the public view of an element's terms keeps canonical
tuple monomials.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Mapping
from itertools import accumulate, groupby
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable

from .errors import ContextError

# fractions (and decimal, which it imports) load only where a caller uses them
Coeff = "int | Fraction"

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

    def gen(self, gid: int) -> "Element":
        """The generator with id ``gid`` as an element."""
        return Element.blade(self, [gid])

    def one(self) -> "Element":
        return Element.scalar(self, 1)

    def zero(self) -> "Element":
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
    Without ``depth`` the levels run until one is empty.  With ``depth``, only
    level ``depth`` is yielded, and subsets that can no longer reach ``depth``
    factors are dropped on the way; a depth above the number of factors
    yields nothing.  With ``target``, a mask of first powers of idempotent or
    index-2 generators, only products that later factors can still complete
    to carry all of it are kept.
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


def subset_level(signature: Signature, factors, k: int, target: int = 0) -> dict:
    """Level k of :func:`subset_products`: the products of all k-subsets, or {}."""
    for _, level in subset_products(signature, factors, k, target):
        return level
    return {}


def _is_scalar(x) -> bool:
    """Whether ``x`` is an int or a Fraction, without importing ``fractions``."""
    if isinstance(x, int):
        return True
    # a Fraction can only exist once its module is loaded
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


class Element:
    """An immutable sparse sum of monomials with exact coefficients.

    Stored terms never include zero coefficients and every monomial is a
    packed key of the signature, so equality is plain dict equality.
    Coefficients are ints or Fractions, which every constructor but
    :meth:`from_packed` checks; arithmetic lifts them on either side to
    scalar elements.
    """

    __slots__ = ("signature", "_terms")

    def __init__(self, signature: Signature, terms=()):
        self.signature = signature
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Coeff] = {}
        for monomial, coeff in items:
            if not _is_scalar(coeff):
                raise ValueError(f"a coefficient must be an int or a Fraction, got {coeff!r}")
            m = signature.encode(monomial)
            if m is not None:
                acc[m] = acc.get(m, 0) + coeff
        self._terms = {m: c for m, c in acc.items() if c != 0}

    # -- constructors ---------------------------------------------------

    @classmethod
    def scalar(cls, signature: Signature, value: Coeff) -> "Element":
        return cls(signature, {(): value})

    @classmethod
    def blade(cls, signature: Signature, gids: Iterable[int], coeff: Coeff = 1) -> "Element":
        """coeff times the product of the given generators (repeats accumulate)."""
        return cls(signature, [(tuple((g, 1) for g in gids), coeff)])

    @classmethod
    def from_packed(cls, signature: Signature, terms: dict) -> "Element":
        """The element of packed terms, such as a :func:`mul_into` accumulator.

        Zero coefficients are dropped; the element takes ownership of ``terms``.
        """
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c != 0}
        out = object.__new__(cls)
        out.signature = signature
        out._terms = terms
        return out

    # -- views -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Coeff]:
        """Terms keyed by canonical tuple monomials: a read-only decoded copy."""
        decode = self.signature.decode
        return MappingProxyType({decode(m): c for m, c in self._terms.items()})

    @property
    def packed(self) -> Mapping[int, Coeff]:
        """Terms keyed by packed monomials (see :class:`Signature`)."""
        return MappingProxyType(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms in the deterministic rendering order (grade, then exponent vector)."""
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Element):
            return self.signature == other.signature and self._terms == other._terms
        if _is_scalar(other):
            return self._terms == Element.scalar(self.signature, other)._terms
        return NotImplemented

    __hash__ = None

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Element):
            if self.signature != other.signature:
                raise ContextError("elements belong to different signatures")
            return other
        if _is_scalar(other):
            return Element.scalar(self.signature, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc = dict(self._terms)
        for m, c in rhs._terms.items():
            acc[m] = acc.get(m, 0) + c
        return Element.from_packed(self.signature, acc)

    __radd__ = __add__

    def __neg__(self):
        return Element.from_packed(self.signature, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        sig = self.signature
        if _is_scalar(other):
            return Element.from_packed(sig, {m: c * other for m, c in self._terms.items()})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Element.from_packed(sig, mul_into(sig, {}, self._terms, rhs._terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Element":
        # Iterated products: nilpotent cancellation keeps intermediates small,
        # and a vanished partial product short-circuits the rest.
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {k!r}")
        if k == 0:
            return Element.scalar(self.signature, 1)
        out = self
        for _ in range(k - 1):
            if not out:
                break
            out = out * self
        return out

    # -- structure queries -------------------------------------------------

    def scalar_part(self) -> Coeff:
        return self._terms.get(0, 0)

    def dual_part(self) -> "Element":
        if 0 not in self._terms:
            return self
        acc = dict(self._terms)
        del acc[0]
        return Element.from_packed(self.signature, acc)

    def grade_part(self, k: int) -> "Element":
        """Terms whose monomial involves exactly k distinct generators."""
        decode = self.signature.decode
        return Element.from_packed(
            self.signature, {m: c for m, c in self._terms.items() if len(decode(m)) == k}
        )

    def scalar_sum(self) -> Coeff:
        return sum(self._terms.values())

    def min_grade(self) -> int:
        """Least generator count among nonzero terms; 0 for the zero element."""
        if not self._terms:
            return 0
        decode = self.signature.decode
        return min(len(decode(m)) for m in self._terms)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for m, c in self.sorted_terms():
            body = self.signature.render_monomial(m)
            mag = -c if c < 0 else c
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}·{body}"
            if not pieces:
                pieces.append(f"-{text}" if c < 0 else text)
            else:
                pieces.append(f"- {text}" if c < 0 else f"+ {text}")
        return " ".join(pieces)

    __repr__ = __str__


def nilpotency_index(u: Element, cap: int) -> int | None:
    """Least k <= cap with u**k == 0, or None if no power up to cap vanishes."""
    if type(cap) is not int or cap < 1:
        raise ValueError(f"cap must be an int >= 1, got {cap!r}")
    p = u
    for k in range(1, cap + 1):
        if not p:
            return k
        p = p * u
    return None


def annihilates(blade_gids: Iterable[int], u: Element) -> bool:
    """True when the square-free blade on the given generators multiplies u to zero.

    Only index-2 nilpotent generators are admitted; anything else cannot form a
    square-free annihilator blade in the intended sense.
    """
    gids = tuple(blade_gids)
    sig = u.signature
    blade = Element.blade(sig, gids)
    if any(sig.caps[g] != 2 for g in gids):
        raise ValueError("annihilator blades must use index-2 nilpotent generators")
    if len(set(gids)) != len(gids):
        raise ValueError("annihilator blades must be square-free")
    return not blade * u
