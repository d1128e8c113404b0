"""The paper's value types over the packed kernel: exact sparse elements and algebra matrices.

:class:`Element` is an immutable sparse sum of monomials of one
:class:`~hyperzeon.kernel.Signature`, with exact integer or rational
coefficients; all operations are pure functions, and every product goes
through :func:`~hyperzeon.kernel.mul_into`.  The public view of an element's
terms keeps canonical tuple monomials.  :class:`AlgebraMatrix` and the
``build_*`` functions give the paper's matrices over elements: the nilpotent
adjacency matrix Ω, the trail matrix, and the factors X and Z of the block
matrix [[0, X], [Z, 0]].  They share the sparse packed rows and the row loop
of :mod:`~hyperzeon.walks`, whose enumerators read packed terms directly and
never load this module.  The matrix API imports them where it runs, so code
that uses only :class:`Element` never loads :mod:`~hyperzeon.walks`.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from types import MappingProxyType
from typing import Iterable

from .errors import ContextError
from .hypergraph import Hypergraph
from .kernel import Monomial, Signature, mul_into

# fractions (and decimal, which it imports) load only where a caller uses them
Coeff = "int | Fraction"


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


# -- matrices -------------------------------------------------------------------


class AlgebraMatrix:
    """Matrix of kernel elements sharing one signature, kept as sparse packed rows.

    Row r is a dict {column: packed terms} over its nonzero entries only, so
    a walk matrix takes space in proportion to its nonzero entries, not to
    rows x cols.  ``m[r]`` builds row r's elements when it is read.
    """

    __slots__ = ("signature", "rows", "cols", "_packed")

    def __init__(self, signature: Signature, rows: list[dict], cols: int):
        """The matrix of sparse packed ``rows``; it takes ownership of ``rows``."""
        self.signature, self.rows, self.cols, self._packed = signature, len(rows), cols, rows

    def __getitem__(self, r: int) -> tuple[Element, ...]:
        sig, row = self.signature, self._packed[r]
        return tuple(Element.from_packed(sig, row.get(c, {})) for c in range(self.cols))

    def __eq__(self, other) -> bool:
        # a product of signed entries can leave zero coefficients in a row;
        # the row's elements drop them
        return (
            isinstance(other, AlgebraMatrix)
            and self.signature == other.signature
            and (self.rows, self.cols) == (other.rows, other.cols)
            and all(self[r] == other[r] for r in range(self.rows))
        )

    def __mul__(self, other: "AlgebraMatrix") -> "AlgebraMatrix":
        if not isinstance(other, AlgebraMatrix):
            return NotImplemented
        if self.signature != other.signature:
            raise ContextError("matrix signatures differ")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        from .walks import _row_times_matrix

        sig, rows = self.signature, other._packed
        return AlgebraMatrix(
            sig, [_row_times_matrix(sig, row, rows) for row in self._packed], other.cols
        )

    def power(self, k: int) -> "AlgebraMatrix":
        """The k-th power of a square matrix: each unit row takes k steps of the walk row loop."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {k!r}")
        if self.rows != self.cols:
            raise ValueError(f"power of a non-square {self.rows}x{self.cols} matrix")
        from .walks import _row_steps

        sig, rows = self.signature, self._packed
        return AlgebraMatrix(
            sig, [_row_steps(sig, {r: {0: 1}}, rows, k) for r in range(self.rows)], self.cols
        )


def _block_rows(h: Hypergraph, sig: Signature) -> list[dict]:
    """Sparse rows of [[0, X], [Z, 0]]: X holds edge labels (v, n+l), Z vertex labels (n+l, v)."""
    n, mask = h.n, sig.mask
    rows = [{} for _ in range(n + h.m)]
    for l, e in enumerate(h.edges, 1):
        ebit, r = mask((l,), 1), n + l - 1
        for v in e:
            rows[v - 1][r] = {ebit: 1}
            rows[r][v - 1] = {mask((v,), 0): 1}
    return rows


def build_omega(h: Hypergraph) -> AlgebraMatrix:
    """The n x n nilpotent adjacency matrix: (i, j) -> zeta_j * sum of shared edge labels."""
    from .walks import _adjacency, walk_signature

    sig = walk_signature(h)
    return AlgebraMatrix(sig, _adjacency(h, sig), h.n)


def build_trail_matrix(h: Hypergraph) -> AlgebraMatrix:
    """The trail matrix: same layout as Omega over the role-swapped signature."""
    from .walks import _adjacency, trail_signature

    sig = trail_signature(h)
    return AlgebraMatrix(sig, _adjacency(h, sig), h.n)


def build_blocks(h: Hypergraph) -> tuple[AlgebraMatrix, AlgebraMatrix]:
    """The factor matrices X (n x m, idempotent edge labels) and Z (m x n, vertex labels)."""
    from .walks import walk_signature

    sig = walk_signature(h)
    n = h.n
    rows = _block_rows(h, sig)
    X = [{c - n: x for c, x in row.items()} for row in rows[:n]]
    return AlgebraMatrix(sig, X, h.m), AlgebraMatrix(sig, rows[n:], n)


def build_bipartite(h: Hypergraph) -> AlgebraMatrix:
    """The (n+m) x (n+m) block matrix [[0, X], [Z, 0]]; its square is diag(XZ, ZX)."""
    from .walks import walk_signature

    sig = walk_signature(h)
    return AlgebraMatrix(sig, _block_rows(h, sig), h.n + h.m)
