"""Kernel arithmetic: rewrite rules, ring axioms, structure queries, rendering."""

import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from math import factorial
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element, random_signature
from hyperzeon.algebra import (
    Element,
    Signature,
    annihilates,
    mul_into,
    nilpotency_index,
    subset_products,
)
from hyperzeon.errors import ContextError


@st.composite
def signatures(draw, max_gens=8):
    kinds = st.one_of(
        st.none(),
        st.integers(min_value=2, max_value=4),
    )
    return Signature(draw(st.lists(kinds, min_size=1, max_size=max_gens)))


@st.composite
def elements(draw, sig=None):
    if sig is None:
        sig = draw(signatures())
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_element(random.Random(seed), sig)


@st.composite
def element_triples(draw):
    sig = draw(signatures())
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return tuple(random_element(rng, sig) for _ in range(3))


class TestRewriteRules:
    def test_nilpotent_powers(self):
        for index in (2, 3, 5):
            sig = Signature.generalized_zeons([index])
            g = sig.gen(0)
            assert g ** (index - 1)
            assert not g**index

    def test_idempotent_square(self):
        sig = Signature.idempotents(3)
        e = sig.gen(1)
        assert e * e == e
        assert e**7 == e

    def test_square_product_example(self):
        # nu1 of index 2, nu2 of index 3
        sig = Signature.generalized_zeons([2, 3])
        n1, n2 = sig.gen(0), sig.gen(1)
        assert (n2 + 2 * n1) ** 2 == n2 * n2 + 4 * n1 * n2

    def test_idempotent_square_example(self):
        sig = Signature.idempotents(6)
        e2, e6 = sig.gen(1), sig.gen(5)
        assert (e2 - 4 * e6) ** 2 == e2 - 8 * e2 * e6 + 16 * e6

    def test_mixed_blade_product_example(self):
        sig = Signature.idempotents(6)
        e1, e3, e4 = sig.gen(0), sig.gen(2), sig.gen(3)
        e12 = Element.blade(sig, [0, 1])
        got = (3 * e12 + e3) * (e1 - 2 * e4)
        want = (
            3 * e12
            - 6 * Element.blade(sig, [0, 1, 3])
            + Element.blade(sig, [0, 2])
            - 2 * Element.blade(sig, [2, 3])
        )
        assert got == want

    @pytest.mark.parametrize("k", range(1, 9))
    def test_multinomial_law(self, k):
        sig = Signature.zeons(k)
        u = sum((sig.gen(i) for i in range(k)), sig.zero())
        assert u**k == factorial(k) * Element.blade(sig, range(k))
        assert not u ** (k + 1)

    def test_invalid_nilpotent_index(self):
        with pytest.raises(ValueError):
            Signature([1])


class TestRingAxioms:
    @given(element_triples())
    @settings(max_examples=150, deadline=None)
    def test_commutative_associative_distributive(self, triple):
        a, b, c = triple
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(elements())
    @settings(max_examples=100, deadline=None)
    def test_unit_and_inverse(self, u):
        one = Element.scalar(u.signature, 1)
        assert one * u == u
        assert u + (-1) * u == 0
        assert 0 * u == 0

    @given(elements())
    @settings(max_examples=100, deadline=None)
    def test_pow_matches_iterated_mul(self, u):
        assert u**0 == 1
        assert u**2 == u * u
        assert u**3 == (u * u) * u

    @pytest.mark.parametrize("k", [-1, -5, 2.0, "2", None])
    def test_pow_rejects_bad_exponents(self, k):
        with pytest.raises(ValueError, match="non-negative integer"):
            Signature.zeons(2).gen(0) ** k

    def test_fraction_coefficients(self):
        sig = Signature.zeons(2)
        u = Fraction(1, 2) * sig.gen(0) + Fraction(1, 3) * sig.gen(1)
        assert u.scalar_sum() == Fraction(5, 6)
        assert 6 * u == 3 * sig.gen(0) + 2 * sig.gen(1)

    def test_context_mismatch(self):
        a = Signature.zeons(2).gen(0)
        b = Signature.idempotents(2).gen(0)
        with pytest.raises(ContextError):
            a * b
        with pytest.raises(ContextError):
            a + b
        # an operand that is neither an element nor a scalar is no element of any context
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: y - x, lambda x, y: x * y):
            with pytest.raises(TypeError):
                op(a, object())
        assert (a == object()) is False


class TestCanonicalForm:
    def test_duplicate_generator_pairs_merge(self):
        sig = Signature.generalized_zeons([4])
        u = Element(sig, [(((0, 1), (0, 2)), 1)])
        assert u == sig.gen(0) ** 3

    def test_saturating_term_vanishes(self):
        sig = Signature.zeons(1)
        assert Element(sig, [(((0, 2),), 5)]) == 0

    def test_idempotent_exponent_collapses(self):
        sig = Signature.idempotents(1)
        assert Element(sig, [(((0, 9),), 1)]) == sig.gen(0)

    def test_normalizing_twice_is_identity(self):
        rng = random.Random(5)
        for _ in range(200):
            sig = random_signature(rng)
            u = random_element(rng, sig)
            assert Element(sig, u.terms) == u

    def test_rejects_bad_ids_and_exponents(self):
        sig = Signature.zeons(2)
        with pytest.raises(ValueError):
            Element(sig, [(((5, 1),), 1)])
        with pytest.raises(ValueError):
            Element(sig, [(((0, 0),), 1)])


    @pytest.mark.parametrize("coeff", [0.5, 2.5, 0.25, 1.0, 1j, "1", None])
    def test_rejects_inexact_coefficients(self, coeff):
        sig = Signature.zeons(2)
        with pytest.raises(ValueError, match="coefficient"):
            Element(sig, {((0, 1),): coeff})
        with pytest.raises(ValueError, match="coefficient"):
            Element.blade(sig, [0], coeff)
        with pytest.raises(ValueError, match="coefficient"):
            Element.scalar(sig, coeff)
        assert Element.blade(sig, [0], Fraction(5, 2)) == Fraction(5, 2) * sig.gen(0)

    @pytest.mark.parametrize("exp", [1.5, 2.0, 1.0, "1", None, True])
    def test_encode_requires_int_exponents(self, exp):
        for sig in (Signature.zeons(2), Signature.generalized_zeons([4, 4]), Signature.idempotents(2)):
            with pytest.raises(ValueError, match="exponent"):
                sig.encode(((0, exp),))
            with pytest.raises(ValueError, match="exponent"):
                Element(sig, [(((1, 1), (0, exp)), 1)])

    @pytest.mark.parametrize("gid", [-1, 3, 7, 1.0, "0", None, True])
    def test_encode_and_mask_reject_bad_ids(self, gid):
        sig = Signature.zeons(3)
        with pytest.raises(ValueError, match="out of range"):
            sig.encode(((gid, 1),))
        # mask numbers ids from 1 within a block: the same bad generator, one up
        with pytest.raises(ValueError, match="out of range"):
            sig.mask([1, gid + 1 if type(gid) is int else gid], 0)
        # annihilates checks its ids through Element.blade, that is encode
        with pytest.raises(ValueError, match="out of range"):
            annihilates([gid], sig.gen(0) + sig.gen(1))
        assert sig.mask([], 0) == 0
        assert sig.mask([1, 3], 0) == sig.encode(((2, 1), (0, 1)))

    @pytest.mark.parametrize("block", [1, 2, -1, "0", 1.0, True, False, None])
    def test_mask_and_support_reject_bad_blocks(self, block):
        # a block is an int index into blocks: None, a bool, a negative
        # index (which would reach the last block) or a missing block raises
        for sig in (Signature.zeons(2), Signature.zeons(2) + Signature.idempotents(3)):
            if type(block) is int and 0 <= block < len(sig.blocks):
                continue
            with pytest.raises(ValueError, match="block"):
                sig.mask([1], block)
            with pytest.raises(ValueError, match="block"):
                sig.support(3 | 16, block)
        # key 16 is the first generator of block 1, generator 2 overall
        sig = Signature.zeons(2) + Signature.idempotents(3)
        assert sig.mask([1], 1) == 16
        assert sig.support(16, 1) == (1,) and sig.decode(16) == ((2, 1),)
        # the block has no default
        with pytest.raises(TypeError):
            sig.support(16)
        with pytest.raises(TypeError):
            sig.mask([1])

    @pytest.mark.parametrize("key", [-1, -(1 << 20), 1 << 8, 1 << 20, (1 << 20) | 1])
    @pytest.mark.parametrize("block", [None, 0, 1])
    def test_support_rejects_bad_keys(self, key, block):
        # the layout is 8 bits wide: three 2-bit zeon fields, two idempotent bits
        sig = Signature.zeons(3) + Signature.idempotents(2)
        # a block is required: None is rejected before the key is read
        match = "block None out of range" if block is None else "key out of range"
        with pytest.raises(ValueError, match=match):
            sig.support(key, block)
        # every bit below the last field's end is read, guard bits included
        assert sig.support((1 << 8) - 1, 0) == (1, 2, 3)
        assert sig.support((1 << 8) - 1, 1) == (1, 2)


class TestStructureQueries:
    def test_scalar_and_dual_parts(self):
        sig = Signature.zeons(2)
        u = 3 + sig.gen(0)
        assert u.scalar_part() == 3
        assert u.dual_part() == sig.gen(0)
        assert u.dual_part().scalar_part() == 0
        # without a scalar term there is nothing to drop
        v = sig.gen(1)
        assert v.dual_part() is v

    def test_grade_part_of_product(self):
        sig = Signature.idempotents(6)
        p = (sig.gen(1) - 4 * sig.gen(5)) ** 2
        assert p.grade_part(2) == -8 * Element.blade(sig, [1, 5])
        assert p.grade_part(0) == 0

    def test_scalar_sum(self):
        sig = Signature.zeons(2)
        assert sig.zero().scalar_sum() == 0
        assert (2 * sig.gen(0) - 3 * Element.blade(sig, [0, 1])).scalar_sum() == -1

    @given(elements(sig=Signature.zeons(6)), elements(sig=Signature.zeons(6)))
    @settings(max_examples=60, deadline=None)
    def test_scalar_sum_linear(self, a, b):
        assert (a + b).scalar_sum() == a.scalar_sum() + b.scalar_sum()

    def test_min_grade(self):
        sig = Signature.zeons(3)
        assert Element.scalar(sig, 5).min_grade() == 0
        assert sig.zero().min_grade() == 0
        u = Element.blade(sig, [0, 1]) + Element.blade(sig, [0, 1, 2])
        assert u.min_grade() == 2
        # a scalar term has grade 0 and counts
        assert (1 + u).min_grade() == 0

    @given(elements())
    @settings(max_examples=80, deadline=None)
    def test_min_grade_zero_iff_scalar_term(self, u):
        assert (u.min_grade() == 0) == (bool(u.scalar_part()) or not u)

    def test_nilpotency_index(self):
        sig = Signature.zeons(3)
        assert nilpotency_index(sig.gen(0), 8) == 2
        s = sig.gen(0) + sig.gen(1) + sig.gen(2)
        assert nilpotency_index(s, 8) == 4
        e = Signature.idempotents(1).gen(0)
        assert nilpotency_index(e, 10) is None
        assert nilpotency_index(sig.zero(), 3) == 1

    def test_annihilates(self):
        sig = Signature.zeons(3)
        u = Element.blade(sig, [0]) + Element.blade(sig, [1])
        assert annihilates([0, 1], u)
        assert not annihilates([2], u)
        assert not annihilates([], u)
        with pytest.raises(ValueError):
            annihilates([0, 0], u)
        mixed = Signature.zeons(1) + Signature.idempotents(1)
        with pytest.raises(ValueError):
            annihilates([1], mixed.gen(0))

    @pytest.mark.parametrize("cap", [0, -1, "3", 1.5, None, True])
    def test_nilpotency_index_rejects_bad_caps(self, cap):
        with pytest.raises(ValueError, match="cap"):
            nilpotency_index(Signature.zeons(2).gen(0), cap)


class TestSignatures:
    def test_tensor_concatenation(self):
        sig = Signature.zeons(2) + Signature.idempotents(3)
        assert len(sig) == 5
        assert sig.caps[0] == 2
        assert sig.caps[4] is None
        assert sig.symbols == ("ζ", "ε") and str(sig.gen(2)) == "ε1"
        assert sig == Signature([2, 2, None, None, None])
        assert hash(sig) == hash(Signature([2, 2, None, None, None]))
        assert repr(sig) == "Signature[2,2,I,I,I]"
        with pytest.raises(TypeError):
            sig + 1

    @pytest.mark.parametrize("cap, valid", [
        *((cap, True) for cap in (None, *range(2, 10))),
        *((cap, False) for cap in (1, 0, -2, True, 2.0, "2")),
    ])
    def test_caps(self, cap, valid):
        if valid:
            assert Signature([2, cap]).caps == (2, cap)
        else:
            with pytest.raises(ValueError):
                Signature([2, cap])

    def test_equality_ignores_names(self):
        assert Signature.zeons(3) == Signature.zeons(3, "a")
        assert Signature.zeons(3) != Signature.idempotents(3)


class TestRendering:
    def test_deterministic_strings(self):
        sig = Signature.generalized_zeons([2, 3])
        assert str((sig.gen(1) + 2 * sig.gen(0)) ** 2) == "ν2^2 + 4·ν{1,2}"
        sig6 = Signature.idempotents(6)
        assert str((sig6.gen(1) - 4 * sig6.gen(5)) ** 2) == "ε2 + 16·ε6 - 8·ε{2,6}"
        assert str(sig6.zero()) == "0"
        assert str(Element.scalar(sig6, -3)) == "-3"

    def test_mixed_symbol_grouping(self):
        sig = Signature.zeons(3) + Signature.idempotents(2)
        u = Element.blade(sig, [0, 2, 3, 4], -1)
        assert str(u) == "-ζ{1,3}ε{1,2}"

    def test_runs_of_first_powers_only(self):
        # a multi-index gathers a run of one symbol's first powers; a higher
        # power prints alone and ends the run, and equal higher powers never merge
        nu = Signature.generalized_zeons([3, 3, 3])
        g0, g1, g2 = nu.gen(0), nu.gen(1), nu.gen(2)
        assert str(g0**2 * g1**2) == "ν1^2ν2^2"
        assert str(g0 * g1**2 * g2) == "ν1ν2^2ν3"
        eps = Signature.idempotents(2) + Signature.idempotents(2)
        assert str(Element.blade(eps, [0, 1, 2, 3])) == "ε{1,2,1,2}"
        mixed = Signature.zeons(2) + Signature.generalized_zeons([3]) + Signature.idempotents(2)
        assert str(3 * Element.blade(mixed, [0, 1, 2, 2, 3])) == "3·ζ{1,2}ν1^2ε1"

    def test_one_block_without_a_symbol(self):
        # each generator takes its cap's default symbol, numbered within the one block
        sig = Signature([2, 3, None])
        assert sig.symbols == (None,)
        assert str(Element.blade(sig, [0, 1, 2])) == "ζ1ν2ε3"
        assert str(Element.blade(sig + Signature([2, None]), [0, 2, 3, 4])) == "ζ1ε3ζ1ε2"


# Nilpotent indices on both sides of each power-of-two field width.
BOUNDARY_INDICES = (2, 3, 4, 5, 8, 9)


# Leading blocks, 65 to 100 bits wide, that move every field after them past
# bit 64, where keys are several machine words.
PADDINGS = (Signature.zeons(33), Signature.idempotents(65), Signature.generalized_zeons([9] * 20))


@st.composite
def paddings(draw):
    """A new list of leading blocks: empty, or one of PADDINGS."""
    pad = draw(st.sampled_from((None,) + PADDINGS))
    return [] if pad is None else [pad]


@st.composite
def boundary_signatures(draw, max_gens=10):
    """Boundary caps, optionally after a padding block; terms use only the last block."""
    kinds = st.one_of(
        st.none(),
        st.sampled_from(BOUNDARY_INDICES),
    )
    caps = draw(st.lists(kinds, min_size=1, max_size=max_gens))
    return reduce(add, draw(paddings()) + [Signature(caps)])


@st.composite
def exponent_terms(draw, sig, max_terms=6):
    """Terms as ({gid: exponent}, coeff) over the last block, every exponent valid for its generator."""
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        gids = draw(st.lists(st.sampled_from(sig.blocks[-1]), max_size=4, unique=True))
        exps = {}
        for g in gids:
            cap = sig.caps[g]
            exps[g] = 1 if cap is None else draw(st.integers(1, cap - 1))
        terms.append((exps, draw(st.integers(-3, 3).filter(bool))))
    return terms


def reference_product(sig, a_terms, b_terms):
    """Product over exponent dicts, applying the rewrite rules generator by generator."""
    out = {}
    for ea, ca in a_terms:
        for eb, cb in b_terms:
            exps = {}
            for g in set(ea) | set(eb):
                cap = sig.caps[g]
                e = 1 if cap is None else ea.get(g, 0) + eb.get(g, 0)
                if cap is not None and e >= cap:
                    break
                exps[g] = e
            else:
                mono = tuple(sorted(exps.items()))
                out[mono] = out.get(mono, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def reference_terms(terms):
    out = {}
    for exps, c in terms:
        mono = tuple(sorted(exps.items()))
        out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


def as_element(sig, terms):
    return Element(sig, [(tuple(exps.items()), c) for exps, c in terms])


@st.composite
def block_lists(draw):
    """1-3 signatures from the factories, empty ones included, to concatenate as blocks.

    An optional padding block comes first.
    """
    parts = draw(paddings())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        size = draw(st.integers(min_value=0, max_value=4))
        kind = draw(st.sampled_from(["zeons", "idempotents", "generalized"]))
        if kind == "generalized":
            caps = draw(st.lists(st.sampled_from(BOUNDARY_INDICES), min_size=size, max_size=size))
            parts.append(Signature.generalized_zeons(caps))
        else:
            parts.append(getattr(Signature, kind)(size))
    return parts


@st.composite
def operand_pairs(draw):
    sig = draw(boundary_signatures())
    return sig, draw(exponent_terms(sig)), draw(exponent_terms(sig))


class TestPackedKernel:
    @given(operand_pairs())
    @settings(max_examples=300, deadline=None)
    def test_product_matches_exponent_reference(self, case):
        sig, a_terms, b_terms = case
        got = as_element(sig, a_terms) * as_element(sig, b_terms)
        want = reference_product(sig, a_terms, b_terms)
        assert dict(got.terms.items()) == want

    @given(operand_pairs(), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_mul_into_accumulates_and_reads_operands_only(self, case, a_view, b_view):
        sig, a_terms, b_terms = case
        a, b = as_element(sig, a_terms), as_element(sig, b_terms)
        left = a.packed if a_view else dict(a.packed)
        right = b.packed if b_view else dict(b.packed)
        before = dict(left), dict(right)
        # acc holds a's terms minus the product's, so the product's own terms cancel to 0
        want_ab = reference_product(sig, a_terms, b_terms)
        want = reference_terms(a_terms)
        acc = {}
        for mono, c in want.items():
            acc[sig.encode(mono)] = c
        for mono, c in want_ab.items():
            key = sig.encode(mono)
            acc[key] = acc.get(key, 0) - c
        assert mul_into(sig, acc, left, right) is acc
        assert (dict(left), dict(right)) == before
        zeros = {key for key, c in acc.items() if c == 0}
        assert {sig.encode(mono) for mono in want_ab if mono not in want} <= zeros
        got = Element.from_packed(sig, acc)
        assert dict(got.terms.items()) == want
        assert 0 not in got.packed.values()

    @given(operand_pairs())
    @settings(max_examples=100, deadline=None)
    def test_power_matches_exponent_reference(self, case):
        sig, a_terms, _ = case
        u = as_element(sig, a_terms)
        want = {(): 1}
        for k in range(4):
            assert dict((u**k).terms.items()) == want
            want = reference_product(sig, [(dict(m), c) for m, c in want.items()], a_terms)

    @given(operand_pairs())
    @settings(max_examples=100, deadline=None)
    def test_terms_view_round_trip(self, case):
        sig, a_terms, _ = case
        u = as_element(sig, a_terms)
        assert Element(sig, u.terms) == u
        assert dict(u.terms.items()) == reference_terms(a_terms)
        assert len(u.terms) == len(reference_terms(a_terms))
        for mono, coeff in u.terms.items():
            assert u.terms[mono] == coeff
            assert mono in u.terms
        with pytest.raises(TypeError):
            u.terms[()] = 1

    def test_field_boundaries(self):
        for index in BOUNDARY_INDICES:
            sig = Signature.generalized_zeons([index, index]) + Signature.idempotents(1)
            g0, g1, e = sig.gen(0), sig.gen(1), sig.gen(2)
            for a in range(index + 1):
                for b in range(index + 1):
                    prod = (g0**a * e) * (g0**b * g1)
                    if a + b >= index:
                        assert not prod
                    else:
                        mono = ((0, a + b), (1, 1), (2, 1)) if a + b else ((1, 1), (2, 1))
                        assert dict(prod.terms.items()) == {mono: 1}

    def test_lookup_of_non_canonical_monomials_misses(self):
        sig = Signature.generalized_zeons([3]) + Signature.idempotents(2)
        u = Element.blade(sig, [0, 1])
        assert u.terms[((0, 1), (1, 1))] == 1
        for probe in [((1, 1), (0, 1)), ((0, 3),), ((1, 2),), ((7, 1),), "x", ((0,),), None]:
            assert probe not in u.terms
            assert u.terms.get(probe) is None

    @given(operand_pairs(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_support_matches_decode(self, case, seed):
        sig, a_terms, b_terms = case
        # products too, so that fields carry exponents reached by addition
        keys = set(as_element(sig, a_terms).packed)
        keys |= set((as_element(sig, a_terms) * as_element(sig, b_terms)).packed)
        for key in keys:
            ids = [g for g, _ in sig.decode(key)]
            for b, block in enumerate(sig.blocks):
                assert sig.support(key, b) == tuple(g - block.start + 1 for g in ids if g in block)
        # decode is built on support, so it is also checked on its own: a round
        # trip through encode, multi-bit exponents and any input order included
        rng = random.Random(seed)
        sig = random_signature(rng)
        assert sig.decode(0) == ()
        for _ in range(10):
            gids = rng.sample(range(len(sig)), rng.randint(0, len(sig)))
            monomial = [(g, rng.randint(1, (sig.caps[g] or 2) - 1)) for g in gids]
            assert sig.decode(sig.encode(monomial)) == tuple(sorted(monomial))

    @given(block_lists(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_block_reads_match_decode(self, parts, seed):
        left = reduce(add, parts)  # (a + b) + c
        right = reduce(lambda acc, part: part + acc, reversed(parts))  # a + (b + c)
        starts = [sum(len(p) for p in parts[:i]) for i in range(len(parts))]
        assert left.blocks == right.blocks == tuple(
            range(start, start + len(p)) for start, p in zip(starts, parts)
        )
        assert left == right and Signature(left.caps).blocks == (range(len(left)),)
        rng = random.Random(seed)
        for _ in range(10):
            gids = rng.sample(range(len(left)), rng.randint(0, len(left)))
            monomial = [(g, rng.randint(1, (left.caps[g] or 2) - 1)) for g in gids]
            key = left.encode(monomial)
            assert right.encode(monomial) == key
            ids = [g for g, _ in left.decode(key)]
            assert ids == sorted(gids)
            for b, block in enumerate(left.blocks):
                want = tuple(g - block.start + 1 for g in ids if g in block)
                assert left.support(key, b) == right.support(key, b) == want
                # numbered as the display subscripts
                assert want == tuple(left._name(g)[1] for g in ids if g in block)
        # mask writes block ids back as support reads them: the first-power
        # blade on the absolute ids, whatever the fields' widths
        for b, block in enumerate(left.blocks):
            ids = rng.sample(range(1, len(block) + 1), rng.randint(0, len(block)))
            key = left.mask(ids, b)
            assert left.support(key, b) == tuple(sorted(ids))
            gids = [block.start + i - 1 for i in ids]
            first = [(g, 1) for g in gids]
            assert key == right.mask(ids, b) == left.encode(first) == right.encode(first)
            assert Element.from_packed(left, {key: 1}) == Element.blade(left, gids)
            for bad in (0, len(block) + 1):
                with pytest.raises(ValueError, match="out of range"):
                    left.mask([bad], b)

    @given(block_lists(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_concatenations_keep_one_symbol_per_block(self, parts, seed):
        left = reduce(add, parts)  # (a + b) + c
        right = reduce(lambda acc, part: part + acc, reversed(parts))  # a + (b + c)
        assert left.symbols == right.symbols == tuple(p.symbols[0] for p in parts)
        assert len(left.symbols) == len(left.blocks)
        rng = random.Random(seed)
        terms = []
        for size in range(min(len(left), 6) + 1):
            gids = rng.sample(range(len(left)), size)
            terms.append(([(g, rng.randint(1, (left.caps[g] or 2) - 1)) for g in gids], 1))
        assert str(Element(left, terms)) == str(Element(right, terms))

    def test_support_of_multi_bit_fields(self):
        sig = Signature.generalized_zeons([2, 3, 5, 9]) + Signature.idempotents(2)
        for e3 in (1, 2):
            for e5 in range(1, 5):
                for e9 in range(1, 9):
                    key = sig.encode(((1, e3), (2, e5), (3, e9), (5, 1)))
                    assert sig.support(key, 0) == (2, 3, 4)
                    assert sig.support(key, 1) == (2,)
        assert sig.support(0, 0) == sig.support(0, 1) == ()

    @given(operand_pairs(), block_lists(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_written_keys_never_set_a_guard_bit(self, case, parts, seed):
        # encode refuses a saturated power, mul_into skips every sum that sets
        # a guard bit and mask writes first powers: so encode and decode may
        # read each field whole
        sig, a_terms, b_terms = case
        x, y = as_element(sig, a_terms), as_element(sig, b_terms)
        keys = [sig.encode(exps.items()) for exps, _ in a_terms + b_terms]
        keys += mul_into(sig, {}, x.packed, y.packed)
        keys += [key for _, level in subset_products(sig, [*x.packed, *y.packed]) for key in level]
        assert all(key & sig._guard == 0 for key in keys)
        sig = reduce(add, parts)
        rng = random.Random(seed)
        keys = []
        for _ in range(6):
            gids = rng.sample(range(len(sig)), rng.randint(0, len(sig)))
            keys.append(sig.encode([(g, rng.randint(1, (sig.caps[g] or 2) - 1)) for g in gids]))
        terms = dict.fromkeys(keys, 1)
        keys += mul_into(sig, {}, terms, terms)
        keys += [key for _, level in subset_products(sig, terms) for key in level]
        for b, block in enumerate(sig.blocks):
            keys.append(sig.mask(rng.sample(range(1, len(block) + 1), rng.randint(0, len(block))), b))
        assert all(key & sig._guard == 0 for key in keys)

    def test_multi_bit_fields_never_set_a_guard_bit(self):
        # every power of generators of index 2 to 9 (one to three value bits),
        # and their squares and cubes, vanishing sums included
        sig = Signature.generalized_zeons(range(2, 10)) + Signature.idempotents(2)
        powers = {sig.encode(((g, e),)): 1 for g, cap in enumerate(sig.caps[:8]) for e in range(1, cap)}
        powers[sig.mask((1, 2), 1)] = 1
        square = mul_into(sig, {}, powers, powers)
        cube = mul_into(sig, {}, square, powers)
        keys = [*powers, *square, *cube, sig.mask(range(1, 9), 0)]
        assert len(keys) > 1000
        assert all(key & sig._guard == 0 for key in keys)

    def test_wide_two_block_round_trip(self):
        # 10,000 nilpotent fields of 2 to 5 bits, then 500 idempotent bits:
        # keys of 35,500 bits, with blocks and fields far past one machine word
        sig = Signature.generalized_zeons([2, 3, 5, 9] * 2500) + Signature.idempotents(500)
        rng = random.Random(0)
        for size in (0, 1, 60, 3000, len(sig)):
            gids = rng.sample(range(len(sig)), size)
            monomial = sorted((g, rng.randint(1, (sig.caps[g] or 2) - 1)) for g in gids)
            key = sig.encode(monomial)
            assert sig.decode(key) == tuple(monomial)
            ids = [g for g, _ in monomial]
            for b, block in enumerate(sig.blocks):
                want = tuple(g - block.start + 1 for g in ids if g in block)
                assert sig.support(key, b) == want
                first = sig.mask(want, b)
                assert sig.support(first, b) == want
                assert sig.decode(first) == tuple((g, 1) for g in ids if g in block)

    def test_wide_signature_memory_is_linear_in_its_width(self):
        # 20,200 generators in 40,200 bits: the per-field tables and one
        # symbol per block peak at 4.5 MiB, where one full-width mask per
        # generator peaked at 112 MiB and one name per generator at 8 MiB
        tracemalloc.start()
        try:
            sig = Signature.zeons(20_000) + Signature.idempotents(200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sig.mask([200], 1).bit_length() == 40_200
        assert peak < 6 * 2**20

    def test_grade_counts_generators_not_bits(self):
        # exponent 7 of an index-9 generator sets three bits of its field
        sig = Signature.generalized_zeons([9, 5]) + Signature.idempotents(1)
        u = sig.gen(0) ** 7 + 2 * sig.gen(0) ** 3 * sig.gen(1) ** 3 * sig.gen(2)
        assert u.min_grade() == 1
        assert u.grade_part(1) == sig.gen(0) ** 7
        assert u.grade_part(3) == 2 * sig.gen(0) ** 3 * sig.gen(1) ** 3 * sig.gen(2)
        assert u.grade_part(2) == 0

    def test_sorted_terms_order(self):
        # packed-key order would put ν1ε1 after ν1^2ν2 (ε1 has the highest
        # field); rendering order is by grade, then exponent vector
        sig = Signature.generalized_zeons([3, 3]) + Signature.idempotents(1)
        u = (
            Element.blade(sig, [0, 2])
            + Element.blade(sig, [0, 0, 1])
            + Element.blade(sig, [2])
            + 5
        )
        assert [m for m, _ in u.sorted_terms()] == [
            (),
            ((2, 1),),
            ((0, 1), (2, 1)),
            ((0, 2), (1, 1)),
        ]
        assert str(u) == "5 + ε1 + ν1ε1 + ν1^2ν2"
