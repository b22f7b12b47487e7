import random
from functools import reduce

import pytest

from metanil.core import collect, collect_text
from metanil.words import (
    MAX_WORD_SYLLABLES,
    DomainError,
    GroupParams,
    ParseError,
    Word,
    _reduce,
    commutator_word,
    generator_name,
    parse_word,
    retract,
)

P2 = GroupParams(2, 3)
P3 = GroupParams(3, 3)


def test_params_validation():
    with pytest.raises(DomainError):
        GroupParams(0, 3)
    with pytest.raises(DomainError):
        GroupParams(2, 0)


def test_parse_empty_is_identity():
    assert parse_word("", P2).letters == ()
    assert parse_word("   ", P2).letters == ()
    assert parse_word("1", P2).letters == ()


def test_parse_literal_letters():
    assert parse_word("a b^-1", P2).letters == ((0, 1), (1, -1))


def test_parse_commutator_expansion():
    assert parse_word("[a,b]", P2).letters == ((0, -1), (1, -1), (0, 1), (1, 1))


def test_brackets_are_left_normed():
    assert parse_word("[a,b,c]", P3) == parse_word("[[a,b],c]", P3)


def test_parse_canonical_names_and_aliases():
    assert parse_word("a2", P3).letters == ((2, 1),)
    assert parse_word("c", P3) == parse_word("a2", P3)
    assert parse_word("a0 a1", P3) == parse_word("a b", P3)


def test_juxtaposition_without_whitespace():
    assert parse_word("ab", P2).letters == ((0, 1), (1, 1))
    assert parse_word("ba^2", P2).letters == ((1, 1), (0, 2))
    # 'a' followed by digits is a canonical name, not a power
    assert parse_word("a2", P3).letters != parse_word("a^2", P3).letters


def test_parse_powers_and_parens():
    assert parse_word("(a b)^2", P2).letters == ((0, 1), (1, 1), (0, 1), (1, 1))
    assert parse_word("a^-3", P2).letters == ((0, -3),)
    assert parse_word("(a b)^-1", P2).letters == ((1, -1), (0, -1))
    assert parse_word("a^0", P2).letters == ()


def test_free_reduction():
    assert parse_word("a a^-1 b", P2).letters == ((1, 1),)
    assert parse_word("a b b^-1 a", P2).letters == ((0, 2),)


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as err:
        parse_word("a (b", P2)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_word("a ^ 2 2", P2)
    with pytest.raises(ParseError):
        parse_word("[a]", P2)
    with pytest.raises(ParseError):
        parse_word("a?", P2)


def test_generator_out_of_range():
    with pytest.raises(ParseError):
        parse_word("c", P2)
    with pytest.raises(ParseError):
        parse_word("a7", P3)


def test_word_algebra():
    w = parse_word("a b", P2)
    assert (w * w.inv()).is_identity
    assert (w ** 3).letters == parse_word("a b a b a b", P2).letters
    assert w ** -2 == (w.inv()) ** 2
    assert commutator_word(w, w).is_identity


def test_print_parse_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        letters = tuple(
            (rng.randrange(3), rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randrange(0, 12))
        )
        w = Word(letters)
        assert parse_word(str(w), P3).letters == w.letters


def test_retract_examples():
    assert retract(parse_word("a b a^-1", P2), {0}).is_identity
    assert retract(parse_word("a b c", P3), {0, 2}) == parse_word("a c", P3)


def test_retract_is_idempotent_and_multiplicative():
    rng = random.Random(5)
    for _ in range(100):
        letters = tuple(
            (rng.randrange(3), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randrange(0, 10))
        )
        w1, w2 = Word(letters), Word(tuple(reversed(letters)))
        keep = {0, 2}
        assert retract(retract(w1, keep), keep) == retract(w1, keep)
        assert retract(w1 * w2, keep) == retract(w1, keep) * retract(w2, keep)


def test_retract_fixes_supported_words():
    w = parse_word("a c a^2 c^-1", P3)
    assert retract(w, {0, 2}) == w


# --- one parser, two evaluations ------------------------------------------------


def random_text(rng, d, depth=0):
    """Word text with nested powers, brackets, '1' and every name form.

    Group powers stay small enough that the Word expansion is well under
    MAX_WORD_SYLLABLES; generator powers carry the multi-digit exponents.
    """
    terms = []
    for _ in range(rng.randint(1, 3)):
        r = rng.random()
        if depth >= 3 or r < 0.45:
            g = rng.randrange(d)
            atom = rng.choice([generator_name(g), f"a{g}"]) if rng.random() < 0.9 else "1"
            exps = [-1, 2, -3, 17, -40, 123, -1000]
        elif r < 0.75:
            atom = "(" + random_text(rng, d, depth + 1) + ")"
            exps = [-1, 2, -3, 10, -12]
        else:
            parts = [random_text(rng, d, depth + 1) for _ in range(rng.randint(2, 3))]
            atom = "[" + ", ".join(parts) + "]"
            exps = [-1, 2, -2]
        if rng.random() < 0.5:
            atom += f"^{rng.choice(exps)}"
        terms.append(atom)
    return " ".join(terms)


@pytest.mark.parametrize("d,k", [(2, 6), (3, 5), (4, 4)])
def test_group_evaluation_matches_word_collection(d, k):
    # collect_text evaluates in the group; collect(parse_word(..)) expands
    # the free-group word first.  Both read the same parser.
    rng = random.Random(100 * d + k)
    p = GroupParams(d, k)
    for _ in range(60):
        text = random_text(rng, d)
        assert collect_text(text, p) == collect(parse_word(text, p), p), text


MALFORMED = [
    ("a (b", P2),
    ("a ^ 2 2", P2),
    ("[a]", P2),
    ("a?", P2),
    ("c", P2),
    ("a7", P3),
    ("a^", P2),
    ("(a b", P2),
    ("[a, b", P2),
    ("a)", P2),
    ("2", P2),
    ("[a,,b]", P2),
    ("(" * 201 + "a" + ")" * 201, P2),
    ("[" * 3 + "a" + ",b]" * 2 + "(" * 200 + "a", P2),
    pytest.param("a^" + "9" * 5000, P2, id="long-exponent-literal"),
    pytest.param("b a" + "1" * 5000, P2, id="long-generator-literal"),
    pytest.param("a^\u00b2", P2, id="superscript-digit"),
]


@pytest.mark.parametrize("text,params", MALFORMED)
def test_malformed_text_fails_identically_on_both_paths(text, params):
    with pytest.raises((ParseError, DomainError)) as as_word:
        parse_word(text, params)
    with pytest.raises((ParseError, DomainError)) as in_group:
        collect_text(text, params)
    assert type(as_word.value) is type(in_group.value)
    assert str(as_word.value) == str(in_group.value)
    assert getattr(as_word.value, "position", None) == getattr(
        in_group.value, "position", None
    )


def test_word_growth_fails_fast():
    # a Word is the oracle's input and grows with every power and bracket;
    # the product that would pass the limit is refused before it is built
    p = GroupParams(3, 5)
    with pytest.raises(DomainError, match="exceeds 100000"):
        parse_word("(a b c)^1000000000000000000", p)
    deep = "[a,b]"
    for i in range(59):  # [[[a,b],a],b], ..., 60 brackets deep
        deep = f"[{deep},{'ab'[i % 2]}]"
    with pytest.raises(DomainError, match="Word product"):
        parse_word(deep, p)
    with pytest.raises(DomainError, match="Word product"):
        parse_word("(a b)^50000 (a b)^50000", p)
    # a power of one syllable, or of a conjugate, stays short whatever its
    # exponent, and words up to the limit are still built
    assert parse_word("a^1000000000000000000", p).letters == ((0, 10**18),)
    assert parse_word("(a b a^-1)^1000000000000000000", p).letters == (
        (0, 1),
        (1, 10**18),
        (0, -1),
    )
    n = MAX_WORD_SYLLABLES // 2
    assert len(parse_word(f"(a b)^{n}", p).letters) == MAX_WORD_SYLLABLES
    # the group evaluation builds no Word, so it has no such limit
    assert collect_text(deep, p).is_identity
    assert collect_text("(a b c)^1000000000000000000", p).exp == (10**18,) * 3


def test_word_product_limit_counts_operands_not_result():
    # the operands hold 200 000 syllables although the product is the identity
    p = GroupParams(3, 5)
    with pytest.raises(DomainError, match=r"Word product .* exceeds 100000"):
        parse_word("(a b)^50000 (b^-1 a^-1)^50000", p)


# --- a Word is reduced once; products merge only at the junction --------------
#
# The reference expands every letter of an operation's operands and reduces
# the concatenation once with _reduce.


def _flat(*words):
    return tuple(s for w in words for s in w.letters)


def _ref_inv(letters):
    return tuple((g, -e) for g, e in reversed(letters))


def _ref_pow(w, n):
    letters = w.letters if n >= 0 else _ref_inv(w.letters)
    return _reduce(letters * abs(n))


def _ref_comm(x, y):
    return _reduce(_ref_inv(x.letters) + _ref_inv(y.letters) + x.letters + y.letters)


def _random_word(rng, d, max_len=8, max_exp=3):
    letters = tuple(
        (rng.randrange(d), rng.choice([e for e in range(-max_exp, max_exp + 1) if e]))
        for _ in range(rng.randrange(max_len + 1))
    )
    return Word(letters)


def _junction_pair(rng, d):
    """x and y whose product cancels or merges across the junction.

    y starts with the inverse of a suffix of x (partial or full
    cancellation), then half the time with x's next syllable's generator
    at another exponent (a merge to a nonzero exponent).
    """
    x = _random_word(rng, d)
    cut = rng.randrange(len(x.letters) + 1)
    head = _ref_inv(x.letters[cut:])
    if cut and rng.random() < 0.5:
        g, e = x.letters[cut - 1]
        head += ((g, rng.choice([f for f in (-2 * e, -e + 1, e, 1, -1) if f and f != -e])),)
    return x, Word(head + _random_word(rng, d).letters)


def test_junction_cancellation_and_merge_examples():
    p = GroupParams(3, 3)
    x = parse_word("c a b^2 a^-1", p)
    # partial cancellation, then a merge to a nonzero exponent
    assert (x * parse_word("a b^-2 a^2 c", p)).letters == ((2, 1), (0, 3), (2, 1))
    # partial cancellation, then plain concatenation
    assert (x * parse_word("a b^-2 c", p)).letters == ((2, 1), (0, 1), (2, 1))
    # full cancellation of either operand, and of both
    assert (x * parse_word("a b^-2 a^-1 c^-1 b", p)).letters == ((1, 1),)
    assert (parse_word("b", p) * x.inv() * x).letters == ((1, 1),)
    assert (x * x.inv()).is_identity and (x.inv() * x).is_identity
    # a base that is not cyclically reduced cancels at every squaring
    assert (parse_word("a b a^-1", p) ** 6).letters == ((0, 1), (1, 6), (0, -1))
    assert (parse_word("a b a^-1", p) ** -5).letters == ((0, 1), (1, -5), (0, -1))
    assert (parse_word("a^2 b c a^-1", p) ** 3).letters == (
        (0, 2), (1, 1), (2, 1), (0, 1), (1, 1), (2, 1), (0, 1), (1, 1), (2, 1), (0, -1)
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_word_operations_match_one_reduction(d):
    rng = random.Random(700 + d)
    for t in range(400):
        x, y = _junction_pair(rng, d) if t % 2 else (_random_word(rng, d), _random_word(rng, d))
        if t % 5 == 0:  # a conjugate g w g^-1: not cyclically reduced
            g = _random_word(rng, d, max_len=3)
            x = Word(g.letters + x.letters + _ref_inv(g.letters))
        assert (x * y).letters == _reduce(_flat(x, y)), (x, y)
        assert (y * x).letters == _reduce(_flat(y, x)), (y, x)
        assert x.inv().letters == _reduce(_ref_inv(x.letters))
        assert (x * y).inv() == y.inv() * x.inv()
        for n in range(-6, 7):
            assert (x ** n).letters == _ref_pow(x, n), (x, n)
        assert commutator_word(x, y).letters == _ref_comm(x, y), (x, y)
        z = _random_word(rng, d)
        assert (x * y * z).letters == (x * (y * z)).letters == _reduce(_flat(x, y, z))


def _ref_text(rng, d, depth=0):
    """Word text of powers and brackets, and its letters expanded without reduction."""
    if depth >= 2 or rng.random() < 0.4:
        w = _random_word(rng, d, max_len=4)
        return f"({w})", w.letters
    r = rng.random()
    if r < 0.4:
        text, letters = _ref_text(rng, d, depth + 1)
        n = rng.randint(-6, 6)
        return f"({text})^{n}", (letters if n >= 0 else _ref_inv(letters)) * abs(n)
    if r < 0.75:
        parts = [_ref_text(rng, d, depth + 1) for _ in range(rng.randint(2, 3))]

        def comm(x, y):
            return _ref_inv(x) + _ref_inv(y) + x + y

        return "[" + ", ".join(t for t, _ in parts) + "]", reduce(comm, (l for _, l in parts))
    parts = [_ref_text(rng, d, depth + 1) for _ in range(rng.randint(2, 3))]
    return "(" + " ".join(t for t, _ in parts) + ")", sum((l for _, l in parts), ())


@pytest.mark.parametrize("d,k", [(2, 3), (3, 3)])
def test_parse_word_matches_one_reduction_of_the_expanded_text(d, k):
    rng = random.Random(40 + d)
    p = GroupParams(d, k)
    for _ in range(300):
        text, letters = _ref_text(rng, d)
        assert parse_word(text, p).letters == _reduce(letters), text
