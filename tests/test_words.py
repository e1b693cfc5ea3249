"""Word evaluation in two noncommuting letters."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csokit.certify import word_norm_gap, word_norm_gaps
from csokit.errors import InputError
from csokit.linalg import operator_norm, operator_norms
from csokit.words import (
    eval_word,
    iter_words,
    swap_letters,
    validate_word,
    word_products,
    words_of_length,
)

X = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
Y = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_eval_word_left_to_right():
    assert np.array_equal(eval_word("x", X, Y), X)
    assert np.array_equal(eval_word("y", X, Y), Y)
    assert np.array_equal(eval_word("xy", X, Y), X @ Y)
    assert np.array_equal(eval_word("yxx", X, Y), Y @ X @ X)


def test_eval_word_rejects_bad_letters():
    with pytest.raises(InputError):
        validate_word("xz")
    with pytest.raises(InputError):
        eval_word("xy", X, np.eye(3))
    assert np.array_equal(eval_word("", X, Y), np.eye(2))


def test_word_counts_match_binary_strings():
    assert [len(list(words_of_length(k))) for k in range(1, 6)] == [2, 4, 8, 16, 32]
    assert len(list(iter_words(5))) == 62


def test_iter_words_is_length_lex_with_x_first():
    assert list(iter_words(2)) == ["x", "y", "xx", "xy", "yx", "yy"]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), log_scale=st.floats(-3.0, 3.0))
def test_word_products_and_norms_equal_eval_word_bit_for_bit(seed, n, log_scale):
    rng = np.random.default_rng(seed)
    T = 10.0**log_scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    words = ["", *iter_words(5)]
    # a real T + 0j has an adjoint with -0 imaginary parts: bytes see the sign of zero
    for S in (T, T.real + 0j):
        for X, Y in ((S, S.conj().T), (S.conj().T, S)):
            products = word_products(words, X, Y)
            want = np.stack([eval_word(w, X, Y) for w in words])
            assert products.tobytes() == want.tobytes()
            assert np.array_equal(operator_norms(products), [operator_norm(M) for M in want])
    # any order, repeats, and words whose prefixes were not asked for
    some = ["yxy", "x", "yxy", "xxxxy", ""]
    assert np.array_equal(word_products(some, T, 2 * T), [eval_word(w, T, 2 * T) for w in some])
    # a (k, n, n) stack, its adjoints a transposed view as word_norm_gaps takes
    # them: each product and gap is that of its own matrix, bytes and all
    k = 1 + seed % 7
    Ts = 10.0**log_scale * (rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)))
    for S in (Ts, Ts.real + 0j):
        adjoints = S.conj().transpose(0, 2, 1)
        products, gaps = word_products(words, S, adjoints), word_norm_gaps(S, words)
        assert products.shape == (len(words), k, n, n) and gaps.shape == (len(words), k)
        for j in range(k):
            assert products[:, j].tobytes() == word_products(words, S[j], S[j].conj().T).tobytes()
            assert gaps[:, j].tobytes() == word_norm_gaps(S[j], words).tobytes()


def test_word_products_validate_their_input():
    with pytest.raises(InputError):
        word_products(["xz"], X, Y)
    # a word that is not a string used to leak a TypeError
    for bad in (["x", 3], [None], [["x"]]):
        with pytest.raises(InputError):
            word_products(bad, X, Y)
    with pytest.raises(InputError):
        word_products(["x"], X, np.eye(3))
    assert word_products([], X, Y).shape == (0, 2, 2)
    assert swap_letters("xxy") == "yyx" and swap_letters("") == ""
    # stacks: square, finite and of one shape
    for bad in (np.zeros((2, 2, 3)), np.full((1, 2, 2), np.nan), np.zeros((2, 2, 2, 2))):
        with pytest.raises(InputError):
            word_products(["x"], bad, bad)
    with pytest.raises(InputError):
        word_products(["x"], np.zeros((2, 2, 2)), X)


def test_word_products_refuse_a_bare_string_or_a_non_iterable():
    # None leaked a TypeError, and "xy" was read as the words x and y
    for bad in (None, 3, "xy", "", np.str_("x")):
        with pytest.raises(InputError, match="expected an iterable of words"):
            word_products(bad, X, Y)
    assert word_products(("xy", "y"), X, Y).shape == (2, 2, 2)
    assert word_products(iter(["x"]), X, Y).tobytes() == X.tobytes()


def test_word_norm_gaps_validate_their_words():
    # swap_letters ran before any check, so these leaked an AttributeError
    for bad in ([1], [None], ["x", b"y"], ["xz"]):
        with pytest.raises(InputError):
            word_norm_gaps(X, bad)
    with pytest.raises(InputError):
        word_norm_gap(X, None)


def test_word_norm_gaps_refuse_a_bare_string_or_a_non_iterable():
    # None leaked a TypeError, and "xy" gave the gaps of the words x and y
    for bad in (None, 3, "xy", np.str_("xy")):
        with pytest.raises(InputError, match="expected an iterable of words"):
            word_norm_gaps(np.eye(2), bad)
    assert word_norm_gaps(X, ("xxy",)).tobytes() == word_norm_gaps(X, ["xxy"]).tobytes()


def test_operator_norms_validate_their_input():
    assert np.array_equal(operator_norms(np.zeros((3, 0, 0))), np.zeros(3))
    assert np.array_equal(operator_norms(np.zeros((2, 3, 0, 0))), np.zeros((2, 3)))
    with pytest.raises(InputError):
        operator_norms(X)
    with pytest.raises(InputError):
        operator_norms(np.full((1, 2, 2), np.inf))
