"""Words in two noncommuting variables x, y.

A word is a plain string over the alphabet ``{"x", "y"}``; the empty string
denotes the identity.

``eval_word`` multiplies one word out letter by letter.  ``word_products``
evaluates many words at once: each word's product is its prefix's product
times one letter, the same left-to-right matmul that ``eval_word`` does, so a
word whose prefix is already multiplied out costs one matmul and every
product equals ``eval_word``'s bit for bit.  It also takes X and Y as
(k, n, n) stacks: each matmul then runs over the leading axis, matrix by
matrix as for one pair, so a stack costs one pass of the word loop and each
of its products equals that of its own pair bit for bit.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import InputError
from .linalg import _as_square_matrices, as_matrix

ALPHABET = "xy"
_SWAP = str.maketrans("xy", "yx")


def validate_word(word: str) -> str:
    if not isinstance(word, str) or set(word) - set(ALPHABET):
        raise InputError(f"word {word!r} is not a string over {{x, y}}")
    return word


def _validated_words(words) -> list[str]:
    """The words of an iterable, each validated; a bare string or a non-iterable is an InputError.

    A string is iterable letter by letter, so it would pass as the words of
    its letters; it is refused instead.
    """
    if isinstance(words, str):
        raise InputError(f"expected an iterable of words, got the string {words!r}")
    try:
        items = iter(words)
    except TypeError:
        raise InputError(f"expected an iterable of words, got {words!r}") from None
    return [validate_word(word) for word in items]


def _letter_matrices(X, Y, stacks: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """X and Y as square matrices of one shape, or with ``stacks`` also as (k, n, n) stacks."""
    if stacks:
        X, Y = _as_square_matrices(X), _as_square_matrices(Y)
    else:
        X, Y = as_matrix(X, square=True), as_matrix(Y, square=True)
    if X.shape != Y.shape:
        raise InputError(f"size mismatch: X is {X.shape}, Y is {Y.shape}")
    return X, Y


def eval_word(word: str, X, Y) -> np.ndarray:
    """Substitute x -> X, y -> Y; the empty word gives the identity."""
    validate_word(word)
    X, Y = _letter_matrices(X, Y)
    M = np.eye(X.shape[0], dtype=complex)
    for letter in word:
        M = M @ (X if letter == "x" else Y)
    return M


def swap_letters(word: str) -> str:
    """The word with x and y exchanged: w(Y, X) is swap_letters(w)(X, Y)."""
    return word.translate(_SWAP)


def word_products(words, X, Y) -> np.ndarray:
    """Stacked products w(X, Y) of the given words, in their order.

    X and Y are n x n matrices, giving a (len(words), n, n) array, or
    (k, n, n) stacks, giving a (len(words), k, n, n) one.  The words are
    visited in sorted order, where words that share a prefix are adjacent,
    so each distinct prefix is multiplied out once and only the current
    word's prefix products are held.  A bare string or a non-iterable
    ``words`` is an InputError.
    """
    X, Y = _letter_matrices(X, Y, stacks=True)
    words = _validated_words(words)
    out = np.empty((len(words), *X.shape), dtype=complex)
    path = [np.eye(X.shape[-1], dtype=complex)]  # path[k]: product of prev[:k]
    prev = ""
    for i in sorted(range(len(words)), key=words.__getitem__):
        word = words[i]
        shared = 0  # the length of the prefix that word shares with prev
        for a, b in zip(prev, word):
            if a != b:
                break
            shared += 1
        del path[shared + 1 :]
        for letter in word[shared:]:
            path.append(path[-1] @ (X if letter == "x" else Y))
        out[i] = path[-1]
        prev = word
    return out


def words_of_length(length: int):
    """All words of the given length in lexicographic order with x < y."""
    for letters in product(ALPHABET, repeat=length):
        yield "".join(letters)


def iter_words(max_len: int):
    """Length-lexicographic enumeration (x < y), lengths 1..max_len."""
    for length in range(1, max_len + 1):
        yield from words_of_length(length)
