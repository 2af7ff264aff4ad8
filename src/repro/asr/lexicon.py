"""Phoneme inventory and pronunciation lexicon.

The decoder searches over sequences of phonemes, so every vocabulary word
needs a pronunciation.  Real engines ship hand-built pronunciation
dictionaries; here pronunciations are derived deterministically from the
pseudo-word spelling (each letter or digraph maps to one phoneme), which
keeps the mapping stable across runs and makes acoustically similar words
genuinely confusable — the property that creates recognition errors under
aggressive pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["Lexicon", "PHONEME_INVENTORY"]

#: The closed phoneme inventory used by the synthetic acoustic model.  The
#: exact symbols are arbitrary; what matters is that the inventory is small
#: enough for per-frame posteriors to be informative yet large enough for
#: distinct words to have distinct pronunciations.
PHONEME_INVENTORY: Tuple[str, ...] = (
    "AA", "AE", "AY", "B", "D", "EH", "F", "G", "IY", "K",
    "L", "M", "N", "OW", "P", "R", "S", "T", "UW", "V", "Z",
)

_LETTER_TO_PHONE: Dict[str, str] = {
    "a": "AA", "e": "EH", "i": "IY", "o": "OW", "u": "UW",
    "b": "B", "d": "D", "f": "F", "g": "G", "k": "K",
    "l": "L", "m": "M", "n": "N", "p": "P", "r": "R",
    "s": "S", "t": "T", "v": "V", "z": "Z",
}

_DIGRAPH_TO_PHONE: Dict[str, str] = {
    "ai": "AY",
    "ou": "UW",
}


def _pronounce(word: str) -> Tuple[str, ...]:
    """Derive a pronunciation for a pseudo-word from its spelling."""
    phones: List[str] = []
    i = 0
    while i < len(word):
        digraph = word[i : i + 2]
        if digraph in _DIGRAPH_TO_PHONE:
            phones.append(_DIGRAPH_TO_PHONE[digraph])
            i += 2
            continue
        letter = word[i]
        phone = _LETTER_TO_PHONE.get(letter)
        if phone is not None:
            phones.append(phone)
        else:
            # Unknown character: map to a stable phone so the lexicon never
            # fails on exotic spellings (e.g. user-supplied words).
            phones.append("AE")
        i += 1
    if not phones:
        raise ValueError(f"word {word!r} produced an empty pronunciation")
    return tuple(phones)


@dataclass(frozen=True)
class _Entry:
    word: str
    phones: Tuple[str, ...]


class Lexicon:
    """Pronunciation lexicon over a closed vocabulary.

    Args:
        vocabulary: The words the decoder may hypothesise.  Order is
            preserved and defines the integer word ids used throughout the
            decoder.

    Raises:
        ValueError: If the vocabulary is empty or contains duplicates.
    """

    def __init__(self, vocabulary: Sequence[str]) -> None:
        words = list(vocabulary)
        if not words:
            raise ValueError("vocabulary must not be empty")
        if len(set(words)) != len(words):
            raise ValueError("vocabulary contains duplicate words")
        self._entries: List[_Entry] = [
            _Entry(word=w, phones=_pronounce(w)) for w in words
        ]
        self._word_to_id: Dict[str, int] = {w: i for i, w in enumerate(words)}
        self._phone_to_id: Dict[str, int] = {
            p: i for i, p in enumerate(PHONEME_INVENTORY)
        }

    # ------------------------------------------------------------------
    # vocabulary accessors
    # ------------------------------------------------------------------
    @property
    def words(self) -> Tuple[str, ...]:
        """The vocabulary, in word-id order."""
        return tuple(e.word for e in self._entries)

    @property
    def n_words(self) -> int:
        """Vocabulary size."""
        return len(self._entries)

    @property
    def n_phones(self) -> int:
        """Size of the phoneme inventory."""
        return len(PHONEME_INVENTORY)

    def word_id(self, word: str) -> int:
        """Return the integer id of ``word``.

        Raises:
            KeyError: If the word is out of vocabulary.
        """
        return self._word_to_id[word]

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    def __len__(self) -> int:
        return self.n_words

    # ------------------------------------------------------------------
    # pronunciations
    # ------------------------------------------------------------------
    def pronunciation(self, word: str) -> Tuple[str, ...]:
        """Return the phoneme sequence of ``word``."""
        return self._entries[self.word_id(word)].phones

    def pronunciation_ids(self, word: str) -> Tuple[int, ...]:
        """Return the pronunciation as phoneme ids."""
        return tuple(self._phone_to_id[p] for p in self.pronunciation(word))

    def phones_of_word_id(self, word_id: int) -> Tuple[int, ...]:
        """Return the phoneme ids for an integer word id."""
        if not 0 <= word_id < self.n_words:
            raise IndexError(f"word id {word_id} out of range")
        return tuple(
            self._phone_to_id[p] for p in self._entries[word_id].phones
        )

    def transcript_phone_ids(self, words: Iterable[str]) -> List[int]:
        """Flatten a word sequence into its phoneme-id sequence."""
        phone_ids: List[int] = []
        for word in words:
            phone_ids.extend(self.pronunciation_ids(word))
        return phone_ids

