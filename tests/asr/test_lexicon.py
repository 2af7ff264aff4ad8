"""Tests for the pronunciation lexicon."""

import pytest

from repro.asr.lexicon import Lexicon, PHONEME_INVENTORY


class TestLexiconConstruction:
    def test_rejects_empty_vocabulary(self):
        with pytest.raises(ValueError):
            Lexicon([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Lexicon(["ba", "ba"])

    def test_word_ids_follow_order(self):
        lex = Lexicon(["ba", "do", "ki"])
        assert lex.word_id("ba") == 0
        assert lex.word_id("ki") == 2
        assert lex.words == ("ba", "do", "ki")

    def test_contains_and_len(self):
        lex = Lexicon(["ba", "do"])
        assert "ba" in lex
        assert "zz" not in lex
        assert len(lex) == 2


class TestPronunciations:
    def test_deterministic_pronunciation(self):
        lex = Lexicon(["bado"])
        assert lex.pronunciation("bado") == ("B", "AA", "D", "OW")

    def test_digraphs_map_to_single_phone(self):
        lex = Lexicon(["bai", "lou"])
        assert lex.pronunciation("bai") == ("B", "AY")
        assert lex.pronunciation("lou") == ("L", "UW")

    def test_unknown_characters_fall_back(self):
        lex = Lexicon(["bax"])
        phones = lex.pronunciation("bax")
        assert all(p in PHONEME_INVENTORY for p in phones)

    def test_pronunciation_ids_match_inventory(self):
        lex = Lexicon(["bado", "kine"])
        for word in lex.words:
            ids = lex.pronunciation_ids(word)
            assert all(0 <= i < len(PHONEME_INVENTORY) for i in ids)

    def test_phones_of_word_id_bounds(self):
        lex = Lexicon(["ba"])
        with pytest.raises(IndexError):
            lex.phones_of_word_id(5)

    def test_transcript_phone_ids_concatenates(self):
        lex = Lexicon(["ba", "do"])
        flat = lex.transcript_phone_ids(["ba", "do"])
        assert flat == list(lex.pronunciation_ids("ba")) + list(
            lex.pronunciation_ids("do")
        )

    def test_distinct_words_distinct_pronunciations_mostly(self):
        lex = Lexicon(["ba", "bo", "bi", "da", "do"])
        prons = {lex.pronunciation(w) for w in lex.words}
        assert len(prons) == 5
