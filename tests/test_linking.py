"""Text helpers, entity linking, and chunking."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimver.kg import KgNode, KnowledgeGraph, Triplet
from claimver.linking import (chunk_text, link_entities, preprocess,
                              split_sentences)
from claimver.text import (max_word_spans, normalize, normalized_find, normalized_finder,
                           tokens, word_spans)

from oracles import link_entities_oracle, normalized_finder_oracle


# Characters whose case folding changes length ("İ", "ß", "ﬁ") or joins two
# words (U+0345 folds to "ι"), punctuation inside labels, and odd whitespace.
_LINK_ALPHABET = "ab \u0130\u00df\ufb01\u0345./-\t\u3000"


class TestNormalize:
    def test_casefold_collapse_trim(self):
        assert normalize("  Neil   ARMSTRONG\t") == "neil armstrong"

    def test_empty(self):
        assert normalize("   ") == ""

    def test_tokens(self):
        assert tokens("Apollo 11, Moon!") == ["apollo", "11", "moon"]

    def test_word_spans_cover_words(self):
        text = "He said hi."
        assert [text[a:b] for a, b in word_spans(text)] == ["He", "said", "hi"]

    @given(st.one_of(st.text(), st.text(_LINK_ALPHABET + "_\u03b9")))
    @example("u.s. army")
    @example("a_b c")
    @settings(max_examples=300, deadline=None)
    def test_max_word_spans_counts_runs_and_iotas(self, key):
        assert max_word_spans(key) == len(re.findall(r"\w+", key)) + key.count("\u03b9")


class TestNormalizedFind:
    def test_exact(self):
        assert normalized_find("the Moon rocks", "Moon") == (4, 8)

    def test_case_and_whitespace(self):
        text = "Neil  ARMSTRONG walked."
        start, end = normalized_find(text, "neil armstrong")
        assert normalize(text[start:end]) == "neil armstrong"

    def test_missing(self):
        assert normalized_find("abc", "xyz") is None

    def test_empty_needle(self):
        assert normalized_find("abc", "   ") is None

    @given(st.text(min_size=1, max_size=40), st.integers(0, 39), st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_any_slice_is_findable(self, text, start, length):
        needle = text[start:start + length]
        if not normalize(needle):
            return
        hit = normalized_find(text, needle)
        assert hit is not None
        s, e = hit
        assert normalize(text[s:e]) == normalize(needle)

    @given(st.text(alphabet="aAbB \nßẞİıﬁŉǰΐ", max_size=30),
           st.text(alphabet="aAbB \nßẞİıﬁŉǰΐ", min_size=1, max_size=6), st.integers(0, 30))
    @settings(max_examples=300, deadline=None)
    def test_start_offset_matches_search_of_the_suffix(self, text, needle, start):
        hit = normalized_finder(text)(needle, start)
        tail = normalized_find(text[start:], needle)
        assert hit == (tail and (tail[0] + start, tail[1] + start))



# Letters whose case folding changes length (ß ẞ İ ﬁ, and ŉ ǰ ΐ, which fold to
# a letter and combining marks, so a hit can start or end inside one) or not
# (ı, U+0345 to iota), and whitespace that str.split() breaks at: NBSP,
# U+2028, \x1c-\x1f.
_FOLD_TEXT = st.text(alphabet="aAbB sSiIjß ẞİıﬁŉǰΐ\u0345\xa0\u2028\x1c\x1d\x1e\x1f\n",
                     max_size=30)


class TestNormalizedFinderMatchesOracle:
    """normalized_finder against a per-character map built for every text."""

    @staticmethod
    def _check(text, queries):
        find, oracle = normalized_finder(text), normalized_finder_oracle(text)
        assert [find(needle, start) for needle, start in queries] == [
            oracle(needle, start) for needle, start in queries]

    @pytest.mark.parametrize("needle, hit", [("fix", (0, 2)), ("ix", None), ("f", None)])
    def test_hit_must_not_split_a_folded_character(self, needle, hit):
        # The ligature U+FB01 folds to "fi": a hit may cover it whole, never in part.
        assert normalized_finder("\ufb01x")(needle) == hit
        self._check("\ufb01x", [(needle, 0)])

    @given(_FOLD_TEXT, st.lists(st.tuples(_FOLD_TEXT.filter(lambda s: len(s) <= 8)
                                          | st.text(alphabet="aAbß İ", max_size=6),
                                          st.integers(-2, 32)), min_size=1, max_size=4))
    @settings(max_examples=500, deadline=None)
    def test_drawn_needles(self, text, queries):
        self._check(text, queries)

    @given(st.text(alphabet="ab \xa0", max_size=14),
           st.lists(st.tuples(st.text(alphabet="ab ", max_size=6), st.integers(-2, 14)),
                    min_size=1, max_size=4))
    @settings(max_examples=500, deadline=None)
    def test_dense_needles(self, text, queries):
        # A small alphabet, so needles often match, overlap and nearly match.
        self._check(text, queries)

    @given(_FOLD_TEXT, st.integers(0, 30), st.integers(1, 12), st.integers(0, 32))
    @settings(max_examples=500, deadline=None)
    def test_needles_cut_from_the_text(self, text, at, length, start):
        self._check(text, [(text[at:at + length].upper(), start)])

    @pytest.mark.parametrize("text, needle", [
        ("Groß Straße", "STRASSE"), ("the\u2028moon\x1c rocks", "MOON ROCKS"),
        ("ﬁne \xa0day", "fine day"), ("\u0345x \u0345", "ιx ι"), ("Iİı i", "i̇ı"),
        ("a  b a b", "a b"), ("ab  cd", "b c"), ("ab a b", "a b"), ("a\xa0ab b", "a b"),
        ("a bb a b", "a b b"), ("aaa b", "AA B"), ("abab ab b", "bab b"),
    ])
    def test_examples(self, text, needle):
        self._check(text, [(needle, start) for start in range(-2, len(text) + 1)])

@pytest.fixture
def linking_kg():
    nodes = [
        KgNode("Q30", "United States", aliases=("USA", "United States of America")),
        KgNode("Q405", "Moon"),
        KgNode("Q1615", "Neil Armstrong"),
        KgNode("Q5", "Mercury"),   # element
        KgNode("Q9", "Mercury"),   # planet; same surface, larger id
    ]
    triplets = [Triplet("Q1615", "citizen of", "Q30"), Triplet("Q9", "near", "Q405")]
    return KnowledgeGraph(nodes, triplets)


class TestLinkEntities:
    def test_simple_mentions(self, linking_kg):
        found = link_entities(linking_kg, "Neil Armstrong saw the Moon.")
        assert [(e.mention, e.node) for e in found] == [
            ("Neil Armstrong", "Q1615"), ("Moon", "Q405")]
        assert found[0].start == 0 and found[0].end == len("Neil Armstrong")

    def test_longest_match_wins(self, linking_kg):
        found = link_entities(linking_kg, "the United States of America flag")
        assert [(e.mention, e.node) for e in found] == [
            ("United States of America", "Q30")]

    def test_case_insensitive_alias(self, linking_kg):
        found = link_entities(linking_kg, "made in the usa today")
        assert [(e.mention, e.node) for e in found] == [("usa", "Q30")]

    def test_word_boundary_respected(self, linking_kg):
        assert link_entities(linking_kg, "Moonlight sonata") == []

    def test_ambiguous_mention_smallest_id(self, linking_kg):
        found = link_entities(linking_kg, "Mercury is bright.")
        assert len(found) == 1
        assert found[0].node == "Q5"
        assert found[0].alternates == ("Q9",)

    def test_non_overlapping_left_to_right(self, linking_kg):
        found = link_entities(linking_kg, "USA USA")
        assert [(e.start, e.end) for e in found] == [(0, 3), (4, 7)]

    def test_offsets_slice_back_to_mention(self, linking_kg):
        text = "In 1969 Neil Armstrong reached the Moon."
        for e in link_entities(linking_kg, text):
            assert text[e.start:e.end] == e.mention

    def test_empty_text(self, linking_kg):
        assert link_entities(linking_kg, "") == []

    def test_labels_with_inner_punctuation(self):
        # "U.S. Army" is one whitespace token but three words to the scan.
        kg = KnowledgeGraph([KgNode("A", "U.S. Army"), KgNode("B", "Paris France"),
                             KgNode("C", "AC/DC")], [])
        found = link_entities(kg, "The U.S. Army went to Paris France. AC/DC too.")
        assert [(e.mention, e.node) for e in found] == [
            ("U.S. Army", "A"), ("Paris France", "B"), ("AC/DC", "C")]


@st.composite
def _labelled_texts(draw):
    labels = draw(st.lists(st.text(_LINK_ALPHABET, min_size=1, max_size=8),
                           min_size=1, max_size=6))
    kg = KnowledgeGraph([KgNode(f"n{i}", label) for i, label in enumerate(labels)], [])
    pieces = st.one_of(st.sampled_from(labels), st.text(_LINK_ALPHABET, max_size=4))
    return kg, "".join(draw(st.lists(pieces, max_size=8)))


class TestLinkEntitiesMatchesOracle:
    @given(_labelled_texts())
    @example((KnowledgeGraph([KgNode("A", "a\u0345b"), KgNode("B", "a")], []), "a\u0345b a"))
    @example((KnowledgeGraph([KgNode("A", "a.b-a/b"), KgNode("B", "A.B")], []), "a.b-a/b a.b"))
    @settings(max_examples=300, deadline=None)
    def test_drawn_labels_and_texts(self, case):
        kg, text = case
        assert link_entities(kg, text) == link_entities_oracle(kg, text)


class TestSplitSentences:
    def test_boundary_requires_capital(self):
        parts = split_sentences("One ends. Two ends? three continues. Four.")
        assert parts == ["One ends. ", "Two ends? three continues. ", "Four."]
        assert split_sentences("Él vino. Ärger folgt.") == ["Él vino. ", "Ärger folgt."]

    def test_no_boundary(self):
        assert split_sentences("no terminal punctuation") == ["no terminal punctuation"]

    @given(st.text(alphabet=st.sampled_from("aZÉß ñÄ.?!\n\t"), max_size=60))
    @example("A. B! C? Done. trailing")
    @settings(max_examples=200, deadline=None)
    def test_concatenation_identity(self, text):
        pieces = split_sentences(text)
        assert "".join(pieces) == text
        assert all(pieces)
        for before, after in zip(pieces, pieces[1:]):
            assert before[-1].isspace() and before.rstrip()[-1] in ".?!"
            assert after[0].isupper()


class TestChunkText:
    def test_single_chunk(self):
        chunks = chunk_text("Short text.", 100)
        assert len(chunks) == 1
        assert chunks[0].text == "Short text." and chunks[0].offset == 0

    def test_packs_sentences(self):
        text = "One one. Two two. Three three."
        chunks = chunk_text(text, 20)
        assert all(len(c.text) <= 20 for c in chunks)
        assert "".join(c.text for c in chunks) == text
        assert len(chunks) == 2

    def test_oversized_sentence_hard_split(self):
        text = "x" * 25
        chunks = chunk_text(text, 10)
        assert [len(c.text) for c in chunks] == [10, 10, 5]
        assert "".join(c.text for c in chunks) == text

    def test_offsets_match_positions(self):
        text = "Alpha beta. Gamma delta. Epsilon."
        for c in chunk_text(text, 15):
            assert text[c.offset:c.offset + len(c.text)] == c.text

    def test_empty_text(self):
        assert chunk_text("", 10) == []

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            chunk_text("abc", 0)

    @given(st.text(max_size=200), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_concatenation_identity_property(self, text, budget):
        chunks = chunk_text(text, budget)
        assert "".join(c.text for c in chunks) == text
        assert all(len(c.text) <= budget for c in chunks)


class TestPreprocess:
    def test_hooks_apply_in_order(self, linking_kg):
        hooks = [lambda s: s.replace("moon", "Moon"), lambda s: s + " USA"]
        text, entities = preprocess(linking_kg, "the moon", hooks)
        assert text == "the Moon USA"
        assert [e.node for e in entities] == ["Q405", "Q30"]

    def test_hook_errors_propagate(self, linking_kg):
        def bad(_):
            raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            preprocess(linking_kg, "x", [bad])

    def test_no_hooks(self, linking_kg):
        text, entities = preprocess(linking_kg, "Moon")
        assert text == "Moon"
        assert [e.node for e in entities] == ["Q405"]
