"""The lexer produces the tokens it always has.

The master-pattern lexer carries line and column forward instead of
looking each token up, so three things are pinned here: the token list of
every reference input hashes to what the hand-written scanner produced
(constants written at the parent commit of the rewrite);
``SourceFile.position_at`` — the independent offset-to-position map —
agrees with every carried-forward position; and a range cut anywhere out
of a file (``tokenize(source, sink, start, end)``) lexes to the whole
file's tokens for the same lexemes.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.fuzz.generator import config_for_size_class, generate_program
from repro.lang.diagnostics import DiagnosticSink
from repro.lang.lexer import tokenize
from repro.lang.source import SourceFile
from repro.workloads.sizes import SIZE_ORDER
from repro.workloads.synthetic import synthetic_program
from repro.workloads.user_program import user_program

CORPUS = Path(__file__).parent / "corpus"

#: sha256(repr(tokens)) of each input, from the scanner this lexer replaced
TOKEN_HASHES = {
    "fuzz_digest_1aba6bb90e20": "93c35a2846d487afde0b57bc53c2ae35cf832f96b2505061e25a5aad0ddd115b",
    "fuzz_digest_f54777723909": "45f4f2e4ca5dcfe90aed84ce04149b82d0ee8944267bfc0302bf459facd18cc8",
    "fuzz_semantic_845f26f0e926": "fe5046f0d8486c16299235eb16b44a9e561049a9daece479c0990bbc8b20427b",
    "large_0": "f87d29b3f60fe940a94ce5334a5d84e2c8ea8a147642a7d2484ea7c94d6b8eac",
    "large_1": "ed2f5d2b7eac3f4c518eaf7b184595c37e5d323cc7de607bf9660dfd7752dd84",
    "large_2": "b78f681649428ccedb9b3c53dc8f5eb3124464be8f646d4945afed1fd188b5ae",
    "large_3": "da7de25f18e0329abb6a3a2545585b7179ea6e3e5855696429bb393c49151199",
    "large_4": "5e386fb930030eb106fec6020f2160ebd7ab139c2b1fe8f580147fa3bdcfe2ac",
    "large_5": "4125fb6202a74ff8665960bc4e9f03cd89e8b1402ebda1bb974df46a41ea3bc7",
    "large_6": "8da9876f4d045daa24e56dc4eb2def886894f3897bb5b1caa89610ca003cf5b6",
    "large_7": "88e131fea4eae1c6f31c836e4744876b1acf39f8700e76baedc92b087fad2367",
    "large_8": "de0916e402918e3591a31ecc5754ebd23749f01dbd6a056f37f26ca62deccd39",
    "large_9": "d46ae4fd09581afe885c29b53d007052d211615e01903506be50346e4250761d",
    "large_10": "3f7e41ddd2944a9e4b068f6b377666b8a913295500017d7bc42fd3f70699d2cf",
    "large_11": "11290aafa465f84998cd1b59d13ea6e96447435fc847b92d6e7e5e067880788e",
    "user_program": "afa88999c6c211cc4d901424c95d51edeaf6050af8a125b8436571f132eee678",
    "s2_tiny": "c6d922292b313b3a94f6fd33664324381f7edfa329ae1e24ca2220e895786e9f",
    "s2_small": "4e1372a8bc33b02b4d15625972358df21ae8490fb3e0dcfe017812f31fa67692",
    "s2_medium": "0a391dfcc95e612c33b105f54e84749034370f58737014042c04f2a7361da751",
    "s2_large": "dc9dfca323f1c9b21ba9c8753f68075d8ba0abc76dd045282aa38bcecab01cdf",
    "s2_huge": "12e9b9492c2c20f1a0df7c85d83d6638d0e6514309a47b7f62287f635f3d7002",
}


def _inputs():
    """The corpus, cold_branchy's twelve modules, the user program and
    one S_2 of each size class."""
    texts = {
        path.stem: json.loads(path.read_text())["source"]
        for path in sorted(CORPUS.glob("fuzz_*.json"))
    }
    for seed in range(12):
        texts[f"large_{seed}"] = generate_program(
            seed, config_for_size_class("large")
        ).source
    texts["user_program"] = user_program()
    for size_class in SIZE_ORDER:
        texts[f"s2_{size_class}"] = synthetic_program(size_class, 2)
    return texts


INPUTS = _inputs()


def lex(source):
    sink = DiagnosticSink()
    tokens = tokenize(source, sink)
    assert not sink.has_errors, sink.render()
    return tokens


def test_every_pinned_input_is_still_generated():
    assert sorted(INPUTS) == sorted(TOKEN_HASHES)


@pytest.mark.parametrize("name", sorted(TOKEN_HASHES))
def test_token_list_hashes_to_the_hand_written_scanners(name):
    tokens = lex(SourceFile(f"{name}.w2", INPUTS[name]))
    assert hashlib.sha256(repr(tokens).encode()).hexdigest() == TOKEN_HASHES[name]


@pytest.mark.parametrize("name", sorted(TOKEN_HASHES))
def test_carried_positions_agree_with_the_position_map(name):
    source = SourceFile(f"{name}.w2", INPUTS[name])
    for token in lex(source):
        span = token.span
        assert span.start == source.position_at(span.start.offset), token
        assert span.end == source.position_at(span.end.offset), token


@pytest.mark.parametrize("name", sorted(TOKEN_HASHES))
def test_a_window_cut_anywhere_lexes_to_the_whole_files_tokens(name):
    text = INPUTS[name]
    source = SourceFile(f"{name}.w2", text)
    whole = {token.span.start.offset: token for token in lex(source)[:-1]}
    starts = sorted(whole)
    rng = random.Random(name)
    same_lexemes = 0
    for cut in range(200):
        if cut % 2:
            # On token edges: the window holds exactly those tokens.
            first = rng.randrange(len(starts))
            last = min(len(starts) - 1, first + rng.randrange(40))
            i, j = starts[first], whole[starts[last]].span.end.offset
            expected = [whole[start] for start in starts[first : last + 1]]
        else:
            # Anywhere: the cut may split a lexeme at either edge, and
            # every lexeme it does not split comes out the same.
            i = rng.randrange(len(text) + 1)
            j = min(len(text), i + rng.randrange(160))
            expected = None
        tokens = tokenize(source, DiagnosticSink(), i, j)
        assert tokens[-1].span.start == source.position_at(j)
        if expected is not None:
            assert tokens[:-1] == expected
            continue
        for token in tokens[:-1]:
            twin = whole.get(token.span.start.offset)
            if twin is not None and twin.text == token.text:
                assert token == twin
                same_lexemes += 1
    assert same_lexemes > 200


def test_tokenize_asks_for_one_position(monkeypatch):
    calls = []
    position_at = SourceFile.position_at

    def counting(self, offset):
        calls.append(offset)
        return position_at(self, offset)

    monkeypatch.setattr(SourceFile, "position_at", counting)
    tokens = lex(SourceFile("large_0.w2", INPUTS["large_0"]))
    assert len(tokens) > 1000
    assert calls == [0]
