"""The lexer produces the tokens it always has.

A token is its kind, text, value and offsets; a line and column are
derived from an offset by ``SourceFile.position_at``.  Pinned here:
every reference input's tokens, as ``(kind name, text, value, line,
column)`` tuples, hash to what the lexer before the offset model
produced (constants written at the parent commit of that change); every
function's line count and artifact fingerprint are the parent's;
``position_at`` — the derived map — agrees with an independent newline
count at every token edge; and a range cut anywhere out of a file
(``tokenize(source, sink, start, end)``) lexes to the whole file's tokens
for the same lexemes.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.cache.fingerprint import module_fingerprints
from repro.driver.phases import phase1_parse_and_check
from repro.fuzz.generator import config_for_size_class, generate_program
from repro.lang.diagnostics import DiagnosticSink
from repro.lang.lexer import tokenize
from repro.lang.source import Position, SourceFile
from repro.options import CompileOptions
from repro.workloads.sizes import SIZE_ORDER
from repro.workloads.synthetic import synthetic_program
from repro.workloads.user_program import user_program

CORPUS = Path(__file__).parent / "corpus"

#: sha256(repr(rows)) of each input, a row per token: (kind name, text,
#: value, line, column), written at the parent of the offset model
TOKEN_HASHES = {
    "fuzz_digest_1aba6bb90e20": "d6788cea9f04b387bee10c8121e24d453c932ac7f556036717e6af6a7ae93255",
    "fuzz_digest_f54777723909": "5ed541cfeaa0bc6c35ead35d982bc1eae26db11ea65a9c8e52bee82520b98c89",
    "fuzz_semantic_845f26f0e926": "e8ecf891ce0f8b77692f330f39fcde0e6c30fb0fcca22e013ea4ea51f25d0c40",
    "large_0": "ee4ca22f5ddc50f905e5ed485fce5f6a4743162785c25ea5691130e4db94be7b",
    "large_1": "5b92bd2973c1d20e99577e7fa2fc334822bb9dcb427a9a88f818061ea3f49e05",
    "large_2": "2446171067a33bbc3a677d26e7e00df36caf71fed2421806af457f08a7896e0d",
    "large_3": "61bdcd06f972434e17b1b5335ea4d6fa6c819c6a1c13ad6b7fa063cb2eed6f9d",
    "large_4": "3e7023ed6eb4d378c4324e980c9d72326bf32c68ca0b438473b51e294c0fb163",
    "large_5": "6225ea145487ccf917c3bbfe71db7b72e3873429670d7089cd86a1a868572a7d",
    "large_6": "40c2d8cea4d3ad6f236fc6f296f128e9152346fe41daccc3fa630a9ffcc7efe4",
    "large_7": "6274eaacf14233d06a970fece18344d8313f17e5336c03c30803bac0c70b8218",
    "large_8": "f1e49dc7d862d9f60546fec98a5d9656d7d2785dbeac2a216321349a27c9fb32",
    "large_9": "cfccf96e244b8946741a163be867bcfcd1c784df7fa11679def30ab11eee7f03",
    "large_10": "2fcf48b3d01269e449b3454f4646664e5899405ce22dc512f38b03f748ae9cf8",
    "large_11": "b5ed039cf45b9550d4e17c9821833a7422bc6e55d0843dd6cf36baf78f3cc8a5",
    "user_program": "8af7f6910e2157a708397ae8197e2627fab41619cab1c5afadfd4cd5f9f79df6",
    "s2_tiny": "0cac71fa78ff553a9d769e37fe2561fe86ea7f11990434da648bab13fda1d0d8",
    "s2_small": "4333eaf0e5ff0678492d233010ec5ed4c6a3ec3d309e5cab7fb43f688edab5c4",
    "s2_medium": "eb97829f50e7fb913715313af2b41610b5cf029e8a711be2069e0b396d915d0c",
    "s2_large": "d33afaf1e3ecb9300b1df4718f93aeec0ebad9a8aa568fcff6d60b8775a41c71",
    "s2_huge": "df880487d178fbaf53eaced32f9849e96e38cd823e49a8704897e6fc53d22762",
}

#: the version salt the fingerprints below were written under: what is
#: pinned is what the front end hands the fingerprint, so a later cache
#: schema (which only changes the salt) leaves the pins alone
PINNED_SALT = "1.0.0+schema9"

#: sha256(repr((lines, fingerprints))) of each input: every function's
#: ``line_count()`` and its artifact fingerprint at default options,
#: written at the parent of the offset model (a line count the parser
#: takes must be the one positions gave)
FUNCTION_HASHES = {
    "fuzz_digest_1aba6bb90e20": "a9602913adae47eb836063ffb86f46ba7d1075940f6c46636b25d3d3a548f7c0",
    "fuzz_digest_f54777723909": "473bf7c93dde49a70f236d36b84aebd99b819312c39b86c35279aab5d4f17ebb",
    "fuzz_semantic_845f26f0e926": "548b5642482ff6b5227353bf4f366739b54cef2bef3b258574f29b7c76d70e64",
    "large_0": "596d30863549e297ca9439cb4429919481cf813220f082111015ce8b6b365747",
    "large_1": "c08390763ebdc609067ee794f75f723101d7cab15b25425ddb8566d340b34893",
    "large_10": "c989fc555189b900d986942f0b33903f95647ed604c7a0bc36650489788b8762",
    "large_11": "c84dc9c123eb93de7b4f3c4a444c62ae3a4b3ac0a7c6a355d3c2357343941b09",
    "large_2": "4a810eecf602163864cf7aa98d5852a8fb35ae5a348f3ca335072ab8ac0cfe31",
    "large_3": "d8dbbf3f93099d71c187af8385ff59aac0fae10aeb12c3f9e669b634d13e8328",
    "large_4": "95812ddbf76a446e6c47e940300c877aca64b416f6bfcaffc74c1c3b26952452",
    "large_5": "55779c78b9d8f65f121dbb66a1ce8866d7a92ab49a4e5ecb9cbe91f59ac45fcd",
    "large_6": "d3c34ea23b0ea83f3a8e3bb053d2e01c947ce57f33e78e174e4efad2d150c8f0",
    "large_7": "895f6b771fa180b41b4d2e96a1a166b9972aee4b15fbae5b134a2fa8e4772a2d",
    "large_8": "42f82fc5bf76fa8c9563b51d460ea3b3378c3b735b10c1d8c78d13b21ee6c6a4",
    "large_9": "56557977fe7987ae7feb73ea12534f5e5e1b7b1343c6cefb09ff131e65e60ea6",
    "s2_huge": "c56f14e848b9b25dcf78acf91babc6c9a604c3eaa1baa0e1386d6cb1727f835e",
    "s2_large": "1f7218ecec774b9e9fa81bae357258448031e639ad9a1ae70c8286a50eac1c38",
    "s2_medium": "5e8dd3d5ad433b7c2b863df9194a59ed5f765e08fae83c34997341d0a2554804",
    "s2_small": "f091fd6b543212e3c4612c0f032424fbcc235b3147de450fde32911b601dc69b",
    "s2_tiny": "c3aeeb3fe8d9c2ef396a7a7e388ecc40575736c02a28f4e87f27c99180d78631",
    "user_program": "8ee0dc01b6b78b1514a9110628bb0ce4f7824fd3a546bc73dc28528e97ea3b7d",
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


def rows(source, tokens):
    """Each token as a model-free tuple, its line and column derived."""
    rows = []
    for token in tokens:
        position = source.position_at(token.start)
        rows.append(
            (token.kind.name, token.text, token.value, position.line, position.column)
        )
    return rows


@pytest.mark.parametrize("name", sorted(TOKEN_HASHES))
def test_token_list_hashes_to_the_hand_written_scanners(name):
    source = SourceFile(f"{name}.w2", INPUTS[name])
    digest = hashlib.sha256(repr(rows(source, lex(source))).encode()).hexdigest()
    assert digest == TOKEN_HASHES[name]



@pytest.mark.parametrize("name", sorted(FUNCTION_HASHES))
def test_line_counts_and_fingerprints_are_the_parents(name):
    parsed = phase1_parse_and_check(INPUTS[name], f"{name}.w2")
    lines = [
        (section.name, fn.name, fn.line_count())
        for section, fn in parsed.module.all_functions()
    ]
    fingerprints = sorted(
        module_fingerprints(
            parsed.module, CompileOptions(), salt=PINNED_SALT
        ).items()
    )
    digest = hashlib.sha256(repr((lines, fingerprints)).encode()).hexdigest()
    assert digest == FUNCTION_HASHES[name]
@pytest.mark.parametrize("name", sorted(TOKEN_HASHES))
def test_carried_positions_agree_with_the_position_map(name):
    """``position_at`` at every token edge is the line and column a
    plain newline count gives."""
    text = INPUTS[name]
    source = SourceFile(f"{name}.w2", text)
    edges = sorted({edge for t in lex(source) for edge in (t.start, t.end)})
    line, counted = 1, 0
    for offset in edges:
        line += text.count("\n", counted, offset)
        counted = offset
        column = offset - text.rfind("\n", 0, offset)
        assert source.position_at(offset) == Position(line, column, offset)


@pytest.mark.parametrize("name", sorted(TOKEN_HASHES))
def test_a_window_cut_anywhere_lexes_to_the_whole_files_tokens(name):
    text = INPUTS[name]
    source = SourceFile(f"{name}.w2", text)
    whole = {token.start: token for token in lex(source)[:-1]}
    starts = sorted(whole)
    rng = random.Random(name)
    same_lexemes = 0
    for cut in range(200):
        if cut % 2:
            # On token edges: the window holds exactly those tokens.
            first = rng.randrange(len(starts))
            last = min(len(starts) - 1, first + rng.randrange(40))
            i, j = starts[first], whole[starts[last]].end
            expected = [whole[start] for start in starts[first : last + 1]]
        else:
            # Anywhere: the cut may split a lexeme at either edge, and
            # every lexeme it does not split comes out the same.
            i = rng.randrange(len(text) + 1)
            j = min(len(text), i + rng.randrange(160))
            expected = None
        tokens = tokenize(source, DiagnosticSink(), i, j)
        assert (tokens[-1].start, tokens[-1].end) == (j, j)
        if expected is not None:
            assert tokens[:-1] == expected
            continue
        for token in tokens[:-1]:
            twin = whole.get(token.start)
            if twin is not None and twin.text == token.text:
                assert token == twin
                same_lexemes += 1
    assert same_lexemes > 200


def test_tokenize_asks_for_no_position(monkeypatch):
    calls = []
    position_at = SourceFile.position_at

    def counting(self, offset):
        calls.append(offset)
        return position_at(self, offset)

    monkeypatch.setattr(SourceFile, "position_at", counting)
    tokens = lex(SourceFile("large_0.w2", INPUTS["large_0"]))
    assert len(tokens) > 1000
    assert calls == []
