"""records.dump writes a document exactly as json.dumps(doc, indent=2)
does, and a newline."""

import json

import pytest
from hypothesis import given, strategies as st

from fermatlab import records

# every character, lone and astral surrogates included, and more often
# ASCII and the characters that JSON escapes or that end the plain
# ASCII range
characters = st.one_of(
    st.sampled_from('"\\\x00\t\n\x1f \x7f\x80\xe9\u2028\ud800\udfff'
                    '\U0001f600~'),
    st.characters(max_codepoint=0x7f), st.characters(exclude_categories=()))
texts = st.text(characters)
scalars = st.one_of(
    st.none(), st.booleans(), texts,
    st.integers(), st.integers(min_value=-(1 << 200), max_value=1 << 200),
    st.floats(), st.sampled_from([float("nan"), float("inf"),
                                  float("-inf"), -0.0]))
values = st.recursive(
    scalars, lambda children: st.one_of(
        st.lists(children), st.dictionaries(texts, children)),
    max_leaves=40)


@given(st.dictionaries(texts, values))
def test_dump_is_json_dumps_with_indent_two(doc):
    assert records.dump(doc) == json.dumps(doc, indent=2) + "\n"


def test_every_ascii_character_alone_and_among_plain_ones():
    for char in map(chr, range(128)):
        doc = {char: [char, f"a{char}b"]}
        assert records.dump(doc) == json.dumps(doc, indent=2) + "\n", char


@pytest.mark.parametrize("doc", [{}, {"a": []}, {"a": {}}, {"": [[], {}]},
                                 {"a": [{"b": [1, [2]]}]}])
def test_empty_and_nested_containers(doc):
    assert records.dump(doc) == json.dumps(doc, indent=2) + "\n"


def test_each_distinct_string_is_quoted_once(monkeypatch):
    quoted = []
    real = records._quote
    monkeypatch.setattr(records, "_quote",
                        lambda text: quoted.append(text) or real(text))
    doc = {"n": "n", "rows": [{"n": "é", "base": "2"}, {"n": "é"}],
           "base": "2"}
    assert records.dump(doc) == json.dumps(doc, indent=2) + "\n"
    assert sorted(quoted) == ["2", "base", "n", "rows", "é"]


def test_unserializable_value_is_refused_as_json_refuses_it():
    with pytest.raises(TypeError, match="Object of type set is not JSON "
                                        "serializable"):
        records.dump({"a": {1}})
