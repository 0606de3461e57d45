"""Tests for strict JSON configuration parsing."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nama import ConfigError, IntersectionTable
from nama.config import (
    build_model_from_config,
    build_sections_from_config,
    build_table_from_config,
    check_keys,
    coefficients_from_config,
    face_key_from_string,
    integer,
    load_document,
    rational,
    require,
    validate_toplevel,
)

SEGMENT_DOC = {
    "n": 1,
    "semistable": True,
    "divisors": [{"id": 0}, {"id": 1}],
    "faces": [[0], [1], [0, 1]],
}


def write_json(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return path


def test_load_document_round_trips_plain_json(tmp_path):
    path = write_json(tmp_path, {"n": 1, "faces": [[0]]})
    doc, digest = load_document(path)
    assert doc == {"n": 1, "faces": [[0]]}
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_load_document_rejects_duplicate_keys(tmp_path):
    path = write_json(tmp_path, '{"n": 1, "n": 2}')
    with pytest.raises(ConfigError, match="duplicate key"):
        load_document(path)
    # the first key seen twice is named, in a nested object too
    path = write_json(tmp_path, '{"a": {"b": 1, "c": 2, "c": 3, "b": 4}}')
    with pytest.raises(ConfigError, match="^duplicate key 'c' in "
                                          "configuration$"):
        load_document(path)


def test_load_document_rejects_broken_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_document(tmp_path / "missing.json")
    path = write_json(tmp_path, "{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_document(path)


def test_unknown_keys_are_rejected_with_context():
    with pytest.raises(ConfigError, match="unknown keys.*model config"):
        check_keys({"n": 1, "typo": 2}, {"n"}, "model config")
    with pytest.raises(ConfigError, match="must be an object"):
        check_keys([1, 2], {"n"}, "model config")
    with pytest.raises(ConfigError, match="missing required key"):
        require({}, "n", "model config")


def test_rational_parsing_is_exact():
    assert rational(3, "x") == Fraction(3)
    assert rational("3/4", "x") == Fraction(3, 4)
    assert rational("-2/5", "x") == Fraction(-2, 5)
    for bad in (True, 0.5, None, "abc", "1/0"):
        with pytest.raises(ConfigError):
            rational(bad, "x")


def test_floats_are_rejected_where_exactness_matters():
    with pytest.raises(ConfigError, match='p/q'):
        rational(0.25, "mass")


def test_integer_parsing():
    assert integer(4, "k") == 4
    with pytest.raises(ConfigError):
        integer(True, "k")
    with pytest.raises(ConfigError):
        integer(2.0, "k")
    with pytest.raises(ConfigError, match=">= 1"):
        integer(0, "k", minimum=1)


def test_model_building_from_a_document():
    model = build_model_from_config(SEGMENT_DOC)
    assert model.dimension == 1
    assert sorted(d.id for d in model.divisors) == [0, 1]
    assert model.semistable


def test_model_building_reports_schema_errors():
    with pytest.raises(ConfigError, match="missing required key 'n'"):
        build_model_from_config({"divisors": [{"id": 0}], "faces": [[0]]})
    bad = dict(SEGMENT_DOC, divisors=[{"id": 0, "weight": 1}, {"id": 1}])
    with pytest.raises(ConfigError, match="unknown keys"):
        build_model_from_config(bad)
    bad = dict(SEGMENT_DOC, divisors=[{"id": 0, "b": 0}, {"id": 1}])
    with pytest.raises(ConfigError, match=">= 1"):
        build_model_from_config(bad)
    bad = dict(SEGMENT_DOC, semistable="yes")
    with pytest.raises(ConfigError, match="boolean"):
        build_model_from_config(bad)
    bad = dict(SEGMENT_DOC, faces=[])
    with pytest.raises(ConfigError, match="nonempty"):
        build_model_from_config(bad)


def test_divisor_degrees_are_optional_rationals():
    doc = dict(SEGMENT_DOC,
               divisors=[{"id": 0, "degrees": "1/2"}, {"id": 1}])
    model = build_model_from_config(doc)
    by_id = {d.id: d for d in model.divisors}
    assert by_id[0].degree == Fraction(1, 2)
    assert by_id[1].degree is None


def test_table_building_from_entries():
    entries = [
        {"L_power": 1, "stratum": [0], "value": 1},
        {"L_power": 0, "divisor_powers": {"1": 1}, "stratum": [0],
         "value": "1/2"},
    ]
    table = build_table_from_config(entries, 1)
    assert len(table) == 2
    assert table.value(0, {1: 1}, (0,)) == Fraction(1, 2)


def test_table_building_reports_schema_errors():
    with pytest.raises(ConfigError, match="must be a list"):
        build_table_from_config({"L_power": 1}, 1)
    with pytest.raises(ConfigError, match="unknown keys"):
        build_table_from_config([{"L_power": 1, "extra": 0, "value": 1}], 1)
    with pytest.raises(ConfigError, match="not a divisor id"):
        build_table_from_config(
            [{"L_power": 0, "divisor_powers": {"x": 1}, "stratum": [0],
              "value": 1}], 1)
    with pytest.raises(ConfigError, match="must be exact"):
        build_table_from_config(
            [{"L_power": 1, "stratum": [0], "value": 0.5}], 1)


# "1", "01" and "001" all read as divisor 1; values 0 and "0" are one zero
SPELLINGS = (str, "0{}".format, "00{}".format)
VALUES = (0, "0", 1, "-2", "1/2", "3/4")


@st.composite
def table_entries(draw):
    """A dimension and table entries over divisors 0-3 with power keys in
    any order and spelling, unsorted strata, identical and conflicting
    duplicates, zeros (off-face or not: no model is read) and entries that
    break the dimension rule."""
    n = draw(st.integers(1, 2))
    distinct = []
    for _ in range(draw(st.integers(1, 6))):
        stratum = draw(st.lists(st.integers(0, 3), max_size=n + 1,
                                unique=True))
        ids = draw(st.lists(st.integers(0, 3), max_size=n, unique=True))
        powers = {draw(st.sampled_from(SPELLINGS))(i): draw(st.integers(1, n))
                  for i in ids}
        rule = n if not stratum else n + 1 - len(stratum)
        if sum(powers.values()) > rule:
            powers = {}
        # one entry in ten breaks the dimension rule on purpose
        lp = rule - sum(powers.values()) if draw(st.integers(0, 9)) else \
            draw(st.integers(0, n + 1))
        entry = {"L_power": lp, "value": draw(st.sampled_from(VALUES))}
        if powers or draw(st.booleans()):
            entry["divisor_powers"] = powers
        if stratum or draw(st.booleans()):
            entry["stratum"] = stratum
        distinct.append(entry)
    entries = []
    for entry in draw(st.lists(st.sampled_from(distinct), min_size=1,
                               max_size=12)):
        if not draw(st.integers(0, 3)):
            entry = dict(entry, value=draw(st.sampled_from(VALUES)))
        entries.append(entry)
    return n, entries


def table_outcome(build):
    """What a table build gives: its entries, size and nonzero index in
    order, or the type and text of the error it raises."""
    try:
        table = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return table.entries(), len(table), table._nonzero


@settings(max_examples=300)
@given(table_entries())
def test_the_one_pass_parse_equals_adding_one_entry_at_a_time(drawn):
    n, entries = drawn

    def one_at_a_time():
        table = IntersectionTable(n)
        for e in entries:
            table.add(e["L_power"], {int(k): v for k, v in
                                     e.get("divisor_powers", {}).items()},
                      e.get("stratum", []), Fraction(e["value"]))
        return table

    assert table_outcome(lambda: build_table_from_config(entries, n)) \
        == table_outcome(one_at_a_time)


def test_sections_project_onto_each_face():
    model = build_model_from_config(SEGMENT_DOC)
    entries = [{"support": [[0, 1], [1, 0]], "norm_exp": "1/3"}]
    sections = build_sections_from_config(entries, model)
    assert len(sections) == 1
    sec = sections[0]
    assert sec.support[(0,)] == ((Fraction(0),), (Fraction(1),))
    assert sec.support[(0, 1)] == ((Fraction(0), Fraction(1)),
                                   (Fraction(1), Fraction(0)))
    assert sec.norm_exponent == Fraction(1, 3)


def test_sections_require_one_exponent_per_divisor():
    model = build_model_from_config(SEGMENT_DOC)
    with pytest.raises(ConfigError, match="one exponent per divisor"):
        build_sections_from_config([{"support": [[1]], "norm_exp": 0}],
                                   model)
    with pytest.raises(ConfigError, match="nonempty list"):
        build_sections_from_config([{"support": [], "norm_exp": 0}], model)


def test_coefficients_cover_every_divisor():
    model = build_model_from_config(SEGMENT_DOC)
    coeffs = coefficients_from_config({"0": "1/4", "1": 0}, model)
    assert coeffs == {0: Fraction(1, 4), 1: Fraction(0)}
    with pytest.raises(ConfigError, match="missing for divisors"):
        coefficients_from_config({"0": 0}, model)
    with pytest.raises(ConfigError, match="is not a divisor"):
        coefficients_from_config({"0": 0, "1": 0, "5": 0}, model)
    with pytest.raises(ConfigError, match="not a divisor id"):
        coefficients_from_config({"zero": 0}, model)


def test_face_keys_parse_from_strings_and_lists():
    assert face_key_from_string("0,1", "face") == (0, 1)
    assert face_key_from_string("2", "face") == (2,)
    assert face_key_from_string([2, 0], "face") == (0, 2)
    assert face_key_from_string("", "face") == ()
    assert face_key_from_string("-1,01", "face") == (-1, 1)
    with pytest.raises(ConfigError):
        face_key_from_string("a,b", "face")
    with pytest.raises(ConfigError, match="not a face key"):
        face_key_from_string("1," + "9" * 5000, "face")
    with pytest.raises(ConfigError):
        face_key_from_string(3, "face")


def test_toplevel_schema_mixes_model_and_command_keys():
    validate_toplevel({"n": 1, "divisors": [], "residues": {},
                       "resolution": 5})
    with pytest.raises(ConfigError, match="unknown keys"):
        validate_toplevel({"n": 1, "plot": True})
