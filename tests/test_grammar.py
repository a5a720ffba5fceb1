import json

import pytest
from hypothesis import given, settings

from cubalg import (
    ChainParseError,
    chain_from_json_dict,
    chain_to_json_dict,
    format_chain,
    parse_cell,
    parse_chain,
)
from tests.test_chain import chains


def test_parse_cell(L3):
    cell = parse_cell("[s@0,p@2,s@3]", L3)
    assert str(cell) == "[s@0,p@2,s@3]"
    assert parse_cell("[ s@-1 , p@7 , i@0 ]", L3) == parse_cell("[s@4,p@2,i@0]", L3)


def test_parse_chain_terms(L5):
    c = parse_chain("1/2*[p@0] + [s@1] - 3*[i@2]", L5)
    assert format_chain(c) == "1/2*[p@0] + [s@1] - 3*[i@2]"


def test_bare_cell_is_unit_term(L5):
    assert parse_chain("[s@0]", L5) == parse_chain("1*[s@0]", L5)
    assert parse_chain("-[s@0]", L5) == parse_chain("-1*[s@0]", L5)


def test_like_terms_combine(L5):
    assert format_chain(parse_chain("1/2*[s@0] + 1/2*[s@0]", L5)) == "[s@0]"
    assert parse_chain("[s@0] - [s@0]", L5).is_zero()
    assert format_chain(parse_chain("[s@0] - [s@0]", L5)) == "0"


def test_parse_error_position(L5):
    with pytest.raises(ChainParseError) as err:
        parse_chain("1/2*[q@0]", L5)
    assert err.value.pos == 5
    assert "position 5" in str(err.value)
    with pytest.raises(ChainParseError):
        parse_chain("1/0*[s@0]", L5)
    with pytest.raises(ChainParseError):
        parse_chain("[s@0", L5)
    with pytest.raises(ChainParseError):
        parse_chain("[s@0] [s@1]", L5)
    # an int is ASCII digits: another script's digit or a superscript is an error there
    for text, pos in [("[p@\u0663]", 3), ("[p@\u00b2]", 3), ("1/\u00b2*[p@0]", 2)]:
        with pytest.raises(ChainParseError) as err:
            parse_chain(text, L5)
        assert err.value.pos == pos, text


def test_wrong_arity_rejected(L3):
    with pytest.raises(ChainParseError):
        parse_chain("[s@0]", L3)


def test_json_rendering(L3):
    c = parse_chain("1/4*[s@0,p@2,s@3]", L3)
    data = chain_to_json_dict(c)
    assert data == {
        "lattice": {"periods": [5, 5, 5]},
        "terms": [{"cell": [["s", 0], ["p", 2], ["s", 3]], "coef": "1/4"}],
    }
    assert chain_from_json_dict(json.loads(json.dumps(data))) == c


@pytest.mark.parametrize(
    "cell, coef, message",
    [
        ([["p", 0]], 0.1, "coefficient"),  # would read 3602879701896397/36028797018963968
        ([["p", 0]], True, "coefficient"),
        ([["p", 0]], "0.1", "trailing input after rational"),
        ([["p", 0]], [1, 2], "coefficient"),
        ([["p", 1.7]], "1", "coordinate"),  # would be truncated to p@1
        ([["p", True]], "1", "coordinate"),
        ([["p", 0]], "\u0663", "expected an integer"),  # Arabic-Indic three read as 3
    ],
)
def test_json_rejects_inexact_values(cell, coef, message):
    data = {"lattice": {"periods": [5]}, "terms": [{"cell": cell, "coef": coef}]}
    with pytest.raises(ValueError, match=message):
        chain_from_json_dict(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"lattice": {"periods": [5]}, "terms": [{"cell": [["q", 0]], "coef": 1}]}, "kind"),
        ({"lattice": {"periods": [5]}, "terms": [{"cell": [[["p"], 0]], "coef": 1}]}, "kind"),
        ({"terms": []}, "'lattice'"),
        ({"lattice": {}, "terms": []}, "'periods'"),
        ({"lattice": {"periods": [5]}}, "'terms'"),
        ({"lattice": {"periods": [5]}, "terms": [{"coef": 1}]}, "'cell'"),
        ({"lattice": {"periods": [5]}, "terms": [{"cell": [["p", 0]]}]}, "'coef'"),
        ({"lattice": {"periods": [5]}, "terms": [[["p", 0]]]}, "'cell'"),
        ({"lattice": {"periods": [5.0]}, "terms": []}, "'periods'"),
        ({"lattice": {"periods": 5}, "terms": []}, "'periods'"),
        ({"lattice": {"periods": [5]}, "terms": 5}, "'terms'"),
        ({"lattice": {"periods": [5]}, "terms": [{"cell": 5, "coef": 1}]}, "'cell'"),
        ({"lattice": {"periods": [5]}, "terms": [{"cell": [["p"]], "coef": 1}]}, "'cell'"),
    ],
)
def test_json_rejects_unknown_kinds_and_missing_keys(data, message):
    with pytest.raises(ValueError, match=message):
        chain_from_json_dict(data)


def test_json_reads_integer_and_rational_coefficients():
    data = {
        "lattice": {"periods": [5]},
        "terms": [{"cell": [["p", 6]], "coef": 2}, {"cell": [["s", 0]], "coef": "-3/6"}],
    }
    assert format_chain(chain_from_json_dict(data)) == "-1/2*[s@0] + 2*[p@1]"


def test_canonical_order_is_stable(L3):
    a = parse_chain("[s@0,p@0,p@0] + 2*[p@0,s@0,p@0]", L3)
    b = parse_chain("2*[p@0,s@0,p@0] + [s@0,p@0,p@0]", L3)
    assert format_chain(a) == format_chain(b)
    assert chain_to_json_dict(a) == chain_to_json_dict(b)


@settings(max_examples=80)
@given(chains(periods=(5, 5)))
def test_text_roundtrip(c):
    if c.is_zero():
        return
    assert parse_chain(format_chain(c), c.lattice) == c


@settings(max_examples=80)
@given(chains(periods=(5, 5, 5)))
def test_json_roundtrip(c):
    assert chain_from_json_dict(chain_to_json_dict(c)) == c
