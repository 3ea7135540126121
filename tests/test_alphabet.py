import re

import pytest

from stpchc.alphabet import parse_cell


@pytest.mark.parametrize("text", ["1_0.2", "+1.2", " 1. 2", "1.٢", "1.-2", "a.b", "1..2", "."])
def test_dotted_tokens_are_ascii_digits(text):
    # int() would read the first four as (10, 2), (1, 2), (1, 2) and (1, 2)
    message = f"cell {text.strip()!r}: dotted tokens are non-negative integers"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_cell(text)


def test_dotted_cells_parse():
    assert parse_cell("1.2.0") == (1, 2, 0)
    assert parse_cell(" 10.02 ") == (10, 2)
    assert parse_cell("ab") == (10, 11)
    assert parse_cell("") == ()
