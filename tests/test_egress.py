"""What ``repro.egress`` promises beyond the byte-identical goldens.

Unordered operation values are sorted by :func:`repro.egress.canonical`, the
compact form, where they were sorted by the spaced ``json.dumps`` text.  Both
put a separator's space after the separator, so the order (and every trace
byte) is the same; the property below holds that over arbitrary JSON.  And a
file that cannot be written is one ``ReproError`` naming the file that failed,
not an ``OSError`` traceback, with nothing left under the target name.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import egress
from repro.errors import ReproError

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 20) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=2), children, max_size=2),
    max_leaves=8,
)


@settings(max_examples=200, derandomize=True, database=None)
@given(st.lists(JSON_VALUES, max_size=6))
def test_canonical_sorts_values_as_the_spaced_encoding_did(values):
    spaced = sorted(values, key=lambda value: json.dumps(value, sort_keys=True))
    assert sorted(values, key=egress.canonical) == spaced


@pytest.mark.parametrize("write", [egress.write_json, egress.write_json_lines])
def test_an_unwritable_file_is_one_attributed_error(tmp_path, write):
    path = str(tmp_path / "missing" / "x.json")
    with pytest.raises(ReproError, match="^{}: ".format(re.escape(path + ".tmp"))):
        write(path, [{"a": 1}])
    assert not (tmp_path / "missing").exists()
