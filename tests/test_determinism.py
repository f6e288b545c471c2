"""A sample of the determinism matrix (``tests/determinism.py``) in tier-1.

One row per axis -- recorded traces across ``--jobs``, and a watch that must
also equal its golden across ``PYTHONHASHSEED`` -- plus the discovery, hunt
and watch reports the CLI prints.  ``python tests/determinism.py`` runs every
row.
"""

from __future__ import annotations

import json
import os
import string

import pytest

from determinism import GOLDEN_DIR, HASH_SEEDS, ROWS, ROWS_BY_NAME, verify


def test_rows_are_well_formed():
    assert len(ROWS_BY_NAME) == len(ROWS)
    fields = string.Formatter()
    for row in ROWS:
        assert row.axes and set(row.axes) <= {"jobs", "hashseed"}, row.name
        assert row.axes.get("hashseed", HASH_SEEDS) == HASH_SEEDS, row.name
        assert "--jobs" not in row.argv or "jobs" not in row.axes, row.name
        used = {name for arg in row.argv for _, name, _, _ in fields.parse(arg) if name}
        assert used <= {"out", "in", "golden"}, row.name
        assert ("in" in used) == (row.before is not None), row.name
        assert row.golden is None or os.path.isfile(os.path.join(GOLDEN_DIR, row.golden))


@pytest.mark.parametrize("name", ["record-geo-replication", "watch-large-threshold-24x2"])
def test_axis_sample(name):
    verify(ROWS_BY_NAME[name])


def test_discover_json_is_hash_seed_independent():
    assert b'"nodes_explored"' in verify(ROWS_BY_NAME["discover-multiregion-4x3"])


def test_hunt_json_is_hash_seed_independent():
    assert b'"best_score"' in verify(ROWS_BY_NAME["hunt-unidirectional-ring"])


def test_watch_json_is_hash_seed_independent():
    payload = json.loads(verify(ROWS_BY_NAME["watch-multiregion-4x3"]))
    assert payload["all_exist"] is True
    assert len(payload["deltas"]) == 3
