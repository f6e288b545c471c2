"""Tests for the replicated key-value store of ``examples/replicated_kv_store.py``.

The store is an application written on the quorum access functions, so it
lives with its example script; the tests import it from there.
"""

import functools
import os
import sys

import pytest

from repro.checkers import check_register_linearizability
from repro.history import History, OperationRecord
from repro.sim import Cluster, UniformDelay
from repro.types import sorted_processes

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples")
sys.path.insert(0, EXAMPLES_DIR)
from replicated_kv_store import ReplicatedKVStore, merge_kv_states  # noqa: E402


def make_cluster(quorum_system, seed=0):
    return Cluster(
        sorted_processes(quorum_system.processes),
        functools.partial(ReplicatedKVStore, quorum_system=quorum_system),
        UniformDelay(0.4, 1.6, seed=seed),
    )


def test_merge_kv_states_takes_highest_version_per_key():
    first = {"x": ("old", (1, 1)), "y": ("only-first", (1, 2))}
    second = {"x": ("new", (2, 1)), "z": ("only-second", (1, 3))}
    merged = merge_kv_states([first, second])
    assert merged["x"][0] == "new"
    assert merged["y"][0] == "only-first"
    assert merged["z"][0] == "only-second"


def test_get_of_missing_key_returns_none(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    handle = cluster.invoke("a", "get", "missing")
    cluster.run_until_done([handle], max_time=300.0, require_completion=True)
    assert handle.result is None


def test_put_then_get_across_processes(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    put = cluster.invoke("a", "put", "user:1", {"name": "ada"})
    cluster.run_until_done([put], max_time=300.0, require_completion=True)
    get = cluster.invoke("c", "get", "user:1")
    cluster.run_until_done([get], max_time=300.0, require_completion=True)
    assert get.result == {"name": "ada"}


def test_independent_keys_do_not_interfere(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    puts = [
        cluster.invoke("a", "put", "k1", "v1"),
        cluster.invoke("b", "put", "k2", "v2"),
    ]
    cluster.run_until_done(puts, max_time=400.0, require_completion=True)
    gets = [cluster.invoke("d", "get", "k1"), cluster.invoke("d", "get", "k2")]
    cluster.run_until_done(gets, max_time=400.0, require_completion=True)
    assert gets[0].result == "v1"
    assert gets[1].result == "v2"


def test_sequential_puts_to_same_key_latest_wins(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    for value in ("first", "second", "third"):
        handle = cluster.invoke("b", "put", "counter", value)
        cluster.run_until_done([handle], max_time=300.0, require_completion=True)
    get = cluster.invoke("a", "get", "counter")
    cluster.run_until_done([get], max_time=300.0, require_completion=True)
    assert get.result == "third"


def test_keys_operation_lists_all_written_keys(figure1_gqs):
    cluster = make_cluster(figure1_gqs)
    puts = [
        cluster.invoke("a", "put", "alpha", 1),
        cluster.invoke("b", "put", "beta", 2),
    ]
    cluster.run_until_done(puts, max_time=400.0, require_completion=True)
    keys = cluster.invoke("c", "keys")
    cluster.run_until_done([keys], max_time=400.0, require_completion=True)
    assert keys.result == ["alpha", "beta"]


def test_kv_store_live_and_linearizable_per_key_under_f1(figure1_gqs):
    """Under failure pattern f1, puts/gets at U_f1 = {a, b} terminate and each
    key's sub-history is linearizable as a register history."""
    f1 = figure1_gqs.fail_prone.patterns[0]
    cluster = make_cluster(figure1_gqs, seed=4)
    cluster.network.apply_failure_pattern(f1)

    handles = [
        cluster.invoke("a", "put", "x", "a-x-1"),
        cluster.invoke("b", "put", "y", "b-y-1"),
    ]
    cluster.run_until_done(handles, max_time=800.0, require_completion=True)
    more = [
        cluster.invoke("b", "put", "x", "b-x-2"),
        cluster.invoke("a", "get", "x"),
        cluster.invoke("b", "get", "y"),
    ]
    cluster.run_until_done(more, max_time=800.0, require_completion=True)
    assert more[2].result == "b-y-1"

    # Project the history per key onto register operations and check each.
    for key in ("x", "y"):
        records = []
        for handle in cluster.handles:
            if handle.kind == "put" and handle.argument[0] == key:
                records.append(
                    OperationRecord(
                        handle.process_id,
                        "write",
                        handle.argument[1],
                        handle.result,
                        handle.invoked_at,
                        handle.completed_at,
                        op_id=handle.op_id,
                    )
                )
            elif handle.kind == "get" and handle.argument == key:
                records.append(
                    OperationRecord(
                        handle.process_id,
                        "read",
                        None,
                        handle.result,
                        handle.invoked_at,
                        handle.completed_at,
                        op_id=handle.op_id,
                    )
                )
        outcome = check_register_linearizability(History(records), initial_value=None)
        assert bool(outcome), "key {} history not linearizable".format(key)


def test_concurrent_puts_to_same_key_one_wins(figure1_gqs):
    cluster = make_cluster(figure1_gqs, seed=5)
    puts = [
        cluster.invoke("a", "put", "shared", "from-a"),
        cluster.invoke("c", "put", "shared", "from-c"),
    ]
    cluster.run_until_done(puts, max_time=400.0, require_completion=True)
    get = cluster.invoke("b", "get", "shared")
    cluster.run_until_done([get], max_time=400.0, require_completion=True)
    assert get.result in ("from-a", "from-c")
