"""Outputs do not depend on which float sum() the Python version has.

Python 3.12 made sum() of floats compensated (Neumaier's algorithm), so
it can differ from 3.10 and 3.11's plain left-to-right sum in the last
bits. The solvers, the evaluation and their oracles sum with
policy.left_sum instead. These tests swap builtins.sum for an emulation
of the compensated sum and check that the pinned outputs hold.
"""

import builtins
import dataclasses
import hashlib
import json
import math

import pytest

from cardtable.agents import RandomAgent, cfr_train
from cardtable.env import EnvConfig
from cardtable.evaluation import exploitability, tournament

import test_cfr_sweep
import test_evaluation_sweep
from test_trees import CFR_100_EXPLOITABILITY_REPR, CFR_DUMPS_SHA256


def compensated_sum(iterable, /, start=0):
    """sum() as CPython 3.12 and 3.13 compute it: floats added with Neumaier's compensation."""
    items = iter(iterable)
    total = start
    if type(total) is int:  # exact while the items are ints, like the interpreter's int loop
        for x in items:
            total = total + x
            if type(x) is not int:
                break
    if type(total) is float:
        c = 0.0
        for x in items:
            if type(x) is float:
                t = total + x
                c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            elif type(x) is int:
                total += x
            else:  # leave the float loop with the compensation applied
                total = (total + c if c and math.isfinite(c) else total) + x
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for x in items:
        total = total + x
    return total


@pytest.fixture
def compensated(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([1e16, 1.0, -1e16]) == 1.0  # the swap is live


def test_cfr_pins_hold(compensated):
    for iterations, digest in CFR_DUMPS_SHA256.items():
        assert hashlib.sha256(cfr_train("leduc", iterations).dumps().encode()).hexdigest() == digest
    assert repr(exploitability("leduc", cfr_train("leduc", 100)).exploitability) == CFR_100_EXPLOITABILITY_REPR


def test_cfr_sweep_equals_the_walk_on_leduc(compensated):
    test_cfr_sweep.test_sweep_is_bit_equal_to_the_walk("leduc")


def test_best_responses_equal_the_walk(compensated):
    leduc = test_evaluation_sweep.leduc_policies()
    test_evaluation_sweep.test_leduc_best_responses_are_bit_equal_to_the_walk(leduc)
    test_evaluation_sweep.test_leduc_exploitability_reads_the_walk_values(leduc)
    test_evaluation_sweep.test_small_trees_are_bit_equal_to_the_walk("rounding")
    test_evaluation_sweep.test_a_set_at_two_depths_scores_its_nodes_in_preorder_not_level_order()


def test_tournament_summary_is_the_same_under_both_sums(monkeypatch):
    def summary():
        result = tournament(EnvConfig("leduc", seed=7), [RandomAgent(), RandomAgent()], 2000)
        return json.dumps(dataclasses.asdict(result), sort_keys=True)

    plain = summary()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert summary() == plain
