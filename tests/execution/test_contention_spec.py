"""ContentionSpec is immutable and builds its slowdown table once."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.costmodel.interference import CHANNELS
from repro.execution import ContentionSpec, corun_total_time


def test_fields_cannot_be_assigned():
    spec = ContentionSpec.default(pcie_only=True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.max_factor = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.pair_factors = {}


def test_pair_factors_are_read_only():
    spec = ContentionSpec.default(pcie_only=False)
    pair = frozenset(CHANNELS[:2])
    with pytest.raises(TypeError):
        spec.pair_factors[pair] = {}
    with pytest.raises(TypeError):
        spec.pair_factors[pair][CHANNELS[0]] = 9.0
    with pytest.raises(ValueError):
        spec.slowdown_table[3, 0] = 9.0


def test_spec_does_not_alias_the_caller_dict():
    factors = {frozenset(CHANNELS[:2]): {CHANNELS[0]: 2.0, CHANNELS[1]: 2.0}}
    spec = ContentionSpec(pair_factors=factors)
    factors[frozenset(CHANNELS[:2])][CHANNELS[0]] = 1.0
    assert spec.slowdown(CHANNELS[0], frozenset(CHANNELS[:2])) == 2.0


def test_constructors_still_work():
    empty = ContentionSpec(pair_factors={})
    np.testing.assert_array_equal(empty.slowdown_table, np.ones((16, 4)))
    assert corun_total_time([3.0, 2.0, 1.0, 0.5], empty) == 3.0
    for pcie_only in (True, False):
        spec = ContentionSpec.default(pcie_only=pcie_only)
        assert spec == ContentionSpec.default(pcie_only=pcie_only)
        assert spec.slowdown_table.shape == (16, 4)


def test_table_matches_slowdown():
    spec = ContentionSpec.default(pcie_only=True)
    for mask in range(16):
        active = frozenset(c for i, c in enumerate(CHANNELS) if mask >> i & 1)
        for i, channel in enumerate(CHANNELS):
            expected = spec.slowdown(channel, active) if channel in active \
                else 1.0
            assert spec.slowdown_table[mask, i] == expected


def test_table_does_not_depend_on_the_hash_seed():
    """Set iteration order follows PYTHONHASHSEED; the table must not."""
    script = ("import sys; from repro.execution import ContentionSpec; "
              "sys.stdout.write(ContentionSpec.default(pcie_only=True)"
              ".slowdown_table.tobytes().hex() + ContentionSpec.default("
              "pcie_only=False).slowdown_table.tobytes().hex())")
    src = Path(__file__).resolve().parents[2] / "src"
    tables = {
        subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": str(seed),
                 "PYTHONPATH": str(src)},
        ).stdout
        for seed in range(4)
    }
    assert len(tables) == 1
