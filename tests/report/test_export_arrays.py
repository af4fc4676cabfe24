"""Array fast paths of the export layer stay byte-identical.

* ``_deep_jsonable`` sends finite numeric arrays straight through
  ``tolist()``; its output must equal the per-element walk it replaced,
  non-finite values (``null``), ints and bools included.
* ``paper._f`` casts to float64, so int input still serialises as
  ``1.0``.
* Re-recording a spilled dataset with unchanged values keeps its store
  entry: an unchanged campaign rerun appends nothing to the store.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import Campaign, Experiment, Factor, FactorialDesign
from repro.core.measurement import MeasurementSet
from repro.report.export import (
    _deep_jsonable,
    dataset_fingerprint,
    measurements_from_json,
    measurements_to_json,
)
from repro.report.paper import _f
from repro.store import ShardStore


def _per_element(value):
    """Reference: the element-by-element conversion of every value."""
    if isinstance(value, Mapping):
        return {str(k): _per_element(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_per_element(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if math.isfinite(f) else None
    if isinstance(value, np.ndarray):
        return _per_element(value.tolist())
    return value


_arrays = st.one_of(
    hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.float16]),
        hnp.array_shapes(min_dims=0, max_dims=2, max_side=4),
        elements={"allow_nan": True, "allow_infinity": True},
    ),
    hnp.arrays(
        st.sampled_from([np.int64, np.int8, np.uint64, np.bool_]),
        hnp.array_shapes(min_dims=0, max_dims=2, max_side=4),
    ),
)
_leaves = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    _arrays,
)
_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers()), inner,
                        max_size=4),
    ),
    max_leaves=20,
)


class TestDeepJsonable:
    @settings(max_examples=300, deadline=None)
    @given(_trees)
    def test_equals_the_per_element_walk(self, tree):
        # Compared as JSON text: 1, 1.0 and true are equal in Python.
        assert json.dumps(_deep_jsonable(tree), allow_nan=False) == json.dumps(
            _per_element(tree), allow_nan=False
        )

    def test_nonfinite_array_writes_null(self):
        arr = np.array([[1.0, np.nan], [-np.inf, 2.5]])
        assert _deep_jsonable({"a": arr}) == {"a": [[1.0, None], [None, 2.5]]}

    def test_registry_values_are_floats(self):
        assert json.dumps(_f([1, 2])) == "[1.0, 2.0]"
        assert json.dumps(_f(np.array([[3]], dtype=np.int32))) == "[3.0]"
        assert _f(np.float32(0.1)) == [float(np.float32(0.1))]


def spill_measure(point, rep, rng):
    return rng.lognormal(size=200)


def _experiment(seed=5):
    return Experiment(
        name="rerun",
        design=FactorialDesign((Factor("n", (1, 2, 3)),), replications=2),
        measure=spill_measure,
        seed=seed,
    )


def _store_bytes(path):
    return {p.name: p.read_bytes() for p in sorted((path / "store").iterdir())}


class TestUnchangedRerecord:
    def test_campaign_rerun_leaves_the_store_alone(self, tmp_path):
        camp = Campaign.create(tmp_path / "camp", name="rerun")
        camp.run(_experiment(), spill_rows=100)
        before = _store_bytes(camp.path)
        assert "manifest.json" in before
        for _ in range(2):
            camp.run(_experiment(), overwrite=True, spill_rows=100)
            assert _store_bytes(camp.path) == before
        for name in camp.names():
            assert camp.load(name).n == 400

    def test_changed_values_are_replaced(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        ms = MeasurementSet(values=np.full(50, 1.0), unit="s", name="d")
        measurements_to_json(ms, store=store, spill_rows=10, namespace="ns")
        fp = dataset_fingerprint("d", namespace="ns")
        old_digest = store.entry_digest(fp)
        changed = MeasurementSet(values=np.full(50, 2.0), unit="s", name="d")
        text = measurements_to_json(changed, store=store, spill_rows=10, namespace="ns")
        assert store.entry_digest(fp) != old_digest
        assert len(store) == 1
        back = measurements_from_json(text, store=store)
        assert np.array_equal(back.values, changed.values)
        # Same digest prefix, other length: replaced too.
        longer = MeasurementSet(values=np.full(60, 2.0), unit="s", name="d")
        measurements_to_json(longer, store=store, spill_rows=10, namespace="ns")
        assert store.rows(fp) == 60

    def test_unchanged_values_keep_the_entry(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        ms = MeasurementSet(values=np.linspace(1.0, 2.0, 50), unit="s", name="d")
        first = measurements_to_json(ms, store=store, spill_rows=10, namespace="ns")
        manifest = (tmp_path / "store" / "manifest.json").read_bytes()
        again = measurements_to_json(ms, store=store, spill_rows=10, namespace="ns")
        assert again == first
        assert (tmp_path / "store" / "manifest.json").read_bytes() == manifest

    def test_legacy_key_is_migrated_even_when_unchanged(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        ms = MeasurementSet(values=np.full(50, 3.0), unit="s", name="mig")
        measurements_to_json(ms, store=store, spill_rows=10, namespace=None)
        legacy = dataset_fingerprint("mig")
        assert legacy in store
        text = measurements_to_json(ms, store=store, spill_rows=10, namespace="ns1")
        assert legacy not in store
        assert dataset_fingerprint("mig", namespace="ns1") in store
        back = measurements_from_json(text, store=store)
        assert np.array_equal(back.values, ms.values)
