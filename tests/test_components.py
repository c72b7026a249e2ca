"""The component-spec contract: registry round-trips and loud failures.

The arena's byte-identity promise rests on one property: ``from_spec(
spec(x))`` rebuilds a component whose behaviour is *byte-identical* to
``x``'s — defenses transform the same records to the same bytes,
classifiers fit on the same data predict the same labels.  These tests
pin that property over seeded random parameter draws, plus the loud-
failure half of the contract: malformed specs and unknown names/params/
types must fail naming the offending piece.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.components import COMPONENT_SCHEMA_VERSION, component_instance_name
from repro.core.features import ClientRecord
from repro.defenses import (
    DEFENSE_REGISTRY,
    build_defense,
    defense_from_spec,
    defense_spec,
)
from repro.exceptions import ComponentError
from repro.ml import (
    CLASSIFIER_REGISTRY,
    build_classifier,
    classifier_from_spec,
    classifier_spec,
)

#: Per-registry parameter generators for the seeded round-trip sweeps.
DEFENSE_PARAM_DRAWS = {
    "pad-to-multiple": lambda rng: {"block_bytes": rng.choice([16, 64, 256, 512])},
    "pad-to-constant": lambda rng: {"target_bytes": rng.choice([2048, 4096, 8192])},
    "split-records": lambda rng: {"parts": rng.randint(2, 5)},
    "compress-state-reports": lambda rng: {},
}
CLASSIFIER_PARAM_DRAWS = {
    "interval": lambda rng: {"margin": rng.choice([0.0, 4.0, 8.0, 16.0])},
    "knn": lambda rng: {"k": rng.choice([1, 3, 5, 7])},
    "naive-bayes": lambda rng: {},
    "tree": lambda rng: {"max_depth": rng.randint(2, 8)},
    "logistic": lambda rng: {"iterations": rng.choice([50, 100]), "learning_rate": 0.1},
}


def _random_records(rng: random.Random, count: int = 12) -> list[ClientRecord]:
    return [
        ClientRecord(
            timestamp=round(index * 0.25 + rng.random(), 3),
            wire_length=rng.randint(64, 4096),
            content_type=23,
            label="type1" if rng.random() < 0.5 else "type2",
        )
        for index in range(count)
    ]


def _record_bytes(records: list[ClientRecord]) -> list[tuple]:
    return [
        (record.timestamp, record.wire_length, record.content_type, record.label)
        for record in records
    ]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(DEFENSE_PARAM_DRAWS))
def test_defense_spec_round_trip_transforms_byte_identically(name, seed):
    rng = random.Random(seed)
    params = DEFENSE_PARAM_DRAWS[name](rng)
    original = build_defense(name, params)
    rebuilt = defense_from_spec(defense_spec(original))
    assert defense_spec(rebuilt) == defense_spec(original)
    records = _random_records(random.Random(seed + 100))
    assert _record_bytes(original.transform(records)) == _record_bytes(
        rebuilt.transform(records)
    )


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(CLASSIFIER_PARAM_DRAWS))
def test_classifier_spec_round_trip_predicts_identically(name, seed):
    rng = random.Random(seed)
    params = CLASSIFIER_PARAM_DRAWS[name](rng)
    original = build_classifier(name, params)
    rebuilt = classifier_from_spec(classifier_spec(original))
    assert classifier_spec(rebuilt) == classifier_spec(original)
    data_rng = np.random.default_rng(seed)
    features = data_rng.normal(size=(30, 2))
    labels = np.where(features[:, 0] + features[:, 1] > 0, "type1", "type2")
    held_out = data_rng.normal(size=(10, 2))
    if name == "interval":
        # The interval classifier bands a single scalar feature.
        features = features[:, :1]
        held_out = held_out[:, :1]
        labels = np.where(features[:, 0] > 0, "type1", "type2")
    predictions = original.fit(features, labels).predict(held_out)
    repredictions = rebuilt.fit(features, labels).predict(held_out)
    assert list(predictions) == list(repredictions)


def test_specs_are_canonical_sorted_and_schema_stamped():
    spec = defense_spec(build_defense("pad-to-multiple", {"block_bytes": 64}))
    assert list(spec) == sorted(spec)
    assert spec == {
        "component": "defense",
        "name": "pad-to-multiple",
        "params": {"block_bytes": 64},
        "schema": COMPONENT_SCHEMA_VERSION,
    }
    assert component_instance_name(spec) == "pad-to-multiple(block_bytes=64)"
    bare = classifier_spec(build_classifier("naive-bayes", {}))
    assert bare["params"] == {}
    assert component_instance_name(bare) == "naive-bayes"


def test_unknown_component_name_fails_listing_the_registered_names():
    with pytest.raises(ComponentError, match="unknown defense 'bogus'"):
        build_defense("bogus", {})
    with pytest.raises(ComponentError, match="registered classifiers"):
        build_classifier("bogus", {})


def test_unknown_param_fails_naming_it():
    with pytest.raises(
        ComponentError, match=r"unknown param\(s\) \['blocc_bytes'\]"
    ):
        build_defense("pad-to-multiple", {"blocc_bytes": 64})


def test_wrongly_typed_param_fails_naming_param_and_expectation():
    with pytest.raises(
        ComponentError, match="param 'block_bytes' must be int"
    ):
        build_defense("pad-to-multiple", {"block_bytes": "sixty-four"})
    # bool is not an int here, by design: True is never a block size.
    with pytest.raises(ComponentError, match="'block_bytes' must be int"):
        build_defense("pad-to-multiple", {"block_bytes": True})


@pytest.mark.parametrize(
    "mutation, field",
    [
        ({"schema": 99}, "schema"),
        ({"component": "classifier"}, "component"),
        ({"params": "not-a-dict"}, "params"),
    ],
)
def test_malformed_spec_fails_naming_the_offending_field(mutation, field):
    spec = dict(defense_spec(build_defense("split-records", {"parts": 3})))
    spec.update(mutation)
    with pytest.raises(ComponentError, match=field):
        defense_from_spec(spec)


def test_spec_with_unknown_or_missing_fields_fails_by_name():
    spec = dict(defense_spec(build_defense("compress-state-reports", {})))
    spec["extra"] = 1
    with pytest.raises(ComponentError, match="extra"):
        defense_from_spec(spec)
    spec = dict(defense_spec(build_defense("compress-state-reports", {})))
    del spec["name"]
    with pytest.raises(ComponentError, match="name"):
        defense_from_spec(spec)


def test_spec_of_a_directly_constructed_instance_is_refused():
    from repro.defenses import PadToMultiple

    with pytest.raises(ComponentError, match="was not built by the defense"):
        DEFENSE_REGISTRY.spec(PadToMultiple(block_bytes=64))


def test_cross_registry_spec_is_refused():
    spec = classifier_spec(build_classifier("knn", {"k": 3}))
    with pytest.raises(ComponentError, match="'classifier'"):
        defense_from_spec(spec)


def test_registry_names_are_sorted_and_stable():
    assert list(DEFENSE_REGISTRY.names()) == sorted(DEFENSE_REGISTRY.names())
    assert list(CLASSIFIER_REGISTRY.names()) == sorted(
        CLASSIFIER_REGISTRY.names()
    )
    assert CLASSIFIER_REGISTRY.names() == (
        "interval",
        "knn",
        "logistic",
        "naive-bayes",
        "tree",
    )


def test_registry_built_defense_gets_param_bearing_instance_name():
    defense = build_defense("pad-to-constant", {"target_bytes": 4096})
    assert defense.instance_name == "pad-to-constant(target_bytes=4096)"
