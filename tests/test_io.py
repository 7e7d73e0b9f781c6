"""Persistence tests: CSV/JSON/NPZ round-trips."""

import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.dataset import SensingDataset
from repro.core.types import Grouping, Observation, Task
from repro.errors import DataValidationError
from repro.io import (
    load_dataset_json,
    load_fingerprints_npz,
    load_grouping_json,
    load_observations_csv,
    save_dataset_json,
    save_fingerprints_npz,
    save_grouping_json,
    save_observations_csv,
)
from tests.core.test_dataset_oracle import assert_same_views, campaigns


class TestCSV:
    def test_roundtrip(self, paper_dataset, tmp_path):
        path = tmp_path / "obs.csv"
        save_observations_csv(paper_dataset, path)
        loaded = load_observations_csv(path)
        assert loaded.accounts == paper_dataset.accounts
        assert len(loaded) == len(paper_dataset)
        for account in paper_dataset.accounts:
            for obs in paper_dataset.observations_for_account(account):
                assert loaded.value(account, obs.task_id) == obs.value
                assert loaded.timestamp(account, obs.task_id) == obs.timestamp

    def test_header_written(self, paper_dataset, tmp_path):
        path = tmp_path / "obs.csv"
        save_observations_csv(paper_dataset, path)
        first = path.read_text().splitlines()[0]
        assert first == "account_id,task_id,value,timestamp"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(DataValidationError, match="header"):
            load_observations_csv(path)

    def test_bad_row_width_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("account_id,task_id,value,timestamp\na,T1,1.0\n")
        with pytest.raises(DataValidationError, match="line 2"):
            load_observations_csv(path)


@given(campaigns(invalid=False))
@settings(max_examples=100, deadline=None)
def test_csv_roundtrip_equals_the_source_on_every_view(campaign):
    # CSV stores no unanswered tasks, so the source declares only claimed ones.
    _, claims = campaign
    tasks = [Task(t) for t in sorted({claim[1] for claim in claims})]
    source = SensingDataset(tasks, [Observation(*claim) for claim in claims])
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "obs.csv"
        save_observations_csv(source, path)
        loaded = load_observations_csv(path)
    assert_same_views(loaded, source, observation_built=False)


class TestDatasetJSON:
    def test_roundtrip_preserves_task_metadata(self, tmp_path, rng):
        from repro.simulation.world import make_wifi_world
        from repro.core.dataset import SensingDataset
        from repro.core.types import Observation

        world = make_wifi_world(4, rng)
        dataset = SensingDataset(
            world.tasks,
            [Observation("a", "T1", -70.0, 5.0), Observation("a", "T3", -80.0, 9.0)],
        )
        path = tmp_path / "ds.json"
        save_dataset_json(dataset, path)
        loaded = load_dataset_json(path)
        assert loaded.task("T2").location == world.task("T2").location
        assert loaded.task("T1").description == world.task("T1").description
        assert loaded.value("a", "T3") == -80.0

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataValidationError, match="not a repro dataset"):
            load_dataset_json(path)


class TestGroupingJSON:
    def test_roundtrip(self, tmp_path):
        grouping = Grouping.from_groups([["a", "b"], ["c"]])
        path = tmp_path / "g.json"
        save_grouping_json(grouping, path)
        assert load_grouping_json(path) == grouping

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "repro.dataset"}))
        with pytest.raises(DataValidationError, match="not a repro grouping"):
            load_grouping_json(path)


class TestFingerprintNPZ:
    def test_roundtrip(self, tmp_path, paper_scenario):
        captures = paper_scenario.fingerprints[:3]
        path = tmp_path / "fp.npz"
        save_fingerprints_npz(captures, path)
        loaded = load_fingerprints_npz(path)
        assert len(loaded) == 3
        for original, restored in zip(captures, loaded):
            assert restored.account_id == original.account_id
            assert restored.device_id == original.device_id
            assert restored.sample_rate == original.sample_rate
            for name, stream in original.streams.items():
                assert np.array_equal(restored.streams[name], stream)

    def test_loaded_captures_group_like_originals(self, tmp_path, paper_scenario):
        from repro.core.grouping import FingerprintGrouper

        path = tmp_path / "fp.npz"
        save_fingerprints_npz(paper_scenario.fingerprints, path)
        loaded = load_fingerprints_npz(path)
        original_grouping = FingerprintGrouper(n_devices=11).group(
            paper_scenario.dataset, paper_scenario.fingerprints
        )
        loaded_grouping = FingerprintGrouper(n_devices=11).group(
            paper_scenario.dataset, loaded
        )
        assert original_grouping == loaded_grouping

    def test_wrong_archive_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(DataValidationError, match="fingerprint archive"):
            load_fingerprints_npz(path)
