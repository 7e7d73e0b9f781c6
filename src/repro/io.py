"""Persistence: datasets, groupings and fingerprints on disk.

A platform accumulates campaigns; experiments want them re-loadable.
This module provides simple, dependency-free formats:

* **CSV** for observations (``account_id,task_id,value,timestamp`` with a
  header) — interoperable with spreadsheets and pandas;
* **JSON** for whole datasets (tasks with locations + observations) and
  for groupings (a list of account lists);
* **NPZ** (numpy archive) for fingerprint captures, whose payload is four
  float arrays per account.

Every ``save_*`` has a matching ``load_*`` and round-trips exactly (up to
float formatting in CSV, which uses ``repr`` and is lossless).
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.core.dataset import SensingDataset
from repro.core.types import Grouping, Observation, Task
from repro.errors import DataValidationError
from repro.sensors.fingerprint import FingerprintCapture

PathLike = Union[str, pathlib.Path]

_CSV_HEADER = ["account_id", "task_id", "value", "timestamp"]


# ----------------------------------------------------------------------
# Observations as CSV
# ----------------------------------------------------------------------


def save_observations_csv(dataset: SensingDataset, path: PathLike) -> None:
    """Write all observations as a four-column CSV with a header row.

    Task metadata (locations, descriptions) is *not* stored in CSV; use
    the JSON format to preserve it.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        for account in dataset.accounts:
            for obs in dataset.observations_for_account(account):
                writer.writerow(
                    [obs.account_id, obs.task_id, repr(obs.value), repr(obs.timestamp)]
                )


def load_observations_csv(path: PathLike) -> SensingDataset:
    """Read a CSV written by :func:`save_observations_csv`.

    The task universe is inferred from the observations (tasks appear
    with no location).  The four columns go straight to
    :meth:`SensingDataset.from_arrays`; a malformed line raises
    :class:`DataValidationError` naming its line number.
    """
    accounts: List[str] = []
    task_ids: List[str] = []
    values: List[float] = []
    timestamps: List[float] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise DataValidationError(
                f"unexpected CSV header {header!r}; expected {_CSV_HEADER!r}"
            )
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataValidationError(
                    f"line {line_number}: expected 4 fields, got {len(row)}"
                )
            account, task, value, timestamp = row
            try:
                number, time = float(value), float(timestamp)
            except ValueError as exc:
                raise DataValidationError(f"line {line_number}: {exc}") from exc
            if time < 0:
                raise DataValidationError(
                    f"line {line_number}: timestamp must be non-negative, got {time}"
                )
            accounts.append(account)
            task_ids.append(task)
            values.append(number)
            timestamps.append(time)
    tasks = [Task(task_id=tid) for tid in sorted(set(task_ids))]
    return SensingDataset.from_arrays(tasks, accounts, task_ids, values, timestamps)


# ----------------------------------------------------------------------
# Datasets as JSON (with task metadata)
# ----------------------------------------------------------------------


def save_dataset_json(dataset: SensingDataset, path: PathLike) -> None:
    """Write the full dataset — tasks with metadata plus observations."""
    payload = {
        "format": "repro.dataset",
        "version": 1,
        "tasks": [
            {
                "task_id": tid,
                "location": list(dataset.task(tid).location)
                if dataset.task(tid).location is not None
                else None,
                "description": dataset.task(tid).description,
            }
            for tid in dataset.tasks
        ],
        "observations": [
            {
                "account_id": obs.account_id,
                "task_id": obs.task_id,
                "value": obs.value,
                "timestamp": obs.timestamp,
            }
            for account in dataset.accounts
            for obs in dataset.observations_for_account(account)
        ],
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2))


def _json_payload(path: PathLike, kind: str, lists: Sequence[str]) -> Dict:
    """The top-level object of a ``repro.<kind>`` JSON file.

    Raises :class:`DataValidationError` unless it is an object of that
    format whose ``lists`` keys each hold a JSON list.
    """
    payload = json.loads(pathlib.Path(path).read_text())
    if not isinstance(payload, dict):
        raise DataValidationError(
            f"not a repro {kind} file: expected an object, got {type(payload).__name__}"
        )
    if payload.get("format") != f"repro.{kind}":
        raise DataValidationError(
            f"not a repro {kind} file: format={payload.get('format')!r}"
        )
    for key in lists:
        if key not in payload:
            raise DataValidationError(f"repro {kind} file: missing {key!r}")
        if not isinstance(payload[key], list):
            raise DataValidationError(
                f"repro {kind} file: {key!r} must be a list, got {payload[key]!r}"
            )
    return payload


def load_dataset_json(path: PathLike) -> SensingDataset:
    """Read a dataset written by :func:`save_dataset_json`."""
    payload = _json_payload(path, "dataset", ("tasks", "observations"))
    tasks = [_task_entry(k, entry) for k, entry in enumerate(payload["tasks"])]
    observations = [
        _observation_entry(k, entry) for k, entry in enumerate(payload["observations"])
    ]
    return SensingDataset(tasks, observations)


def _task_entry(k: int, entry: Dict) -> Task:
    """Task ``k`` of a dataset file; only its ``task_id`` is required."""
    if not isinstance(entry, dict):
        raise DataValidationError(f"task {k}: expected an object, got {entry!r}")
    if "task_id" not in entry:
        raise DataValidationError(f"task {k}: missing 'task_id'")
    return Task(
        task_id=entry["task_id"],
        location=tuple(entry["location"]) if entry.get("location") else None,
        description=entry.get("description", ""),
    )


def _observation_entry(k: int, entry: Dict) -> Observation:
    """Observation ``k`` of a dataset file; its value and timestamp must be
    JSON numbers."""
    if not isinstance(entry, dict):
        raise DataValidationError(f"observation {k}: expected an object, got {entry!r}")
    try:
        fields = [entry[name] for name in ("account_id", "task_id", "value", "timestamp")]
    except KeyError as exc:
        raise DataValidationError(f"observation {k}: missing {exc}") from None
    for name, number in zip(("value", "timestamp"), fields[2:]):
        if isinstance(number, bool) or not isinstance(number, (int, float)):
            raise DataValidationError(
                f"observation {k}: {name} must be a number, got {number!r}"
            )
    try:
        return Observation(*fields[:2], float(fields[2]), float(fields[3]))
    except ValueError as exc:
        raise DataValidationError(f"observation {k}: {exc}") from exc


# ----------------------------------------------------------------------
# Groupings as JSON
# ----------------------------------------------------------------------


def save_grouping_json(grouping: Grouping, path: PathLike) -> None:
    """Write a grouping as ``{"groups": [[...], ...]}``."""
    payload = {
        "format": "repro.grouping",
        "version": 1,
        "groups": [sorted(group) for group in grouping.groups],
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2))


def load_grouping_json(path: PathLike) -> Grouping:
    """Read a grouping written by :func:`save_grouping_json`."""
    return Grouping.from_groups(_json_payload(path, "grouping", ("groups",))["groups"])


# ----------------------------------------------------------------------
# Fingerprint captures as NPZ
# ----------------------------------------------------------------------


def save_fingerprints_npz(
    captures: Sequence[FingerprintCapture], path: PathLike
) -> None:
    """Write captures to one numpy archive.

    Layout: per capture index ``k``, arrays ``k/accel_magnitude``,
    ``k/gyro_x``, ``k/gyro_y``, ``k/gyro_z``, plus string metadata arrays
    ``account_ids``, ``device_ids`` and a float ``sample_rates``.
    """
    arrays: Dict[str, np.ndarray] = {
        "account_ids": np.array([c.account_id for c in captures]),
        "device_ids": np.array([c.device_id for c in captures]),
        "sample_rates": np.array([c.sample_rate for c in captures]),
    }
    for index, capture in enumerate(captures):
        for name, stream in capture.streams.items():
            arrays[f"{index}/{name}"] = np.asarray(stream, dtype=float)
    np.savez_compressed(path, **arrays)


def load_fingerprints_npz(path: PathLike) -> List[FingerprintCapture]:
    """Read captures written by :func:`save_fingerprints_npz`."""
    with np.load(path, allow_pickle=False) as archive:
        try:
            account_ids = archive["account_ids"]
            device_ids = archive["device_ids"]
            sample_rates = archive["sample_rates"]
        except KeyError as exc:
            raise DataValidationError(
                f"not a repro fingerprint archive: missing {exc}"
            ) from exc
        captures = []
        for index in range(len(account_ids)):
            streams = {
                name: archive[f"{index}/{name}"]
                for name in ("accel_magnitude", "gyro_x", "gyro_y", "gyro_z")
            }
            captures.append(
                FingerprintCapture(
                    account_id=str(account_ids[index]),
                    streams=streams,
                    sample_rate=float(sample_rates[index]),
                    device_id=str(device_ids[index]),
                )
            )
    return captures
