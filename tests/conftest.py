"""Shared fixtures: table builders and seeded random generators."""

from __future__ import annotations

import contextlib
import importlib.util
import signal
from pathlib import Path

import numpy as np
import pytest

from coda_atlas import Entity, Part, validate_table

ROLE_CYCLE = ("financial", "environmental", "social")


def make_table(values, ids=None, sectors=None, part_names=None, units=None):
    """Build a validated table around a raw value matrix with stub metadata."""
    values = np.asarray(values, dtype=float)
    n, D = values.shape
    if ids is None:
        ids = [f"e{r:02d}" for r in range(n)]
    if sectors is None:
        sectors = ["101X"] * n
    if part_names is None:
        part_names = [f"part_{d}" for d in range(D)]
    if units is None:
        units = ["unitless"] * D
    parts = [
        Part(index=d, name=part_names[d], unit=units[d], role=ROLE_CYCLE[d % 3])
        for d in range(D)
    ]
    entities = [
        Entity(id=ids[r], label=f"Entity {ids[r]}", sector_code=sectors[r])
        for r in range(n)
    ]
    return validate_table(values, parts, entities)


def random_table(rng: np.random.Generator, n: int, D: int):
    """Random positive table with log-uniform values over [1e-3, 1e6]."""
    logs = rng.uniform(np.log(1e-3), np.log(1e6), size=(n, D))
    return make_table(np.exp(logs))


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def perfbench_table_csv(n: int, D: int, seed: int) -> str:
    """The benchmark's seeded synthetic table (perfbench/inputs.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.table_csv(n, D, seed)


def fail_nth_open(monkeypatch, module, n: int) -> None:
    """Make the n-th ``open`` call in ``module`` fail as a full disk would."""
    calls = []

    def failing_open(path, *args, **kwargs):
        calls.append(path)
        if len(calls) == n:
            raise OSError(28, "No space left on device", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(module, "open", failing_open, raising=False)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
