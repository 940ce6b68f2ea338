"""Smoke tests: every example script runs end to end.

Each example is imported as a module and its ``main`` driven at reduced
size where the script supports it, so the documented entry points stay
executable as the library evolves.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_complete():
    names = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
    assert {
        "quickstart",
        "pca_lowrank",
        "spectral_partition",
        "performance_exploration",
    } <= names


def test_quickstart_runs(capsys):
    mod = _load("quickstart")
    mod.main(96)
    out = capsys.readouterr().out
    assert "fp16_tc" in out and "fp64" in out


def test_pca_lowrank_runs(capsys, monkeypatch):
    mod = _load("pca_lowrank")
    monkeypatch.setattr(mod, "N_SAMPLES", 300)
    monkeypatch.setattr(mod, "N_FEATURES", 64)
    mod.main()
    out = capsys.readouterr().out
    assert "reconstruction error" in out


def test_spectral_partition_runs(capsys, monkeypatch):
    mod = _load("spectral_partition")
    monkeypatch.setattr(mod, "N_PER_SIDE", 32)
    mod.main()
    out = capsys.readouterr().out
    assert "partition accuracy" in out


def test_performance_exploration_runs(capsys):
    mod = _load("performance_exploration")
    mod.main()
    out = capsys.readouterr().out
    assert "crossover" in out and "syr2k" in out

