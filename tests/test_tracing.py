"""The benchmark's tracer still installs on the package and comes off
clean.  ``bench/tracing.py`` patches module attributes and methods by name;
a name it reads as a plain attribute that the package no longer defines
makes `Tracer.install` raise, which would break every traced benchmark
run.  This reads ``bench/`` and changes nothing there."""

import importlib.util
from pathlib import Path

import opweb.cli as cli
import opweb.couple as couple
import opweb.explore as explore
import opweb.metrics as metrics
import opweb.oracle as oracle
import opweb.regen as regen
import opweb.runner as runner

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

MODULES = (cli, couple, explore, metrics, oracle, regen, runner)


def _owners():
    """Every owner whose attributes `Tracer.install` may replace: the
    modules it imports and the classes they define."""
    classes = [value for module in MODULES for value in vars(module).values()
               if isinstance(value, type)
               and value.__module__ == module.__name__]
    return (*MODULES, *classes)


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_attribute():
    owners = _owners()
    before = [dict(vars(owner)) for owner in owners]
    tracer = _tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert patched, "the tracer patched nothing"
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.remove()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
    after = [dict(vars(owner)) for owner in owners]
    for owner, old, new in zip(owners, before, after):
        assert old.keys() == new.keys(), owner
        assert all(new[k] is v for k, v in old.items()), owner
