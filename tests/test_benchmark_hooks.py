"""The benchmark under perfbench/ patches and reads program attributes by
name; a rename that would stop it fails here first.  Of the benchmark's
code, only module imports and run.machine_facts() execute here."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    tracing = _import("tracing")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.TARGETS if not hasattr(owner, attr)]
    assert missing == []


def test_machine_facts_returns():
    facts = _import("run").machine_facts()
    assert facts["src_lines"] > 0
