"""The value-type rule: an immutable value is a `typing.NamedTuple`, which
costs about a tenth of a frozen dataclass to build at import. A class stays a
dataclass only for a reason listed here."""

import dataclasses
import importlib
import pkgutil

import gridledger

DATACLASSES = {
    "chain.Record": "caches its digest on the frozen instance",
    "chain.Block": "caches its digest on the frozen instance",
    "chain.Chain": "its len is its block count, and the tracer wraps Chain.append",
    "simnet.SimConfig": "the CLI parser reads its defaults at class level; __post_init__",
    "simnet.Scenario": "mutated: parse_scenario appends to its lists",
    "simnet._Node": "mutated: crash, byzantine, tamper and replica state",
    "simnet.SimReport": "the tracer wraps its render methods; holds mutable tables",
    "datastore.StorageUnit": "mutated: alive flag and object map",
}


def test_every_dataclass_has_a_reason():
    found = set()
    for info in pkgutil.iter_modules(gridledger.__path__):
        module = importlib.import_module(f"gridledger.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value):
                found.add(f"{info.name}.{name}")
    assert found == set(DATACLASSES)
