"""Every settings record's fields and defaults, pinned.

``data/settings_surface.json`` records, for each dataclass in ``repro``
whose name ends in ``Config``, ``Settings``, ``Params`` or ``Plan``
(plus ``PhyTiming``), each field's name and its default in JSON form,
``"<required>"`` for a field without one.  Every field is a knob that
tests and benchmarks must cover, so a new, removed or re-defaulted one
must be a deliberate edit of that table, as ``cli/data/flag_surface.json``
is for CLI flags.
"""

import dataclasses
import importlib
import json
import pathlib
import pkgutil

import pytest

import repro
from repro.obs.jsonutil import to_jsonable

#: the table's entry for a field without a default
REQUIRED = "<required>"

TABLE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "settings_surface.json").read_text()
)

SUFFIXES = ("Config", "Settings", "Params", "Plan")


def _settings_classes() -> dict[str, type]:
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and dataclasses.is_dataclass(obj)
                and (name.endswith(SUFFIXES) or name == "PhyTiming")
            ):
                found[f"{module.__name__}.{name}"] = obj
    return found


def _surface(cls: type) -> dict:
    out = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = to_jsonable(f.default)
        elif f.default_factory is not dataclasses.MISSING:
            out[f.name] = to_jsonable(f.default_factory())
        else:
            out[f.name] = REQUIRED
    # JSON round trip, so tuples and lists compare alike
    return json.loads(json.dumps(out))


CLASSES = _settings_classes()


def test_settings_class_set_is_unchanged():
    assert sorted(CLASSES) == sorted(TABLE)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_settings_surface_is_unchanged(name):
    assert _surface(CLASSES[name]) == TABLE[name]
