"""Bundled algebra definitions and definition-file resolution.

An algebra reference is resolved in this order: a bundled preset name
("svir", "witt", or the alias "virasoro-sector"), then "<name>.lie" in each
directory on the LIEEXT_PRESET_PATH environment variable (colon separated),
then the reference taken as a literal file path.
"""

from __future__ import annotations

import os
from importlib import resources

from . import dsl
from .algebra import AlgebraSpec

PRESET_FILES = {
    "svir": "svir.lie",
    "witt": "witt.lie",
    "virasoro-sector": "witt.lie",
}

PRESET_PATH_ENV = "LIEEXT_PRESET_PATH"

_cache: dict = {}


def preset_source(name: str) -> str:
    try:
        filename = PRESET_FILES[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r} (available: {', '.join(sorted(PRESET_FILES))})"
        ) from None
    return resources.files(__package__).joinpath("presets", filename).read_text()


def _parse_or_fail(source: str, origin: str) -> AlgebraSpec:
    result = dsl.parse(source)
    if result.spec is None:
        first = result.errors()[0]
        raise ValueError(f"cannot parse algebra from {origin}: {first}")
    return result.spec


def is_svir(spec: AlgebraSpec) -> bool:
    """Whether spec has the bundled svir's bracket table, whatever its name
    and declared classes: the mu = 0 refusal and the prediction follow it."""
    return spec._table() == load_algebra("svir")._table()


def load_algebra(ref: str) -> AlgebraSpec:
    """Resolve a preset name or a .lie file path to a parsed spec."""
    if ref in PRESET_FILES:
        if ref not in _cache:
            _cache[ref] = _parse_or_fail(preset_source(ref), f"preset {ref!r}")
        return _cache[ref]
    search = os.environ.get(PRESET_PATH_ENV, "")
    for directory in filter(None, search.split(":")):
        candidate = os.path.join(directory, ref + ".lie")
        if os.path.isfile(candidate):
            with open(candidate) as handle:
                return _parse_or_fail(handle.read(), candidate)
    if os.path.isfile(ref):
        with open(ref) as handle:
            return _parse_or_fail(handle.read(), ref)
    raise ValueError(
        f"cannot resolve algebra {ref!r}: not a preset name, not on "
        f"{PRESET_PATH_ENV}, and not a file"
    )
