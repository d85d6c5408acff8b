"""Scenario text <-> spec: parse TOML/JSON text, dump specs back out.

This module is pure — it maps *text* to :class:`ScenarioSpec` and back.
Reading files off disk is host I/O and lives in
:mod:`repro.scenarios.cli` (the same split as ``repro.trace`` /
``repro.trace_cli``).

TOML is parsed by the standard library's :mod:`tomllib`, JSON by
:mod:`json`.

Every parse or validation error surfaces as a :class:`SpecError` whose
message is prefixed with the origin, e.g.::

    scenarios/fault_storm.toml: faults.crash_rate must be >= 0, got -0.2
"""

from __future__ import annotations

import json
import tomllib
from typing import Any, List

from .spec import ScenarioSpec, SpecError, spec_from_dict

__all__ = [
    "load_spec_text",
    "dump_spec_toml",
    "dump_spec_json",
    "detect_format",
]


def detect_format(origin: str) -> str:
    """``"json"`` for ``*.json`` origins, ``"toml"`` otherwise."""
    return "json" if origin.lower().endswith(".json") else "toml"


def load_spec_text(text: str, origin: str = "<spec>", fmt: str = None) -> ScenarioSpec:
    """Parse spec text into a validated :class:`ScenarioSpec`.

    ``origin`` (a file name or label) prefixes every error message;
    ``fmt`` is ``"toml"``/``"json"``, defaulting to the origin's
    extension (TOML when in doubt).
    """
    fmt = fmt if fmt is not None else detect_format(origin)
    if fmt not in ("toml", "json"):
        raise SpecError(origin, f"unknown spec format {fmt!r} (toml or json)")
    try:
        data = json.loads(text) if fmt == "json" else tomllib.loads(text)
    except Exception as exc:  # tomllib.TOMLDecodeError / json.JSONDecodeError
        raise SpecError(origin, f"unparseable {fmt}: {exc}") from exc
    try:
        return spec_from_dict(data)
    except SpecError as exc:
        # Re-raise with the file origin prefixed, preserving the dotted
        # key path: "fault_storm.toml: faults.crash_rate must be >= 0".
        raise SpecError(origin, str(exc)) from None


# -- dumping ----------------------------------------------------------------


def dump_spec_json(spec: ScenarioSpec) -> str:
    """The spec as pretty-printed JSON (parses back via ``fmt="json"``)."""
    return json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"


def dump_spec_toml(spec: ScenarioSpec) -> str:
    """The spec as TOML text (parses back to an equal spec).

    Emits only the subset the loader understands: ``[section]`` headers
    with string/bool/number/array-of-number values — which is exactly
    what :meth:`ScenarioSpec.to_dict` produces.
    """
    lines: List[str] = []
    data = spec.to_dict()
    for section in data:  # to_dict() orders sections canonically
        table = data[section]
        if lines:
            lines.append("")
        lines.append(f"[{section}]")
        for key, value in table.items():
            lines.append(f"{key} = {_toml_value(value, f'{section}.{key}')}")
    return "\n".join(lines) + "\n"


def _toml_value(value: Any, path: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr round-trips and is valid TOML for finite floats; the spec
        # layer never produces inf/nan (every number is finiteness-checked).
        return repr(value)
    if isinstance(value, str):
        # a one-line basic string: no quote, backslash or control character
        if any(ch in '"\\\x7f' or (ch < " " and ch != "\t") for ch in value):
            raise SpecError(path, f"string not representable in TOML: {value!r}")
        return f'"{value}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v, path) for v in value) + "]"
    raise SpecError(path, f"unsupported value type {type(value).__name__}")
