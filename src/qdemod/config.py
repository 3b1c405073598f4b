"""Flat key = value configuration files, one schema per CLI subcommand.

Grammar: one `key = value` pair per line; `#` starts a comment; an optional
`[subcommand]` header may name the schema and must then match the command
being run.  Values are strings, integers, reals or comma-separated real
lists of at least one value.  Unknown keys, duplicate keys, type errors,
empty lists and missing required keys are reported with line numbers.
Every default is resolved at parse time so the manifest can echo the
complete configuration.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    pass


REQUIRED = object()


@dataclass(frozen=True)
class Key:
    name: str
    typ: str                 # str | int | float | floatlist
    default: object = REQUIRED


# Key tuples shared between schemas; each schema keeps its key order.
_MOD_KIND = Key("mod_kind", "str", "pm")
_GRID = (
    Key("n_samples", "int", 4096),
    Key("bandwidth", "float", 1.0),
    Key("message_kind", "str", "flat"),
    Key("band_bins", "int", 127),
    Key("lorentz_ratio", "float", 256.0),
    _MOD_KIND,
)
_POINT = (
    Key("beta", "float"),
    Key("lambda", "float", None),
    Key("n_photon", "float", None),
    Key("r", "float", 0.0),
)
_DELAY = Key("delay", "int", -1)
_MONTE_CARLO = (
    Key("variant", "str", "coherent"),
    Key("trials", "int", 64),
    Key("seed", "int", 12345),
    Key("feedback_delay", "int", 0),
)

SCHEMAS: dict[str, tuple] = {
    "limits": (_MOD_KIND,) + _POINT,
    "design": _GRID + _POINT + (_DELAY,),
    "simulate": _GRID + _POINT + (_DELAY,) + _MONTE_CARLO,
    "sweep": _GRID + (
        Key("betas", "floatlist"),
        Key("lambdas", "floatlist", None),
        Key("n_photon", "float", None),
        Key("rs", "floatlist", (0.0,)),
        _DELAY,
    ) + _MONTE_CARLO,
    "fock": (
        Key("n_max", "int", 5),
        Key("points", "int", 0),
        Key("alpha", "float", 1.0),
        Key("pb_s", "int", 3),
        Key("sites", "int", 2),
        Key("bosons", "int", 2),
    ),
    "sense": (
        Key("kind", "str", "multipass"),
        Key("passes", "float", 1.0),
        Key("reflectivity", "float", None),
        Key("incidence", "float", 0.0),
        Key("wavelength", "float", 1.55e-6),
        Key("rms_position", "float", None),
        Key("rms_velocity", "float", None),
        Key("message_bandwidth", "float", 1.0e3),
        Key("cavity_length", "float", 0.0),
    ),
}


def _convert(raw: str, typ: str, line_no: int, name: str):
    raw = raw.strip()
    try:
        if typ == "int":
            return int(raw)
        if typ == "float":
            return float(raw)
        if typ == "floatlist":
            values = tuple(float(p) for p in raw.replace(",", " ").split())
            if not values:
                raise ValueError("no values")
            return values
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: key {name!r} expects {typ}: {exc}") from None
    return raw  # str


def parse_config_text(text: str, command: str) -> dict:
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    schema = {k.name: k for k in SCHEMAS[command]}
    seen: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section != command:
                raise ConfigError(
                    f"line {line_no}: section [{section}] does not match command {command!r}")
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        name, raw_value = (part.strip() for part in line.split("=", 1))
        if name not in schema:
            raise ConfigError(f"line {line_no}: unknown key {name!r} for {command!r}")
        if name in seen:
            raise ConfigError(f"line {line_no}: duplicate key {name!r}")
        seen[name] = _convert(raw_value, schema[name].typ, line_no, name)
    missing = [k.name for k in SCHEMAS[command]
               if k.default is REQUIRED and k.name not in seen]
    if missing:
        raise ConfigError(
            f"missing required keys for {command!r}: {', '.join(sorted(missing))}")
    resolved = {}
    for key in SCHEMAS[command]:
        resolved[key.name] = seen.get(key.name, key.default)
    return resolved


def parse_config(path, command: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), command)


def _format_value(value, typ: str) -> str:
    if typ == "floatlist":
        return ", ".join(repr(float(v)) for v in value)
    if typ == "float":
        return repr(float(value))
    return str(value)


def serialize_config(resolved: dict, command: str) -> str:
    """Render a resolved configuration; parse(serialize(x)) == x."""
    lines = [f"[{command}]"]
    for key in SCHEMAS[command]:
        value = resolved[key.name]
        if value is None:
            continue
        lines.append(f"{key.name} = {_format_value(value, key.typ)}")
    return "\n".join(lines) + "\n"
