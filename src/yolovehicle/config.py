"""key=value configuration files with strict schema checking.

Unknown keys are rejected with the offending line number; absent keys fall
back to defaults; command-line flags, built from the same schema, override
file values and pass the same range checks.
"""

from __future__ import annotations

from math import inf

from .edgecloud import OffloadPolicy, parse_addr
from .encoders import TextInput


def _non_negative(name, value):
    if not 0 <= value < inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value}")
    return value


def _positive(name, value):
    if not 0 < value < inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _open_unit_interval(name, value):
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return value


def _policy(name, value):
    """The offload policy's own check of its mode or tau."""
    OffloadPolicy(**{name: value})
    return value


def _address(name, value):
    """edgecloud.parse_addr's check; an empty address is unset."""
    if value:
        parse_addr(value)
    return value


def _prompt(name, value):
    """The text encoder's own check: 1 to encoders.MAX_PHRASES phrases."""
    try:
        TextInput(value).validate()
    except ValueError as e:
        raise ValueError(f"{name} is not a usable prompt: {e}") from None
    return value


# name -> (parser, default, validator or None, flag help)
SCHEMA = {
    "weights": (str, "weights.bin", None, "weights archive path"),
    "mode": (str, "adaptive", _policy,
             "offload policy: always_edge, always_cloud or adaptive"),
    "tau": (float, 0.6, _policy, "haze threshold for adaptive routing"),
    "lambda1": (float, 0.6, _non_negative, "classification loss weight"),
    "lambda2": (float, 7.0, _non_negative, "box (CIoU) loss weight"),
    "lambda3": (float, 0.4, _non_negative, "distribution focal loss weight"),
    "seed": (int, None, None,
             "fix all RNG streams so output is reproducible; unset, "
             "train-toy trains from seed 0"),
    "obj_thresh": (float, 0.5, _open_unit_interval, "objectness threshold"),
    "nms_iou": (float, 0.5, _open_unit_interval, "NMS IoU threshold"),
    "text": (str, "car, truck, bus", _prompt, "comma-separated detection phrases"),
    "cloud": (str, "", _address, "cloud node address host:port"),
    # 0 would make the socket non-blocking, not patient
    "timeout_ms": (float, 1000.0, _positive, "cloud request timeout in ms"),
}


def defaults() -> dict:
    return {k: entry[1] for k, entry in SCHEMA.items()}


def _validated(key, value, where: str):
    """value after its key's range check; ValueError prefixed by where."""
    validate = SCHEMA[key][2]
    if validate is None:
        return value
    try:
        return validate(key, value)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parses key=value lines ('#' comments and blanks allowed) against the
    schema; returns only the keys present in the file."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{ln}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ValueError(f"{source}:{ln}: unknown key {key!r}")
        parser = SCHEMA[key][0]
        try:
            parsed = parser(value)
        except ValueError:
            raise ValueError(f"{source}:{ln}: bad value {value!r} for {key}") \
                from None
        out[key] = _validated(key, parsed, f"{source}:{ln}")
    return out


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def merge(file_values: dict, flag_values: dict) -> dict:
    """defaults, overridden by the file, overridden by the flags that are not
    None; a flag value out of its key's range raises ValueError naming the
    flag."""
    eff = defaults()
    eff.update(file_values)
    for key, value in flag_values.items():
        if value is not None:
            eff[key] = _validated(key, value, f"--{key.replace('_', '-')}")
    return eff
