"""key=value configuration files with strict schema checking.

Unknown keys are rejected with the offending line number; absent keys fall
back to defaults; command-line flags, built from the same schema, override
file values and pass the same range checks. Each range check is the one
of the module that uses the value; this module only parses and delegates.
"""

from __future__ import annotations

from .detection import NMS_IOU, OBJ_THRESH, check_threshold
from .edgecloud import TIMEOUT_MS, OffloadPolicy, check_timeout, parse_addr
from .encoders import phrases
from .model import PROMPT


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
        phrases(value)
    except ValueError as e:
        raise ValueError(f"{name} is not a usable prompt: {e}") from None
    return value


# name -> (parser, default as the library keeps it, the check of the module
# that uses the value or None, flag help)
SCHEMA = {
    "weights": (str, None, None,
                "weights archive path; unset, a seed gives a freshly "
                "initialized model and no seed reads weights.bin"),
    "mode": (str, OffloadPolicy.mode, _policy,
             "offload policy: always_edge, always_cloud or adaptive"),
    "tau": (float, OffloadPolicy.tau, _policy, "haze threshold for adaptive routing"),
    "seed": (int, None, None,
             "fix all RNG streams so output is reproducible; unset, "
             "train-toy trains from seed 0"),
    "obj_thresh": (float, OBJ_THRESH, check_threshold, "objectness threshold"),
    "nms_iou": (float, NMS_IOU, check_threshold, "NMS IoU threshold"),
    "text": (str, PROMPT, _prompt, "comma-separated detection phrases"),
    "cloud": (str, "", _address, "cloud node address host:port"),
    "timeout_ms": (float, TIMEOUT_MS, check_timeout, "cloud request timeout in ms"),
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
    schema; returns only the keys present in the file, each at most once."""
    out = {}
    lines = {}  # key -> the line that gave it
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
        if key in lines:
            raise ValueError(f"{source}:{ln}: key {key!r} given twice, "
                             f"on lines {lines[key]} and {ln}")
        lines[key] = ln
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
