"""key=value configuration files with strict schema checking.

Unknown keys are rejected with the offending line number; absent keys fall
back to defaults; command-line flags override file values and pass the same
range checks.
"""

from __future__ import annotations


def _non_negative(name, value):
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def _positive(name, value):
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _unit_interval(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def _open_unit_interval(name, value):
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return value


def _mode(name, value):
    if value not in ("always_edge", "always_cloud", "adaptive"):
        raise ValueError(f"{name} must be always_edge, always_cloud or "
                         f"adaptive, got {value!r}")
    return value


# name -> (parser, default, validator or None)
SCHEMA = {
    "weights": (str, "weights.bin", None),
    "mode": (str, "adaptive", _mode),
    "tau": (float, 0.6, _unit_interval),
    "lambda1": (float, 0.6, _non_negative),
    "lambda2": (float, 7.0, _non_negative),
    "lambda3": (float, 0.4, _non_negative),
    "seed": (int, 0, None),
    "obj_thresh": (float, 0.5, _open_unit_interval),
    "nms_iou": (float, 0.5, _open_unit_interval),
    "text": (str, "car, truck, bus", None),
    "cloud": (str, "", None),
    # 0 would make the socket non-blocking, not patient
    "timeout_ms": (float, 1000.0, _positive),
}


def defaults() -> dict:
    return {k: d for k, (_, d, _) in SCHEMA.items()}


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
    """defaults, overridden by the file, overridden by explicit flags; a
    flag value out of its key's range raises ValueError naming the flag."""
    eff = defaults()
    eff.update(file_values)
    for key, value in flag_values.items():
        if value is not None:
            eff[key] = _validated(key, value, f"--{key.replace('_', '-')}")
    return eff
