"""The config layer: schema.json, its interpreter and the rules beside it, the
probability-vector rule and the config checksum. Standard library only, so
that `soficlab validate` and `report` import neither numpy nor a compute module."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Sequence

SCHEMA = json.loads(Path(__file__).with_name("schema.json").read_text())

# float64 cells of E2's product distance matrix, 4^vertices x support_atoms^2: one
# instance at the cap peaked at 121-189 MB (vertices 9-11), at twice it at 373 MB
E2_PRODUCT_CELLS_CAP = 1 << 22


def config_checksum(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode(), digest_size=6).hexdigest()


def check_weights(weights: Sequence[float]) -> None:
    """The package's one probability-vector rule: a nonempty 1-D vector of
    finite, nonnegative entries whose `math.fsum` is within 1e-9 of 1; raises
    ValueError otherwise. Takes a list or a numpy array; a bool is no entry."""
    w = weights.tolist() if hasattr(weights, "tolist") else weights  # numpy: nested lists by axis
    if not (isinstance(w, (list, tuple)) and w and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in w)):
        raise ValueError("weights must be a nonempty vector of numbers")
    # NaN fails both comparisons; no entry of a sum near 1 exceeds 2, so fsum cannot overflow
    if not all(0.0 <= x <= 2.0 for x in w) or abs(math.fsum(w) - 1.0) > 1e-9:
        raise ValueError("weights must be finite, nonnegative and sum to 1")


# stricter than draft-07: integer takes no float, not even 1.0 (the experiments
# call range() on integer fields), and no type takes a bool
_TYPES: Dict[str, Callable[[object], bool]] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
}


def _schema_problems(schema: dict, value, path: str) -> List[str]:
    """Problems of a value against a node of schema.json, each led by its field
    path; interprets only the keywords the file uses. allOf applies once the
    node's own keywords hold: a config without an experiment meets every
    branch's `if` vacuously, and must get one problem, not one per branch."""
    where = path or "config"
    if "type" in schema and not _TYPES[schema["type"]](value):
        return [f"{where}: expected {schema['type']}, got {value!r}"]
    problems = []
    if "const" in schema and value != schema["const"]:
        problems.append(f"{where}: must be {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        problems.append(f"{where}: must be one of {schema['enum']}, got {value!r}")
    if "minimum" in schema and value < schema["minimum"]:
        problems.append(f"{where}: must be >= {schema['minimum']}, got {value!r}")
    if "maximum" in schema and value > schema["maximum"]:
        problems.append(f"{where}: must be <= {schema['maximum']}, got {value!r}")
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        problems.append(f"{where}: must be > {schema['exclusiveMinimum']}, got {value!r}")
    if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
        problems.append(f"{where}: must be < {schema['exclusiveMaximum']}, got {value!r}")
    if "minItems" in schema and len(value) < schema["minItems"]:
        problems.append(f"{where}: must have at least {schema['minItems']} items, got {value!r}")
    for key in schema.get("required", ()):
        if key not in value:
            problems.append(f"{path}.{key}".lstrip(".") + ": missing required field")
    for key, sub in schema.get("properties", {}).items():
        if key in value:
            problems += _schema_problems(sub, value[key], f"{path}.{key}".lstrip("."))
    if "items" in schema:
        for i, item in enumerate(value):
            problems += _schema_problems(schema["items"], item, f"{path}[{i}]")
    if problems:
        return problems
    for branch in schema.get("allOf", ()):
        if not _schema_problems(branch["if"], value, path):
            problems += _schema_problems(branch["then"], value, path)
    return problems


def validate_config(cfg: dict) -> List[str]:
    """Problems of a config against schema.json, then against the rules it
    cannot state: one epsilon per seed (E5, E6), at most 2^vertices distinct
    E2 configurations per draw, at most `E2_PRODUCT_CELLS_CAP` cells in E2's
    product distance matrix, and the probability-vector rule `check_weights`,
    which the processes apply at run time, for E1 `weight_sets`, E4 `weights`
    and E5/E6 `mu0`. Empty when the config is valid."""
    problems = _schema_problems(SCHEMA, cfg, "")
    if problems:
        return problems
    eps, seeds = cfg.get("epsilons"), cfg.get("seeds")
    if isinstance(eps, list) and isinstance(seeds, list) and len(eps) != len(seeds):
        problems.append(f"epsilons: must have one entry per seed, got {len(eps)} for {len(seeds)} seeds")
    for name in ("set_size", "support_atoms") if cfg["experiment"] == "E2" else ():
        if (cfg[name] - 1).bit_length() > cfg["vertices"]:  # count > 2^vertices, without 2^vertices
            problems.append(f"{name}: must be <= 2^vertices = {2 ** cfg['vertices']}, got {cfg[name]}")
    # min: 4^12 alone is over the cap, and a huge vertices stays a small power
    if cfg["experiment"] == "E2" and 4 ** min(cfg["vertices"], 12) * cfg["support_atoms"] ** 2 > E2_PRODUCT_CELLS_CAP:
        problems.append(f"vertices: 4^vertices x support_atoms^2 must be <= {E2_PRODUCT_CELLS_CAP}, got {cfg['vertices']}")
    key = {"E1": "weight_sets", "E4": "weights", "E5": "mu0", "E6": "mu0"}.get(cfg["experiment"])
    laws = {key: cfg[key]} if key in ("weights", "mu0") else {}
    if key == "weight_sets":
        laws = {f"{key}[{i}]": w for i, w in enumerate(cfg[key])}
    for path, weights in laws.items():
        try:
            check_weights(weights)
        except ValueError as err:
            problems.append(f"{path}: {err}, got {weights!r}")
    return problems


__all__ = ["SCHEMA", "config_checksum", "check_weights", "validate_config"]
