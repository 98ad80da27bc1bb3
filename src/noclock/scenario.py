"""Scenario configuration: schema, validation, JSON round-trip.

Numbers are carried as exact decimal strings or ints; floats are rejected so
a loaded scenario reproduces a run bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import List, Optional

from .adversary import (BOOTS, DELAYS, ORACLES, RATE_SCHEDULES, STRATEGIES,
                        ClockSkewNode)
from .params import parse_model, parse_number
from .protocols import PROTOCOLS
from .timebase import frac

# The type every field but the exact numbers must have; bools are not ints.
FIELD_TYPES = {"n": int, "f": int, "seed": int, "protocol": dict,
               "adversary": dict, "oracle": dict, "clocks": dict,
               "corruption": dict, "script": list}

# Each name a run looks up in a section, the one table of them:
# (section, key) -> (table, what, default).  A missing or null name is the
# default; only the protocol's name has none.
LOOKUPS = {
    ("protocol", "name"): (PROTOCOLS, "protocol", None),
    ("adversary", "byzantine"): (STRATEGIES, "byzantine strategy", "silent"),
    ("adversary", "mode"): (ClockSkewNode.PACES, "clock_skew mode", "fastest"),
    ("adversary", "delays"): (DELAYS, "delay policy", "uniform"),
    ("clocks", "rates"): (RATE_SCHEDULES, "rate schedule", "random_steps"),
    ("oracle", "kind"): (ORACLES, "oracle kind", "const"),
    ("corruption", "kind"): (BOOTS, "corruption kind", "none")}
# The keys each section declares: its lookups, and the two values `validate`
# checks on their own.  A script entry declares "t", "node" and "action".
_KEYED = [*LOOKUPS, ("adversary", "byzantine_set"), ("oracle", "value")]
SECTION_KEYS = {section: {key for s, key in _KEYED if s == section}
                for section, _ in _KEYED}


class ScenarioError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid scenario: " + "; ".join(self.problems))


@dataclass
class Scenario:
    n: int = 4
    f: int = 1
    theta: str = "1.1"
    d: str = "1"
    T: Optional[str] = None              # default: 2*theta^2*d
    duration: str = "150"
    seed: int = 0
    protocol: dict = field(default_factory=lambda: {"name": "phase-king-silent"})
    adversary: dict = field(default_factory=lambda: {"byzantine": "silent",
                                                     "delays": "uniform"})
    oracle: dict = field(default_factory=lambda: {"kind": "const", "value": 1})
    clocks: dict = field(default_factory=lambda: {"rates": "random_steps"})
    corruption: dict = field(default_factory=lambda: {"kind": "none"})
    script: List[dict] = field(default_factory=list)
    clock_update_period: Optional[str] = None

    def validate(self) -> None:
        problems = [f"{key}: expected {kind.__name__}, got {getattr(self, key)!r}"
                    for key, kind in FIELD_TYPES.items()
                    if type(getattr(self, key)) is not kind]
        if problems:
            raise ScenarioError(problems)   # the checks below rely on these
        problems += [f"{section}: unknown key {key!r}"
                     for section, keys in SECTION_KEYS.items()
                     for key in getattr(self, section) if key not in keys]
        problems += parse_model(self.n, self.f, self.theta, self.d, self.T,
                                self.clock_update_period)[1]
        duration = parse_number("duration", self.duration, problems)
        if duration is not None and duration <= 0:
            problems.append("duration must be positive")
        byz = self.adversary.get("byzantine_set")
        if byz is not None and not (isinstance(byz, (list, tuple)) and all(
                type(v) is int and 0 <= v < self.n for v in byz)):
            problems.append("byzantine_set contains invalid node ids")
        elif byz is not None and len(set(byz)) < len(byz):
            problems.append("byzantine_set repeats a node id")
        elif byz is not None and len(byz) > self.f:
            problems.append(f"byzantine_set larger than f={self.f}")
        value = self.oracle.get("value", 1)
        if not (type(value) is int and value in (0, 1)):
            problems.append(f"oracle value {value!r} is not 0 or 1")
        for entry in self.script:
            if not isinstance(entry, dict):
                problems.append(f"malformed script entry {entry!r}")
                continue
            problems += [f"script entry: unknown key {key!r}" for key in entry
                         if key not in ("t", "node", "action")]
            try:
                t = frac(entry["t"])
                if duration is not None and not (0 < t < duration):
                    problems.append(f"script time {entry['t']} outside run")
            except (KeyError, TypeError, ValueError):
                problems.append(f"malformed script entry {entry!r}")
            node = entry.get("node")
            if not (type(node) is int and 0 <= node < self.n):
                problems.append(f"script node {node!r} invalid")
            action = entry.get("action", "initiate")
            if action != "initiate":
                problems.append(f"unknown script action {action!r}")
        for section, key in LOOKUPS:
            try:
                self.lookup(section, key)
            except ScenarioError as exc:
                problems += exc.problems
        if problems:
            raise ScenarioError(problems)

    def lookup(self, section: str, key: str):
        """The table entry that `section`'s `key` names; a missing or null
        name is the key's default."""
        table, what, default = LOOKUPS[section, key]
        name = getattr(self, section).get(key)
        if name is None:
            name = default
        if not (isinstance(name, str) and name in table):
            raise ScenarioError([f"unknown {what} {name!r}"])
        return table[name]

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        _reject_floats(data, path="scenario")
        try:
            sc = cls(**data)
        except TypeError as exc:
            raise ScenarioError([str(exc)]) from None
        sc.validate()
        return sc

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Scenario":
        """The scenario a JSON file holds; a file that is not UTF-8 JSON
        is a `ScenarioError`, like one that holds no valid scenario."""
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
                raise ScenarioError([f"{path}: not JSON: {exc}"]) from None
        return cls.from_dict(data)


def _reject_floats(obj, path: str) -> None:
    if isinstance(obj, float):
        raise ScenarioError([f"{path}: floats are not exact; use a string"])
    if isinstance(obj, dict):
        for k, v in obj.items():
            _reject_floats(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _reject_floats(v, f"{path}[{i}]")
