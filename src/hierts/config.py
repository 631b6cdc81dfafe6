"""Config tables: every field a command reads, with its check, its default and where it applies.

RunConfig's fields are the table of simulate, ratio and bound documents (RUN_FIELDS); ratio, verify-oracle
and classify-bandit have tables of their own. read() is how every command reads its input.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agents import AGENT_KINDS
from .hierarchy import (ConfigError, Hierarchy, HierarchyError, PriorSpec, _balanced_size, _bounded, _check_int,
                        _check_real, _id_map, _is_int, _load_json_object, _real_in, _SCALE, balanced_tree,
                        build_hierarchy, constant_prior, doubling_prior, load_tree_json)

__all__ = ["RunConfig", "RUN_FIELDS", "read", "jobs"]


def _int_at_least(lo: int):
    return _bounded(lambda v: v >= lo, f"at least {lo}", _check_int)


def _one_of(*choices: str):
    return _bounded(lambda v: v in choices, f"one of {choices}")


def _agents(name: str, value) -> tuple[str, ...]:
    if not (isinstance(value, (list, tuple)) and value and all(k in AGENT_KINDS for k in value)
            and len(set(value)) == len(value)):
        raise ConfigError(f"{name} must list distinct agent kinds from {AGENT_KINDS}, got {value!r}")
    return tuple(value)


def _spec(default, check, nested: str | None = None, when: tuple | None = None, required: bool = False):
    """A config-table row as a dataclass field: default, check (spelling, value) -> value, 'section.key'
    spelling, when = (field, values) if it applies only while that field holds one of values, and
    whether every document (every section object, if nested) must set it."""
    return field(default=default, metadata=dict(check=check, nested=nested, when=when, required=required))


def _checked(row, name: str, value):
    """value through row's check; None stays None, meaning unset, where the default is None."""
    return value if value is None and row.default is None else row.metadata["check"](name, value)


def _applies(row, values: dict) -> bool:
    when = row.metadata["when"]
    return when is None or values[when[0]] in when[1]


def _read_fields(doc: dict, table: dict) -> dict:
    """Every field's checked value, from config document doc or else the default; table maps field
    names to _spec rows. A ConfigError names the field as doc spells it: an unknown key, a field set
    by name and nested, a failed check, a required field left unset, or one set where it does not apply."""
    spelling = {name: name for name in table}
    spelling.update((row.metadata["nested"], name) for name, row in table.items() if row.metadata["nested"])
    keys = {}
    for key, value in doc.items():
        section = any(s.startswith(f"{key}.") for s in spelling)
        if section and not isinstance(value, dict):
            raise ConfigError(f"'{key}' must be an object, got {value!r}")
        keys.update({f"{key}.{k}": v for k, v in value.items()} if section else {key: value})
    if set(keys) - set(spelling):
        raise ConfigError(f"unknown config keys: {sorted(set(keys) - set(spelling))}")
    values, spelled = {name: row.default for name, row in table.items()}, {}
    for key, value in keys.items():
        name = spelling[key]
        if name in spelled:
            raise ConfigError(f"{name} is set twice, as {spelled[name]} and as {key}")
        values[name], spelled[name] = _checked(table[name], key, value), key
    for name, row in table.items():
        nested, unset = row.metadata["nested"], name not in spelled or values[name] is None
        if unset and row.metadata["required"] and (not nested or nested.partition(".")[0] in doc):
            raise ConfigError(f"{nested or name} must be set")
        if not unset and not _applies(row, values):
            cond, allowed = row.metadata["when"]
            raise ConfigError(f"{spelled[name]} does not apply where {cond} is {values[cond]!r}, only {allowed}")
    return values


_SCHEMES = ("constant", "doubling", "explicit", "file")
_NOT_FILE, _K_ARMED = ("prior_scheme", _SCHEMES[:3]), ("model", ("k-armed",))


@dataclass(frozen=True)
class RunConfig:
    """Declarative experiment description; resolve() yields the tree and prior. Its fields are the config
    table (see _spec). prior_scheme is constant (prior_value at every node), doubling (2**height),
    explicit (node_variance) or file (the prior, noise_std and hyper_mean of tree_file)."""

    branching: int | None = _spec(None, _int_at_least(2), "tree.b")
    height: int | None = _spec(None, _int_at_least(1), "tree.h")
    parents: tuple[tuple[int, int], ...] | None = _spec(None, lambda n, v: _id_map(n, v, _check_int), "tree.parents")
    tree_file: str | None = _spec(None, _bounded(lambda v: isinstance(v, str) and v != "", "a path"), "tree.file")
    prior_scheme: str = _spec("constant", _one_of(*_SCHEMES), "prior.scheme", required=True)
    prior_value: float = _spec(1.0, _SCALE, "prior.value", ("prior_scheme", ("constant",)))
    node_variance: tuple[tuple[int, float], ...] | None = _spec(
        None, lambda n, v: _id_map(n, v, _SCALE), "prior.node_variance", ("prior_scheme", ("explicit",))
    )
    hyper_mean: float = _spec(0.0, _real_in(-1e50, 1e50), when=_NOT_FILE)
    noise_std: float = _spec(1.0, _SCALE, when=_NOT_FILE)
    horizon: int = _spec(500, _int_at_least(0))
    instances: int = _spec(100, _int_at_least(1))
    agents: tuple[str, ...] = _spec(AGENT_KINDS, _agents)
    seed: int = _spec(0, _int_at_least(0))
    model: str = _spec("k-armed", _one_of("k-armed", "linear"))
    dim: int = _spec(1, _int_at_least(1), when=("model", ("linear",)))
    delta: float | None = _spec(None, _bounded(lambda v: 0 < v < 1, "in (0, 1)", _check_real), when=_K_ARMED)

    def __post_init__(self) -> None:
        for row in dataclasses.fields(self):
            object.__setattr__(self, row.name, _checked(row, row.name, getattr(self, row.name)))
        given = {k for k in ("branching", "height", "parents", "tree_file") if getattr(self, k) is not None}
        if given not in ({"branching", "height"}, {"parents"}, {"tree_file"}):
            raise ConfigError("specify exactly one tree source: branching and height, parents or tree_file")
        if self.branching is not None:
            _balanced_size(self.branching, self.height)  # ConfigError for a tree too large to build
        if self.prior_scheme == "explicit" and self.node_variance is None:
            raise ConfigError("explicit prior scheme requires node_variance")
        if self.prior_scheme == "file" and self.tree_file is None:
            raise ConfigError("prior scheme 'file' requires tree_file")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """The config of a nested or flat JSON document (see _read_fields)."""
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        return cls(**_read_fields(doc, RUN_FIELDS))

    @classmethod
    def from_json_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(_load_json_object(path))

    def to_dict(self) -> dict:
        """The flat document of this run: every field that is set and applies; from_dict reads it back."""
        doc = {}
        for name, row in RUN_FIELDS.items():
            value = getattr(self, name)
            if value is None or not _applies(row, vars(self)):
                continue
            if isinstance(value, tuple):  # the agent kinds, or (node id, value) pairs
                value = list(value) if name == "agents" else {str(k): v for k, v in value}
            doc[name] = value
        return doc

    def resolve(self) -> tuple[Hierarchy, PriorSpec]:
        try:  # the file scheme requires tree_file, so file_prior is set wherever it is read
            if self.tree_file is not None:
                hierarchy, file_prior, _ = load_tree_json(self.tree_file)
            elif self.parents is not None:
                hierarchy = build_hierarchy(dict(self.parents))
            else:
                hierarchy = balanced_tree(self.branching, self.height)
            if self.prior_scheme == "file":
                if file_prior is None:
                    raise ConfigError(f"{self.tree_file}: tree file carries no prior section")
                fits = "k-armed" if file_prior.is_scalar else f"linear with dim {file_prior.dim}"
                if fits != ("k-armed" if self.model == "k-armed" else f"linear with dim {self.dim}"):
                    raise ConfigError(f"{self.tree_file}: its prior fits model {fits}, not {self.model!r}")
                return hierarchy, file_prior
            if self.prior_scheme == "constant":
                prior = constant_prior(hierarchy, self.prior_value, self.noise_std, self.hyper_mean)
            elif self.prior_scheme == "doubling":
                prior = doubling_prior(hierarchy, self.noise_std, self.hyper_mean)
            else:
                prior = PriorSpec(self.hyper_mean, dict(self.node_variance), self.noise_std)
            if self.model == "linear":
                eye, scalar = np.eye(self.dim), prior.node_variance
                prior = PriorSpec(self.hyper_mean, {n: v * eye for n, v in scalar.items()}, self.noise_std)
            prior.variances(hierarchy)  # HierarchyError unless every node has a variance
        except HierarchyError as exc:
            raise ConfigError(str(exc)) from None
        return hierarchy, prior

    def resolved_delta(self) -> float | None:
        """delta, else 1 / horizon; None where delta is unset and the horizon is below 2, since 1 / horizon
        then lies outside (0, 1). simulate computes no bound without one, and bound stops."""
        if self.delta is not None:
            return self.delta
        return 1.0 / self.horizon if self.horizon >= 2 else None


# The config table that documents are read and written by: field name -> its _spec row.
RUN_FIELDS = {row.name: row for row in dataclasses.fields(RunConfig)}

_HEIGHTS = _bounded(lambda v: isinstance(v, list) and v != [] and all(_is_int(h) and h >= 1 for h in v),
                    "a non-empty list of integers >= 1")
# ratio reads the simulate document plus heights; it sets the tree height itself and computes no bound. Its
# ratios divide final regrets, so it needs at least one round.
_RATIO_FIELDS = {
    **RUN_FIELDS,
    "horizon": _spec(500, _int_at_least(1)),
    "height": _spec(None, _bounded(lambda v: False, "left out: heights sets the tree height"), "tree.h"),
    "delta": _spec(None, _bounded(lambda v: False, "left out: ratio computes no bound")),
    "heights": _spec(None, _HEIGHTS, required=True),
}
# checks.run_default_suites' sizes when none are given, which a bare verify-oracle runs.
DEFAULT_SUITE_SIZES = {"scalar_cases": 100, "linear_cases": 30, "lemma_runs": 20, "horizon": 100}
_VERIFY_FIELDS = {name: _spec(default, _int_at_least(0)) for name, default in
                  (("seed", 0), *DEFAULT_SUITE_SIZES.items())}
# classify-bandit reads no document, only these flags, so an error names the flag.
_CLASSIFY_FLAGS = {"--horizon": _spec(2000, _int_at_least(1)), "--runs": _spec(10, _int_at_least(1)),
                   "--seed": RUN_FIELDS["seed"], "--noise-std": _spec(0.5, _SCALE)}
_TABLES = {"simulate": RUN_FIELDS, "bound": RUN_FIELDS, "ratio": _RATIO_FIELDS, "verify-oracle": _VERIFY_FIELDS,
           "classify-bandit": _CLASSIFY_FLAGS}


def read(command: str, path: str | Path | None, flags: dict) -> dict:
    """command's checked input: the JSON object in the file at path (an empty one where path is None), with
    the flags that are set (not None) laid over it, read once through command's table (see _read_fields)."""
    doc = {} if path is None else _load_json_object(path)
    doc.update((key, value) for key, value in flags.items() if value is not None)
    return _read_fields(doc, _TABLES[command])


def jobs(value: int | None) -> int:
    """The worker processes that --jobs asks for: every core where it is unset."""
    return (os.cpu_count() or 1) if value is None else _int_at_least(1)("--jobs", value)
