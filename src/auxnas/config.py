"""Config document: nested defaults, strict merging, and object builders.

Every field has a default; unknown keys are rejected with their path, and
each value must have its default's type (an int may stand for a float, a
bool is not an int, aux.genotype_path is null or a string). The defaults
are those of the dataclasses the sections build (TrainCfg, AuxCfg,
SearchCfg, EvalCfg.short_iters); only what no dataclass holds is written
here. The effective document is echoed to output_dir/config.resolved.json
and can be fed back as --config to reproduce a run.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import fields

from .auxiliary import load_genotype
from .data import write_json
from .layers import AGG_OP_NAMES
from .model import ConfigError, TaskSpec
from .search import EvalCfg, SearchCfg
from .train import AuxCfg, Strategy, TrainCfg, parse_strategy


def _defaults(cls, *names: str) -> dict:
    """Field defaults of a dataclass, only those of ``names`` if given."""
    return {f.name: f.default for f in fields(cls) if not names or f.name in names}


DEFAULTS = {
    "data": {"dir": "data"},
    "model": {"variant": "baseline", "tasks": ["seg", "depth"]},
    "train": _defaults(TrainCfg),
    "aux": {**_defaults(AuxCfg, "mode", "c_aux"),
            "agg": "sum", "genotype_path": None},
    "search": {**_defaults(SearchCfg), **_defaults(EvalCfg, "short_iters")},
    "output_dir": "out",
}
MINIMUM = {"train.batch": 1, "search.batch": 1, "aux.c_aux": 1,
           "train.seed": 0, "search.seed": 0, "train.iters": 1,
           "search.short_iters": 1, "train.eval_every": 0, "search.candidates": 0}


def _type_ok(dval, uval) -> bool:
    if isinstance(dval, (list, tuple)):
        return isinstance(uval, (list, tuple)) and all(isinstance(x, str) for x in uval)
    if isinstance(dval, bool) or isinstance(uval, bool):
        return isinstance(dval, bool) and isinstance(uval, bool)
    return isinstance(uval, {type(None): (type(None), str),
                             float: (int, float)}.get(type(dval), type(dval)))


def _merge(defaults, user, path=""):
    if not isinstance(user, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    out = {}
    for key, dval in defaults.items():
        if key not in user:
            out[key] = copy.deepcopy(dval)
        elif isinstance(dval, dict):
            out[key] = _merge(dval, user[key], f"{path}{key}.")
        elif not _type_ok(dval, user[key]):
            want = {type(None): "null or str", float: "number", list: "list of str",
                    tuple: "list of str"}.get(type(dval), type(dval).__name__)
            raise ConfigError(f"config value {path}{key} must be {want}, got {user[key]!r}")
        elif (low := MINIMUM.get(path + key)) is not None and user[key] < low:
            raise ConfigError(f"config value {path}{key} must be at least {low}, got {user[key]}")
        else:
            out[key] = user[key]
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key(s): "
                          f"{', '.join(sorted(path + k for k in unknown))}")
    return out


def resolve_config(user: dict | None) -> dict:
    return _merge(DEFAULTS, user or {})


def load_config(path: str | None) -> dict:
    if path is None:
        return resolve_config(None)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from e
    return resolve_config(doc)


def write_resolved(cfg: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "config.resolved.json"), cfg)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def tasks_from_config(cfg: dict, dataset) -> list[TaskSpec]:
    """The configured tasks; the seg class count is the dataset's K."""
    return [TaskSpec(kind, classes=dataset.k if kind == "seg" else 0)
            for kind in cfg["model"]["tasks"]]


def train_cfg_from_config(cfg: dict, seed: int | None = None) -> TrainCfg:
    tc = dict(cfg["train"], probe_layers=tuple(cfg["train"]["probe_layers"]))
    if seed is not None:
        tc["seed"] = seed
    return TrainCfg(**tc)


def aux_cfg_from_config(cfg: dict) -> AuxCfg:
    """The aux section without a genotype; strategy_from_config loads one."""
    ac = cfg["aux"]
    if ac["mode"] not in ("basic", "genotype"):
        raise ConfigError(f"aux.mode {ac['mode']!r} invalid (basic | genotype)")
    if ac["agg"] not in AGG_OP_NAMES:
        raise ConfigError(f"aux.agg {ac['agg']!r} invalid")
    return AuxCfg(mode=ac["mode"], agg=AGG_OP_NAMES.index(ac["agg"]), c_aux=ac["c_aux"])


def strategy_from_config(cfg: dict, name: str) -> tuple[Strategy, AuxCfg]:
    """Parse a strategy name and build its AuxCfg, with the genotype loaded
    from aux.genotype_path when the strategy trains searched modules."""
    strategy = parse_strategy(name)
    aux_cfg = aux_cfg_from_config(cfg)
    if strategy.uses_genotype(aux_cfg.mode):
        path = cfg["aux"]["genotype_path"]
        if path is None:
            raise ConfigError(f"aux.genotype_path is required for strategy {strategy.name}")
        aux_cfg.genotype = load_genotype(path)
    return strategy, aux_cfg


def search_cfg_from_config(cfg: dict) -> SearchCfg:
    sc = dict(cfg["search"])
    del sc["short_iters"]  # an EvalCfg field
    return SearchCfg(**sc)


def eval_cfg_from_config(cfg: dict, dataset) -> EvalCfg:
    return EvalCfg(dataset=dataset, variant=cfg["model"]["variant"],
                   tasks=tasks_from_config(cfg, dataset),
                   short_iters=cfg["search"]["short_iters"],
                   batch=cfg["train"]["batch"], lr0=cfg["train"]["lr0"],
                   c_aux=cfg["aux"]["c_aux"], augment=cfg["train"]["augment"])
