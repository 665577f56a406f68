"""Command-line surface: data generation, strategy training, architecture
search, and the strategy-comparison table.

Exit codes: 0 ok, 2 config/usage error, 3 IO error, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .auxiliary import genotype_to_json, save_genotype
from .config import (
    eval_cfg_from_config,
    load_config,
    search_cfg_from_config,
    strategy_from_config,
    tasks_from_config,
    train_cfg_from_config,
    write_resolved,
)
from .controller import ControllerPolicy
from .data import FormatError, SyntheticDataset, gen_synthetic
from .layers import GenotypeError
from .metrics import METRICS_FOR_KIND
from .model import ConfigError, P_TAPS, load_checkpoint
from .search import search_loop
from .procs import job_pool
from .train import DataError, Strategy, _write_csv, parse_strategy, run_strategy

import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


def cmd_gen_data(args) -> int:
    t0 = time.perf_counter()
    try:
        gen_synthetic(args.out, seed=args.seed, n=args.n, h=args.h, w=args.w, k=args.k,
                      val_n=args.val_n, test_n=args.test_n)
    except ValueError as e:  # gen_synthetic checks its arguments before writing
        raise ConfigError(str(e)) from e
    print(f"wrote {args.n} samples to {args.out} in {time.perf_counter() - t0:.2f} s")
    return EXIT_OK


def _donor_task_for(s: Strategy, n_tasks: int) -> int:
    """Donor convention: prior-tK starts from single-tK; auxi-tK starts from
    a single baseline of the first other task (the paper's 2-task pairing)."""
    if s.kind == "prior":
        return s.task
    if s.kind == "auxi_single":
        for t in range(1, n_tasks + 1):
            if t != s.task:
                return t
        return s.task
    raise ConfigError(f"strategy {s.name} has no donor")


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out or cfg["output_dir"]
    ds = SyntheticDataset(cfg["data"]["dir"])
    strategy, aux_cfg = strategy_from_config(cfg, args.strategy)
    donor_state = None
    if strategy.needs_donor:
        if not args.init_ckpt:
            raise ConfigError(f"strategy {strategy.name} requires --init-ckpt")
        _, donor_state = load_checkpoint(args.init_ckpt)
    write_resolved(cfg, out_dir)
    result = run_strategy(strategy, ds, cfg["model"]["variant"], tasks_from_config(cfg, ds),
                          train_cfg_from_config(cfg), aux_cfg,
                          donor_state=donor_state, out_dir=out_dir)
    if result.diverged:
        last = result.records[-1]
        print(f"run diverged at {last['diverged_at']} in iteration {last['iter']}; "
              f"partial records in {out_dir}", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"finished {strategy.name}: " + ", ".join(
        f"t{t} " + " ".join(f"{k}={v:.4f}" for k, v in m.items())
        for t, m in sorted(result.final_metrics.items())))
    return EXIT_OK


def cmd_search(args) -> int:
    cfg = load_config(args.config)
    out_dir = cfg["output_dir"]
    ds = SyntheticDataset(cfg["data"]["dir"])
    for split in ("meta_train", "meta_val"):
        if not ds.splits.get(split):
            raise ConfigError(f"dataset has no {split} split")
    write_resolved(cfg, out_dir)
    search_cfg = search_cfg_from_config(cfg)
    eval_cfg = eval_cfg_from_config(cfg, ds)
    policy = ControllerPolicy(P_TAPS, len(cfg["model"]["tasks"]), np.random.default_rng(
        np.random.SeedSequence([search_cfg.seed, 0xC011])))
    result = search_loop(policy, search_cfg, eval_cfg)
    with open(os.path.join(out_dir, "search.log"), "w", newline="\n") as fh:
        for rec in result.records:  # every RewardRecord field, one record per line
            fh.write(json.dumps({**vars(rec), "genotype": genotype_to_json(rec.genotype)},
                                sort_keys=True) + "\n")
    _write_csv(os.path.join(out_dir, "opstats.csv"), result.opstats)
    if result.best_genotype is not None:
        save_genotype(os.path.join(out_dir, "best.genotype.json"), result.best_genotype)
        print(f"best reward {result.best_reward:.4f} over {len(result.records)} candidates")
    elif result.records:
        print("every candidate diverged or was invalid", file=sys.stderr)
        return EXIT_DIVERGED
    else:
        print("empty search budget; nothing to do")
    return EXIT_OK


def _metric_columns(cfg) -> list[str]:
    cols = []
    for kind in cfg["model"]["tasks"]:
        cols.extend(METRICS_FOR_KIND[kind])
    return cols


def _distinct(flag: str, text: str, parse) -> list:
    """The comma-separated values of ``flag`` through ``parse``: at least
    one, none repeated once parsed."""
    try:
        values = [parse(v.strip()) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}") from None
    if not values or len(set(values)) < len(values):
        raise ConfigError(f"{flag} must name at least one value, each once; got {text!r}")
    return values


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    out_dir = cfg["output_dir"]
    ds = SyntheticDataset(cfg["data"]["dir"])
    strategies = _distinct("--strategies", args.strategies, lambda v: parse_strategy(v).name)
    seeds = _distinct("--seeds", args.seeds, int)
    if min(seeds) < 0:
        raise ConfigError(f"--seeds must not be negative, got {args.seeds!r}")
    tasks = tasks_from_config(cfg, ds)
    resolved = {name: strategy_from_config(cfg, name) for name in strategies}
    write_resolved(cfg, out_dir)

    cells = [(name, seed) for name in strategies for seed in seeds]
    donor_of = {(name, seed): (f"single-t{_donor_task_for(resolved[name][0], len(tasks))}", seed)
                for name, seed in cells if resolved[name][0].needs_donor}
    donor_dirs = {d: os.path.join(out_dir, "donors", f"{d[0]}-s{d[1]}") for d in donor_of.values()}
    resolved.update({name: strategy_from_config(cfg, name) for name, _ in donor_dirs})

    def train_one(name, seed, run_dir, donor_dir=None):
        """One run into ``run_dir``; only picklable fields go back."""
        strategy, aux_cfg = resolved[name]
        state = None if donor_dir is None else load_checkpoint(
            os.path.join(donor_dir, "model.ckpt"))[1]
        res = run_strategy(strategy, ds, cfg["model"]["variant"], tasks,
                           train_cfg_from_config(cfg, seed=seed), aux_cfg,
                           donor_state=state, out_dir=run_dir)
        return res.diverged, res.final_metrics

    # the donors are a first wave of jobs, the cells a second
    with job_pool(train_one) as run:
        donors = run([(*d, path) for d, path in donor_dirs.items()])
        for (name, seed), (diverged, _) in zip(donor_dirs, donors):
            if diverged:
                raise DataError(f"donor {name} seed {seed} diverged")
        results = run([(name, seed, os.path.join(out_dir, "cells", f"{name}-s{seed}"),
                        donor_dirs.get(donor_of.get((name, seed)))) for name, seed in cells])

    metric_cols = _metric_columns(cfg)
    rows = []
    by_strategy: dict[str, list[dict]] = {}
    for (name, seed), (diverged, final_metrics) in zip(cells, results):
        row = {"strategy": name, "seed": seed,
               "status": "diverged" if diverged else "ok"}
        if not diverged:
            for m in final_metrics.values():
                row.update(m)
            by_strategy.setdefault(name, []).append(row)
        rows.append({c: row.get(c, "") for c in ["strategy", "seed", "status"] + metric_cols})
    for name in strategies:
        ok_rows = by_strategy.get(name, [])
        summary = {"strategy": name, "seed": "mean",
                   "status": f"{len(ok_rows)}/{len(seeds)} ok"}
        for c in metric_cols:
            vals = [r[c] for r in ok_rows if c in r]
            if vals:
                summary[c] = float(np.mean(vals))
        rows.append({c: summary.get(c, "") for c in ["strategy", "seed", "status"] + metric_cols})
    _write_csv(os.path.join(out_dir, "table.csv"), rows)
    print(f"wrote {os.path.join(out_dir, 'table.csv')} "
          f"({len(cells)} cells, {len(strategies)} summary rows)")
    return EXIT_DIVERGED if any(diverged for diverged, _ in results) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="auxnas",
                                 description="Multi-task training with removable "
                                             "auxiliary modules and RL search over them.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--h", type=int, default=32)
    g.add_argument("--w", type=int, default=32)
    g.add_argument("--k", type=int, default=5)
    g.add_argument("--val-n", type=int, default=None)
    g.add_argument("--test-n", type=int, default=None)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train one strategy")
    t.add_argument("--config", default=None)
    t.add_argument("--strategy", required=True)
    t.add_argument("--init-ckpt", default=None)
    t.add_argument("--out", default=None, help="override config output_dir")
    t.set_defaults(fn=cmd_train)

    s = sub.add_parser("search", help="run the auxiliary-architecture search")
    s.add_argument("--config", default=None)
    s.set_defaults(fn=cmd_search)

    c = sub.add_parser("compare", help="strategy-matrix comparison table")
    c.add_argument("--config", default=None)
    c.add_argument("--strategies", required=True)
    c.add_argument("--seeds", required=True)
    c.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GenotypeError, DataError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, FormatError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
