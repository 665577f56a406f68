"""CLI commands: exit codes, artifacts, and reproducibility."""

import csv
import hashlib
import json
import os
import re
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

import auxnas
from auxnas.cli import main
from auxnas.config import (
    DEFAULTS,
    aux_cfg_from_config,
    resolve_config,
    search_cfg_from_config,
    train_cfg_from_config,
)
from auxnas.data import SyntheticDataset, gen_synthetic, generate_sample
from auxnas.model import ConfigError, TaskSpec, build_model, load_checkpoint, save_checkpoint
from auxnas.search import SearchCfg
from auxnas.train import STRATEGY_KINDS, AuxCfg, Strategy, TrainCfg, run_strategy

from _helpers import write_tensor_file


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_digest(root):
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        p = os.path.join(root, name)
        if os.path.isfile(p):
            h.update(name.encode())
            h.update(open(p, "rb").read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main(["gen-data", "--seed", "5", "--n", "30", "--out", str(data_dir),
                 "--h", "16", "--w", "16", "--val-n", "6", "--test-n", "2"]) == 0
    return root


def write_cfg(root, name, **over):
    cfg = {
        "data": {"dir": str(root / "data")},
        "train": {"iters": 8, "batch": 4, "eval_every": 0},
        "search": {"candidates": 10, "batch": 5, "short_iters": 4},
        "output_dir": str(root / name),
    }
    for key, sub in over.items():
        cfg.setdefault(key, {}).update(sub)
    path = root / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults_complete(self):
        cfg = resolve_config(None)
        assert cfg == DEFAULTS

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as e:
            resolve_config({"train": {"iters": 5, "learning_rate": 0.1}})
        assert "train.learning_rate" in str(e.value)

    def test_partial_override(self):
        cfg = resolve_config({"train": {"iters": 7}})
        assert cfg["train"]["iters"] == 7
        assert cfg["train"]["batch"] == 12

    def test_builders_reproduce_dataclass_defaults(self):
        cfg = resolve_config(None)
        assert train_cfg_from_config(cfg) == TrainCfg()
        assert search_cfg_from_config(cfg) == SearchCfg()
        assert aux_cfg_from_config(cfg) == AuxCfg()

    @pytest.mark.parametrize("section, key, value", [
        ("train", "lr0", 1), ("train", "augment", False),
        ("train", "probe_layers", ["encoder.stage1.w"]),
        ("aux", "genotype_path", "g.json"), ("aux", "genotype_path", None),
    ])
    def test_values_of_default_type_accepted(self, section, key, value):
        assert resolve_config({section: {key: value}})[section][key] == value

    @pytest.mark.parametrize("user, named", [
        ({"train": {"iters": True}}, "train.iters"),
        ({"train": {"iters": 8.0}}, "train.iters"),
        ({"train": {"lr0": True}}, "train.lr0"),
        ({"train": {"augment": 1}}, "train.augment"),
        ({"train": {"probe_layers": "encoder.stage1.w"}}, "train.probe_layers"),
        ({"model": {"tasks": ["seg", 2]}}, "model.tasks"),
        ({"aux": {"genotype_path": 3}}, "aux.genotype_path"),
        ({"aux": {"genotype_path": False}}, "aux.genotype_path"),
        ({"output_dir": None}, "output_dir"),
        ({"train": {"batch": 0}}, "train.batch"),
        ({"search": {"batch": -3}}, "search.batch"),
        ({"aux": {"c_aux": 0}}, "aux.c_aux"),
        ({"train": {"seed": -1}}, "train.seed"),
        ({"search": {"seed": -1}}, "search.seed"),
        ({"train": {"iters": -3}}, "train.iters"),
        ({"train": {"iters": 0}}, "train.iters"),
        ({"search": {"short_iters": 0}}, "search.short_iters"),
        ({"train": {"eval_every": -1}}, "train.eval_every"),
        ({"search": {"candidates": -1}}, "search.candidates"),
    ])
    def test_values_of_other_type_or_range_rejected(self, user, named):
        with pytest.raises(ConfigError) as e:
            resolve_config(user)
        assert named in str(e.value)

    @pytest.mark.parametrize("command, over, named", [
        (["train", "--strategy", "joint"], {"train": {"batch": "4"}}, "train.batch"),
        (["search"], {"search": {"batch": 0}}, "search.batch"),
        (["train", "--strategy", "joint"], {"train": {"seed": -1}}, "train.seed"),
        (["search"], {"search": {"seed": -1}}, "search.seed"),
        (["train", "--strategy", "joint"], {"train": {"iters": -3}}, "train.iters"),
        (["search"], {"search": {"short_iters": 0}}, "search.short_iters"),
    ])
    def test_bad_value_exits_2(self, workdir, capsys, command, over, named):
        cfg = write_cfg(workdir, "bad_value", **over)
        assert main([command[0], "--config", cfg, *command[1:]]) == 2
        assert named in capsys.readouterr().err


class TestGenData:
    def test_deterministic_directories(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["gen-data", "--seed", "7", "--n", "4", "--out", a,
                     "--h", "8", "--w", "8"]) == 0
        assert main(["gen-data", "--seed", "7", "--n", "4", "--out", b,
                     "--h", "8", "--w", "8"]) == 0
        assert dir_digest(a) == dir_digest(b)

    def test_reports_count_destination_and_time(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        assert main(["gen-data", "--seed", "2", "--n", "3", "--out", out,
                     "--h", "8", "--w", "8"]) == 0
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(rf"wrote 3 samples to {re.escape(out)} in \d+\.\d\d s", line), line

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["gen-data", "--seed", "1", "--n", "2"])
        assert e.value.code == 2

    def test_single_sample(self, tmp_path):
        out = str(tmp_path / "one")
        assert main(["gen-data", "--seed", "1", "--n", "1", "--out", out,
                     "--h", "8", "--w", "8"]) == 0
        manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
        assert manifest["n"] == 1

    @pytest.mark.parametrize("argv, named", [
        (["--n", "0"], "n must be >= 1"),
        (["--n", "4", "--h", "0"], "h must be >= 1"),
        (["--n", "4", "--w", "-2"], "w must be >= 1"),
        (["--n", "4", "--k", "12"], "k must be in 2..8"),
        (["--n", "4", "--k", "1"], "k must be in 2..8"),
        (["--n", "4", "--val-n", "-1"], "val_n must be >= 0"),
        (["--n", "4", "--test-n", "-1"], "test_n must be >= 0"),
        (["--n", "3", "--val-n", "5"], "val_n=5"),
        (["--n", "4", "--seed", "-1"], "seed must be >= 0"),
    ])
    def test_bad_argument_exits_2_and_writes_nothing(self, tmp_path, capsys, argv, named):
        out = tmp_path / "bad"
        assert main(["gen-data", "--seed", "1", "--out", str(out), *argv]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_joint_then_auxi_schema(self, workdir):
        cfg = write_cfg(workdir, "joint_run")
        assert main(["train", "--config", cfg, "--strategy", "joint"]) == 0
        joint_header = open(workdir / "joint_run" / "run.csv").readline()
        cfg2 = write_cfg(workdir, "auxi_run")
        assert main(["train", "--config", cfg2, "--strategy", "auxi-both"]) == 0
        auxi_header = open(workdir / "auxi_run" / "run.csv").readline()
        assert "loss_aux_t1" in auxi_header and "loss_aux_t1" not in joint_header
        for name in ("run.csv", "eval.csv", "model.ckpt", "config.resolved.json"):
            assert (workdir / "auxi_run" / name).exists()

    def test_prior_without_ckpt_exits_2(self, workdir):
        cfg = write_cfg(workdir, "prior_fail")
        assert main(["train", "--config", cfg, "--strategy", "prior-t1"]) == 2

    def test_prior_with_donor(self, workdir):
        cfg = write_cfg(workdir, "donor_run")
        assert main(["train", "--config", cfg, "--strategy", "single-t1"]) == 0
        ckpt = str(workdir / "donor_run" / "model.ckpt")
        cfg2 = write_cfg(workdir, "prior_run")
        assert main(["train", "--config", cfg2, "--strategy", "prior-t1",
                     "--init-ckpt", ckpt]) == 0

    def test_divergence_names_path_and_iteration(self, workdir, capsys):
        cfg = write_cfg(workdir, "diverge", train={"lr0": 1e30})
        with np.errstate(all="ignore"):
            assert main(["train", "--config", cfg, "--strategy", "joint"]) == 4
        with open(workdir / "diverge" / "run.csv") as fh:
            rows = list(csv.DictReader(fh))
        last = rows[-1]
        assert last["loss_total"] == "nan" and last["diverged_at"].startswith("encoder.")
        assert all(r["diverged_at"] == "" for r in rows[:-1])
        err = capsys.readouterr().err
        assert f"diverged at {last['diverged_at']} in iteration {last['iter']};" in err

    def test_truncated_init_ckpt_is_io_error(self, workdir, capsys):
        bad = workdir / "truncated.ckpt"
        bad.write_bytes(b"CKPT" + bytes(6))  # magic, then 6 of the 12 header bytes
        cfg = write_cfg(workdir, "trunc_prior")
        assert main(["train", "--config", cfg, "--strategy", "prior-t1",
                     "--init-ckpt", str(bad)]) == 3
        assert "truncated checkpoint header" in capsys.readouterr().err

    def test_huge_init_ckpt_header_length_is_io_error(self, workdir, capsys):
        m = build_model("baseline", [TaskSpec("seg", 5), TaskSpec("depth")],
                        np.random.default_rng(0))
        bad = workdir / "huge_header.ckpt"
        save_checkpoint(str(bad), m.params, m.variant, m.tasks)
        raw = bad.read_bytes()
        bad.write_bytes(raw[:8] + struct.pack("<Q", 2 ** 50) + raw[16:])
        cfg = write_cfg(workdir, "huge_prior")
        assert main(["train", "--config", cfg, "--strategy", "prior-t1",
                     "--init-ckpt", str(bad)]) == 3
        assert "truncated checkpoint header" in capsys.readouterr().err

    @pytest.mark.parametrize("over, named", [
        ({"data": {"n": 30}}, "data.n"),
        ({"aux": {"mode": "none"}}, "'none'"),
        ({"train": {"momentum": 0.9}}, "train.momentum"),
        ({"train": {"weight_decay": 1e-4}}, "train.weight_decay"),
        ({"train": {"probe_seed": 20240501}}, "train.probe_seed"),
        ({"train": {"probe_count": 64}}, "train.probe_count"),
        ({"search": {"ppo": {"epochs": 4}}}, "search.ppo"),
        ({"aux": {"allow_own_task": False}}, "aux.allow_own_task"),
    ])
    def test_removed_config_values_exit_2(self, workdir, capsys, over, named):
        cfg = write_cfg(workdir, "removed_value", **over)
        assert main(["train", "--config", cfg, "--strategy", "joint"]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"P": 4, "T": 2, "op_vocab_version": 1},
        {"P": "x", "T": 2, "op_vocab_version": 1, "cells": [[0, 0, 1, 1, 0]] * 8},
        [[0, 0, 1, 1, 0]] * 8,
        {"P": 4, "T": 2, "op_vocab_version": 1, "cells": [[0, "a", 1, 1, 0]] * 8},
        {"P": 1, "T": 1, "op_vocab_version": 1, "cells": [[0, 0, 1]]},
    ], ids=["no_cells", "P_not_int", "list", "str_token", "short_row"])
    def test_malformed_genotype_file_exits_2(self, workdir, capsys, doc):
        path = workdir / "malformed.genotype.json"
        path.write_text(json.dumps(doc))
        cfg = write_cfg(workdir, "malformed_genotype", aux={"genotype_path": str(path)})
        assert main(["train", "--config", cfg, "--strategy", "auxi-nas"]) == 2
        assert capsys.readouterr().err.startswith("error: genotype")

    def test_auxi_single_trains_basic_modules_under_genotype_mode(self, workdir):
        donor_cfg = write_cfg(workdir, "gmode_donor")
        assert main(["train", "--config", donor_cfg, "--strategy", "single-t1"]) == 0
        ckpt = str(workdir / "gmode_donor" / "model.ckpt")
        cfg = write_cfg(workdir, "gmode_cli", aux={"mode": "genotype"})
        assert main(["train", "--config", cfg, "--strategy", "auxi-t2",
                     "--init-ckpt", ckpt]) == 0
        ds = SyntheticDataset(str(workdir / "data"))
        _, state = load_checkpoint(ckpt)
        run_strategy(Strategy("auxi_single", task=2), ds, "baseline",
                     [TaskSpec("seg", ds.k), TaskSpec("depth")],
                     TrainCfg(iters=8, batch=4, eval_every=0), AuxCfg(mode="genotype"),
                     donor_state=state, out_dir=str(workdir / "gmode_api"))
        assert digest(workdir / "gmode_cli" / "run.csv") == \
            digest(workdir / "gmode_api" / "run.csv")

    @pytest.mark.parametrize("k", [3, 7])
    def test_seg_classes_come_from_dataset(self, workdir, k):
        data_dir = workdir / f"data_k{k}"
        assert main(["gen-data", "--seed", "5", "--n", "16", "--out", str(data_dir),
                     "--h", "16", "--w", "16", "--k", str(k), "--val-n", "4",
                     "--test-n", "2"]) == 0
        cfg = write_cfg(workdir, f"k{k}_run", data={"dir": str(data_dir)})
        assert main(["train", "--config", cfg, "--strategy", "joint"]) == 0
        header, _ = load_checkpoint(str(workdir / f"k{k}_run" / "model.ckpt"))
        assert [t["classes"] for t in header["tasks"] if t["kind"] == "seg"] == [k]

    @pytest.mark.parametrize("damage", ["img_shape", "manifest_h", "old_layout"])
    def test_dataset_disagreeing_with_manifest_is_io_error(self, workdir, tmp_path, capsys,
                                                            damage):
        data_dir = tmp_path / "data"
        gen_synthetic(str(data_dir), seed=5, n=16, h=16, w=16, val_n=4, test_n=2)
        manifest = json.loads((data_dir / "manifest.json").read_text())
        if damage == "img_shape":
            write_tensor_file(str(data_dir / "img.tnsr"), np.zeros((16, 3, 8, 8), np.float32))
        elif damage == "manifest_h":
            manifest["H"] = 8
        else:  # one file per sample and modality, listed in the manifest
            for m in ("img", "seg", "dep", "nrm"):
                (data_dir / f"{m}.tnsr").unlink()
            manifest["files"] = []
            for i in range(16):
                names = {m: f"{i}_{m}.tnsr" for m in ("img", "seg", "dep", "nrm")}
                for m, arr in generate_sample(5, i, 16, 16, 5).items():
                    write_tensor_file(str(data_dir / names[m]), arr)
                manifest["files"].append(names)
        (data_dir / "manifest.json").write_text(json.dumps(manifest))
        cfg = write_cfg(workdir, f"damaged_{damage}", data={"dir": str(data_dir)})
        assert main(["train", "--config", cfg, "--strategy", "joint"]) == 3
        assert "img.tnsr" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["n", "H", "W", "K", "splits", "not_json", "not_object"])
    def test_malformed_manifest_is_io_error(self, workdir, tmp_path, capsys, damage):
        data_dir = tmp_path / "data"
        gen_synthetic(str(data_dir), seed=5, n=8, h=16, w=16, val_n=2, test_n=2)
        path = data_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        texts = {"not_json": '{"n": 8,', "not_object": "[1, 2]"}
        if damage not in texts:  # a missing key
            del manifest[damage]
        path.write_text(texts.get(damage) or json.dumps(manifest))
        cfg = write_cfg(workdir, f"manifest_{damage}", data={"dir": str(data_dir)})
        assert main(["train", "--config", cfg, "--strategy", "joint"]) == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and (damage in texts or f"no {damage!r}" in err)

    @pytest.mark.parametrize("damage, named", [
        ({"splits": {"val": [999]}}, "'val'"),
        ({"K": "5"}, "'K'"),
        ({"splits": {"train": ["0"]}}, "'train'"),
        ({"splits": {"train": [-1]}}, "'train'"),
        ({"n": 0}, "'n'"),
        ({"H": True}, "'H'"),
        ({"W": 16.0}, "'W'"),
        ({"splits": [[0]]}, "'splits'"),
    ])
    def test_manifest_value_out_of_domain_is_io_error(self, workdir, tmp_path, capsys,
                                                      damage, named):
        data_dir = tmp_path / "data"
        gen_synthetic(str(data_dir), seed=5, n=8, h=16, w=16, val_n=2, test_n=2)
        path = data_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        for key, value in damage.items():
            if key == "splits" and isinstance(value, dict):
                manifest["splits"].update(value)
            else:
                manifest[key] = value
        path.write_text(json.dumps(manifest))
        cfg = write_cfg(workdir, "manifest_domain", data={"dir": str(data_dir)})
        assert main(["train", "--config", cfg, "--strategy", "joint"]) == 3
        err = capsys.readouterr().err
        assert "manifest.json" in err and named in err
        assert not (workdir / "manifest_domain" / "run.csv").exists()

    def test_empty_eval_split_exits_2_before_training(self, workdir, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--seed", "5", "--n", "12", "--out", str(data_dir),
                     "--h", "16", "--w", "16", "--val-n", "0", "--test-n", "2"]) == 0
        cfg = write_cfg(workdir, "empty_val", data={"dir": str(data_dir)})
        assert main(["train", "--config", cfg, "--strategy", "joint"]) == 2
        assert "split 'val' is empty" in capsys.readouterr().err
        assert not (workdir / "empty_val" / "run.csv").exists()

    def test_missing_dataset_is_io_error(self, workdir):
        cfg_path = workdir / "nodata.json"
        cfg_path.write_text(json.dumps({"data": {"dir": str(workdir / "missing")},
                                        "output_dir": str(workdir / "nodata")}))
        assert main(["train", "--config", str(cfg_path), "--strategy", "joint"]) == 3

    def test_checkpoint_reload_matches_eval_csv(self, workdir):
        from auxnas.train import evaluate_checkpoint
        cfg = write_cfg(workdir, "reload_run")
        assert main(["train", "--config", cfg, "--strategy", "joint"]) == 0
        out = workdir / "reload_run"
        ds = SyntheticDataset(str(workdir / "data"))
        metrics = evaluate_checkpoint(str(out / "model.ckpt"), ds, "val", 4)
        lines = open(out / "eval.csv").read().splitlines()
        header = lines[0].split(",")
        last = dict(zip(header, lines[-1].split(",")))
        for t in metrics:
            for name, v in metrics[t].items():
                assert repr(v) == last[name]  # bitwise: repr round-trips floats

    def test_resolved_config_reproduces_run(self, workdir):
        cfg = write_cfg(workdir, "repro1")
        assert main(["train", "--config", cfg, "--strategy", "joint"]) == 0
        resolved = str(workdir / "repro1" / "config.resolved.json")
        doc = json.loads(open(resolved).read())
        doc["output_dir"] = str(workdir / "repro2")
        (workdir / "repro2.json").write_text(json.dumps(doc))
        assert main(["train", "--config", str(workdir / "repro2.json"),
                     "--strategy", "joint"]) == 0
        assert digest(workdir / "repro1" / "run.csv") == digest(workdir / "repro2" / "run.csv")
        assert digest(workdir / "repro1" / "eval.csv") == digest(workdir / "repro2" / "eval.csv")


class TestEveryStrategy:
    """Each strategy kind trains a few iterations through the CLI."""

    DONOR_TASK = {"prior": 1, "auxi_single": 2}  # prior-t1 and auxi-t1

    @pytest.fixture(scope="class")
    def smoke(self, workdir):
        for t in (1, 2):
            cfg = write_cfg(workdir, f"smoke_donor_t{t}", train={"iters": 3})
            assert main(["train", "--config", cfg, "--strategy", f"single-t{t}"]) == 0
        genotype = workdir / "smoke.genotype.json"
        genotype.write_text(json.dumps({
            "P": 4, "T": 2, "op_vocab_version": 1,
            "cells": [[0, min(p, 3), 1, 1, 0] for _ in range(2) for p in range(4)]}))
        return genotype

    @pytest.mark.parametrize("kind", sorted(STRATEGY_KINDS))
    def test_trains_three_iterations(self, workdir, smoke, kind):
        name = STRATEGY_KINDS[kind]
        name += "1" if name.endswith("-t") else ""
        cfg = write_cfg(workdir, f"smoke_{kind}", train={"iters": 3},
                        aux={"genotype_path": str(smoke)})
        argv = ["train", "--config", cfg, "--strategy", name]
        if kind in self.DONOR_TASK:
            donor = workdir / f"smoke_donor_t{self.DONOR_TASK[kind]}" / "model.ckpt"
            argv += ["--init-ckpt", str(donor)]
        assert main(argv) == 0
        assert len(open(workdir / f"smoke_{kind}" / "run.csv").read().splitlines()) == 1 + 3

    def test_compare_joint_and_kendall(self, workdir):
        cfg = write_cfg(workdir, "smoke_cmp", train={"iters": 3})
        assert main(["compare", "--config", cfg, "--strategies", "joint,kendall",
                     "--seeds", "1"]) == 0


class TestSearch:
    def test_search_artifacts(self, workdir):
        cfg = write_cfg(workdir, "search_run")
        assert main(["search", "--config", cfg]) == 0
        out = workdir / "search_run"
        lines = open(out / "search.log").read().strip().splitlines()
        assert len(lines) == 10
        rec = json.loads(lines[0])
        assert {"candidate_id", "seed", "genotype", "metrics", "reward",
                "diverged", "valid", "budget_iters", "wall_ms"} == set(rec)
        recs = [json.loads(line) for line in lines]
        assert any(r["valid"] for r in recs)
        assert all(r["budget_iters"] == (4 if r["valid"] else 0) for r in recs)
        assert (out / "opstats.csv").exists()
        best = json.loads(open(out / "best.genotype.json").read())
        assert best["op_vocab_version"] == 1
        assert len(best["cells"]) == 4 * 2

    def test_opstats_invalid_matches_search_log(self, workdir):
        out = workdir / "search_run"
        valid = [json.loads(line)["valid"] for line in open(out / "search.log")]
        with open(out / "opstats.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["candidates"]) for r in rows] == [5, 5]
        assert [int(r["invalid"]) for r in rows] == [valid[:5].count(False),
                                                     valid[5:].count(False)]

    def test_zero_candidates(self, workdir):
        cfg = write_cfg(workdir, "search_zero", search={"candidates": 0})
        assert main(["search", "--config", cfg]) == 0
        assert open(workdir / "search_zero" / "search.log").read() == ""

    def test_best_genotype_feeds_training(self, workdir):
        best = str(workdir / "search_run" / "best.genotype.json")
        cfg = write_cfg(workdir, "nas_train", aux={"genotype_path": best})
        assert main(["train", "--config", cfg, "--strategy", "auxi-nas"]) == 0

    def test_search_log_deterministic_modulo_wall_time(self, workdir):
        def run(name):
            cfg = write_cfg(workdir, name)
            assert main(["search", "--config", cfg]) == 0
            rows = []
            for line in open(workdir / name / "search.log"):
                doc = json.loads(line)
                doc.pop("wall_ms")
                rows.append(doc)
            return rows
        assert run("sdet_a") == run("sdet_b")


class TestCompare:
    def test_table_shape_and_determinism(self, workdir):
        cfg = write_cfg(workdir, "cmp1")
        rc = main(["compare", "--config", cfg, "--strategies", "joint,single-t1",
                   "--seeds", "1,2"])
        assert rc == 0
        table = workdir / "cmp1" / "table.csv"
        lines = open(table).read().splitlines()
        assert len(lines) == 1 + 2 * 2 + 2  # header + cells + summaries
        header = lines[0].split(",")
        assert header[:3] == ["strategy", "seed", "status"]
        assert {"miou", "pixacc", "rel", "rms"} <= set(header)
        # single-t1 rows leave depth columns blank
        single_row = next(l for l in lines if l.startswith("single-t1,1"))
        cols = dict(zip(header, single_row.split(",")))
        assert cols["miou"] != "" and cols["rel"] == ""

        cfg2 = write_cfg(workdir, "cmp2")
        assert main(["compare", "--config", cfg2, "--strategies", "joint,single-t1",
                     "--seeds", "1,2"]) == 0
        assert digest(workdir / "cmp1" / "table.csv") == digest(workdir / "cmp2" / "table.csv")

    def test_donor_strategies_auto_build(self, workdir):
        cfg = write_cfg(workdir, "cmp_donor")
        rc = main(["compare", "--config", cfg, "--strategies", "auxi-t2",
                   "--seeds", "3"])
        assert rc == 0
        assert (workdir / "cmp_donor" / "donors" / "single-t1-s3" / "model.ckpt").exists()

    @pytest.mark.parametrize("strategies, seeds, named", [
        ("joint", "1,x", "--seeds must be comma-separated integers"),
        ("joint", "2,1,02", "--seeds must name at least one value, each once"),
        ("joint", ",", "--seeds must name at least one value, each once"),
        ("joint,single-t1,joint", "1", "--strategies must name at least one value, each once"),
        ("joint", "1,-1", "--seeds must not be negative"),
        ("auxi-t2,auxi-t02", "1", "--strategies must name at least one value, each once"),
        ("joint,JOINT", "1", "--strategies must name at least one value, each once"),
        ("joint,nope", "1", "unknown strategy 'nope'"),
    ])
    def test_bad_or_repeated_value_exits_2(self, workdir, capsys, strategies, seeds, named):
        cfg = write_cfg(workdir, "cmp_bad")
        assert main(["compare", "--config", cfg, "--strategies", strategies,
                     "--seeds", seeds]) == 2
        assert named in capsys.readouterr().err
        assert not (workdir / "cmp_bad").exists()

    def test_one_cpu_writes_the_same_bytes_as_two(self, workdir, monkeypatch):
        # two CPUs train the donors and cells in a job pool, one CPU inline
        def run(name):
            cfg = write_cfg(workdir, name)
            assert main(["compare", "--config", cfg, "--strategies", "joint,prior-t1",
                         "--seeds", "1,2"]) == 0
            out = workdir / name
            cells = [out / "cells" / f"{s}-s{seed}" / f for s in ("joint", "prior-t1")
                     for seed in (1, 2) for f in ("run.csv", "eval.csv", "model.ckpt")]
            return [digest(p) for p in [out / "table.csv"] + cells]

        two = run("cmp_two_cpus")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert run("cmp_one_cpu") == two


def child_pids(pid):
    """The children of every thread of process ``pid``."""
    pids = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                pids += [int(c) for c in fh.read().split()]
        except FileNotFoundError:  # the thread ended
            pass
    return pids


def is_running(pid):
    """True while ``pid`` exists and is neither a zombie nor dead."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2
                    or not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="needs two CPUs and /proc/<pid>/task/<tid>/children")
class TestKilled:
    @pytest.mark.parametrize("command,n_children", [
        (["search"], 2),                         # the pool's workers
        (["train", "--strategy", "joint"], 1),   # the batch producer
        (["compare", "--strategies", "joint", "--seeds", "1,2"], 2),  # the pool's workers
    ])
    def test_sigkill_leaves_no_child_running(self, workdir, command, n_children):
        cfg = write_cfg(workdir, f"killed_{command[0]}", train={"iters": 100000},
                        search={"candidates": 1000, "short_iters": 200})
        src = os.path.dirname(os.path.dirname(auxnas.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "auxnas.cli", *command, "--config", cfg],
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        kids = []
        try:
            deadline = time.monotonic() + 60
            while len(kids) < n_children:
                assert proc.poll() is None and time.monotonic() < deadline, "no children"
                time.sleep(0.05)
                kids = child_pids(proc.pid)
            time.sleep(0.5)  # the children are at work
        finally:
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 5
        while any(map(is_running, kids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [k for k in kids if is_running(k)]
        for k in left:
            os.kill(k, signal.SIGKILL)
        assert not left, f"children of the killed run still running after 5 s: {left}"
