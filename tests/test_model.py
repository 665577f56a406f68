"""Model variants: shapes, parameter partition, task isolation, checkpoints."""

import json
import struct

import numpy as np
import pytest

from auxnas import autodiff as ad
from auxnas.data import FormatError
from auxnas.model import (
    ConfigError,
    TaskSpec,
    build_model,
    load_checkpoint,
    save_checkpoint,
)

from _helpers import n_values

TASKS2 = [TaskSpec("seg", 5), TaskSpec("depth")]
TASKS3 = [TaskSpec("seg", 5), TaskSpec("depth"), TaskSpec("normal")]


def rng():
    return np.random.default_rng(42)


class TestBuild:
    def test_baseline_output_shapes(self):
        m = build_model("baseline", TASKS2, rng())
        x = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
        preds, taps = m.forward(x, "train")
        assert preds[1].shape == (2, 5, 32, 32)
        assert preds[2].shape == (2, 1, 32, 32)
        assert len(taps) == 4

    def test_tap_resolutions(self):
        m = build_model("baseline", TASKS2, rng())
        x = np.zeros((1, 3, 32, 32), dtype=np.float32)
        _, taps = m.forward(x, "eval")
        for p, tap in enumerate(taps, start=1):
            assert tap.shape[2] == 32 // 2 ** p
            assert tap.shape[1] == m.tap_channels[p - 1]

    def test_parameter_partition(self):
        m = build_model("context", TASKS3, rng())
        ps = m.params
        tags = [ps.tag(p) for p in ps.paths()]
        n_shared = sum(t == "shared" for t in tags)
        n_task = sum(t.startswith("task:") for t in tags)
        assert n_shared + n_task == len(ps)
        assert n_values(ps, "shared") + sum(
            n_values(ps, ad.tag_task(t)) for t in (1, 2, 3)
        ) == sum(ps[p].size for p in ps.paths())

    def test_context_has_more_shared_params(self):
        base = build_model("baseline", TASKS2, rng())
        ctx = build_model("context", TASKS2, rng())
        assert n_values(ctx.params, "shared") > n_values(base.params, "shared")

    def test_ushape_forward_and_input_check(self):
        m = build_model("ushape", TASKS2, rng(), input_hw=(32, 32))
        x = np.random.default_rng(1).random((1, 3, 32, 32)).astype(np.float32)
        preds, _ = m.forward(x, "train")
        assert preds[1].shape == (1, 5, 32, 32)
        with pytest.raises(ConfigError):
            build_model("ushape", TASKS2, rng(), input_hw=(24, 24))

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            build_model("resnet", TASKS2, rng())
        with pytest.raises(ConfigError):
            build_model("baseline", [], rng())
        with pytest.raises(ConfigError):
            TaskSpec("seg", 1)
        with pytest.raises(ConfigError):
            build_model("baseline", [TaskSpec("depth"), TaskSpec("depth")], rng())

    def test_small_input_supported_for_baseline(self):
        m = build_model("baseline", TASKS2, rng())
        preds, taps = m.forward(np.zeros((1, 3, 4, 4), dtype=np.float32), "train")
        assert preds[1].shape == (1, 5, 4, 4)
        assert taps[0].shape[2] == 2


class TestForward:
    def test_normal_head_unit_norm(self):
        m = build_model("baseline", TASKS3, rng())
        x = np.random.default_rng(2).random((2, 3, 32, 32)).astype(np.float32)
        preds, _ = m.forward(x, "train")
        norms = np.sqrt((preds[3].values ** 2).sum(axis=1))
        assert np.abs(norms - 1.0).max() <= 1e-6

    def test_task_isolation(self):
        m = build_model("baseline", TASKS2, rng())
        x = np.random.default_rng(3).random((1, 3, 32, 32)).astype(np.float32)
        before, _ = m.forward(x, "eval")
        for p in m.params.tagged(ad.tag_task(2)):
            m.params[p].values[...] = 0
        after, _ = m.forward(x, "eval")
        assert np.array_equal(before[1].values, after[1].values)
        assert not np.array_equal(before[2].values, after[2].values)

    def test_shared_perturbation_changes_all(self):
        m = build_model("baseline", TASKS2, rng())
        x = np.random.default_rng(4).random((1, 3, 32, 32)).astype(np.float32)
        before, _ = m.forward(x, "eval")
        m.params["encoder.stem.w"].values[...] += 0.05
        after, _ = m.forward(x, "eval")
        assert not np.array_equal(before[1].values, after[1].values)
        assert not np.array_equal(before[2].values, after[2].values)

    def test_nan_input_raises_with_path(self):
        m = build_model("baseline", TASKS2, rng())
        x = np.full((1, 3, 32, 32), np.nan, dtype=np.float32)
        with pytest.raises(ad.NumericError) as exc:
            m.forward(x, "train")
        assert "encoder" in str(exc.value)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        m = build_model("baseline", TASKS2, rng())
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), m.params, m.variant, m.tasks)
        header, state = load_checkpoint(str(path))
        assert header["variant"] == "baseline"
        assert header["tap_channels"] == [8, 16, 24, 32]
        m2 = build_model("baseline", TASKS2, np.random.default_rng(777))
        m2.params.load_state_dict(state)
        x = np.random.default_rng(5).random((1, 3, 32, 32)).astype(np.float32)
        a, _ = m.forward(x, "eval")
        b, _ = m2.forward(x, "eval")
        assert np.array_equal(a[1].values, b[1].values)
        assert np.array_equal(a[2].values, b[2].values)

    def test_shared_only_load(self, tmp_path):
        donor = build_model("baseline", [TaskSpec("seg", 5)], rng())
        path = tmp_path / "donor.ckpt"
        save_checkpoint(str(path), donor.params, donor.variant, donor.tasks)
        _, state = load_checkpoint(str(path))
        m = build_model("baseline", TASKS2, np.random.default_rng(9))
        m.params.load_state_dict(state, paths=m.params.tagged("shared"))
        for p in m.params.tagged("shared"):
            assert np.array_equal(m.params[p].values, state[p])

    def saved(self, tmp_path):
        m = build_model("baseline", TASKS2, rng())
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), m.params, m.variant, m.tasks)
        return path

    @pytest.mark.parametrize("keep", [4, 10, 16, 40])
    def test_truncated_header_is_format_error(self, tmp_path, keep):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError, match="truncated checkpoint header"):
            load_checkpoint(str(path))

    def test_huge_header_length_is_format_error(self, tmp_path):
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + struct.pack("<Q", 2 ** 50) + raw[16:])
        with pytest.raises(FormatError, match="truncated checkpoint header"):
            load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="trailing bytes"):
            load_checkpoint(str(path))

    def test_foreign_tap_channels_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + hlen])
        header["tap_channels"] = [8, 16, 24, 64]
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:])
        with pytest.raises(ConfigError, match="tap_channels"):
            load_checkpoint(str(path))
