"""Synthetic dataset generation, augmentation invariants, tensor file format."""

import hashlib
import io
import os
import struct

import numpy as np
import pytest

from auxnas.data import (
    FormatError,
    IGNORE_LABEL,
    SyntheticDataset,
    augment,
    box_smooth3,
    crop_sample,
    derive_normals,
    flip_sample,
    gen_synthetic,
    generate_sample,
    read_tensor_file,
    rescale_sample,
    write_tensor_file,
    write_tensor_stream,
)


def tnsr_bytes(arr):
    buf = io.BytesIO()
    write_tensor_stream(buf, arr)
    return buf.getvalue()


def dir_digest(root):
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        h.update(name.encode())
        with open(os.path.join(root, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class TestTensorFile:
    @pytest.mark.parametrize("arr", [
        np.random.default_rng(0).random((2, 3, 4)).astype(np.float32),
        np.random.default_rng(1).random((5,)).astype(np.float64),
        np.arange(12, dtype=np.int32).reshape(3, 4),
    ])
    def test_roundtrip(self, tmp_path, arr):
        path = str(tmp_path / "t.tnsr")
        write_tensor_file(path, arr)
        back = read_tensor_file(path)
        assert back.dtype == arr.dtype and np.array_equal(back, arr)

    def test_header_arithmetic(self):
        arr = np.zeros((2, 2), dtype=np.float32)
        assert len(tnsr_bytes(arr)) == 4 + 4 + 1 + 1 + 8 + 16

    def test_corrupted_magic(self, tmp_path):
        path = str(tmp_path / "bad.tnsr")
        arr = np.zeros(3, dtype=np.float32)
        raw = bytearray(tnsr_bytes(arr))
        raw[0] = ord("X")
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(FormatError):
            read_tensor_file(path)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "short.tnsr")
        raw = tnsr_bytes(np.ones(4, dtype=np.float32))
        with open(path, "wb") as fh:
            fh.write(raw[:-2])
        with pytest.raises(FormatError):
            read_tensor_file(path)

    def test_dims_past_end_of_file(self, tmp_path):
        # dims claiming 2^25 x 2^25 float64 (2^53 bytes) are rejected before
        # the payload read could try to allocate them
        path = str(tmp_path / "huge.tnsr")
        raw = bytearray(tnsr_bytes(np.ones((1, 1), dtype=np.float64)))
        raw[10:18] = struct.pack("<2I", 2 ** 25, 2 ** 25)
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(FormatError, match="truncated payload"):
            read_tensor_file(path)

    def test_trailing_garbage(self, tmp_path):
        path = str(tmp_path / "long.tnsr")
        with open(path, "wb") as fh:
            fh.write(tnsr_bytes(np.ones(2, dtype=np.float32)) + b"zz")
        with pytest.raises(FormatError):
            read_tensor_file(path)

    def test_unsupported_dtype(self):
        with pytest.raises(FormatError):
            write_tensor_stream(io.BytesIO(), np.zeros(2, dtype=np.int64))

    def test_non_contiguous_array_written_in_logical_order(self, tmp_path):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4).T
        path = str(tmp_path / "t.tnsr")
        write_tensor_file(path, arr)
        assert np.array_equal(read_tensor_file(path), arr)


class TestDeriveNormals:
    def test_flat_plane(self):
        n = derive_normals(np.full((6, 6), 3.0))
        assert np.allclose(n[0], 0) and np.allclose(n[1], 0) and np.allclose(n[2], 1)

    def test_unit_slope_plane(self):
        xx = np.tile(np.arange(8.0), (8, 1)) + 2.0
        n = derive_normals(xx)
        interior = n[:, 1:-1, 1:-1]
        s = 1 / np.sqrt(2)
        assert np.allclose(interior[0], -s, atol=1e-6)
        assert np.allclose(interior[1], 0, atol=1e-6)
        assert np.allclose(interior[2], s, atol=1e-6)

    def test_unit_norm_everywhere(self):
        d = box_smooth3(np.random.default_rng(2).random((10, 10)) + 1.0)
        n = derive_normals(d)
        assert np.allclose(np.sqrt((n ** 2).sum(axis=0)), 1.0, atol=1e-6)


class TestGeneration:
    def test_sample_invariants(self):
        s = generate_sample(5, 3, 32, 32, 5)
        assert s["img"].shape == (3, 32, 32) and s["img"].min() >= 0 and s["img"].max() <= 1
        assert (s["dep"] > 0).all()
        assert np.allclose(np.sqrt((s["nrm"] ** 2).sum(axis=0)), 1.0, atol=1e-6)
        labels = set(np.unique(s["seg"]))
        assert labels <= set(range(5))

    def test_deterministic_directories(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        gen_synthetic(str(a), seed=7, n=6, h=16, w=16)
        gen_synthetic(str(b), seed=7, n=6, h=16, w=16)
        assert dir_digest(a) == dir_digest(b)
        c = tmp_path / "c"
        gen_synthetic(str(c), seed=8, n=6, h=16, w=16)
        assert dir_digest(a) != dir_digest(c)

    def test_class_histogram_covers_all_classes(self):
        seen = set()
        for i in range(300):
            seen.update(np.unique(generate_sample(11, i, 16, 16, 5)).tolist()
                        if False else np.unique(generate_sample(11, i, 16, 16, 5)["seg"]).tolist())
            if seen >= set(range(5)):
                break
        assert seen >= set(range(5))

    def test_splits_disjoint_and_covering(self, tmp_path):
        m = gen_synthetic(str(tmp_path / "d"), seed=1, n=20, h=8, w=8, val_n=4, test_n=2)
        sp = m["splits"]
        assert sorted(sp["train"] + sp["val"] + sp["test"]) == list(range(20))
        assert len(sp["train"]) == 14
        assert sorted(sp["meta_train"] + sp["meta_val"]) == sp["train"]
        assert set(sp["meta_train"]).isdisjoint(sp["meta_val"])

    def test_samples_equal_generate_sample(self, tmp_path):
        gen_synthetic(str(tmp_path / "d"), seed=4, n=7, h=12, w=10, k=6)
        ds = SyntheticDataset(str(tmp_path / "d"))
        for i in range(7):
            want = generate_sample(4, i, 12, 10, 6)
            got = ds.sample(i)
            assert set(got) == set(want)
            for m in want:
                assert got[m].dtype == want[m].dtype and got[m].shape == want[m].shape
                assert got[m].tobytes() == want[m].tobytes()

    def test_directory_holds_manifest_and_four_stacked_files(self, tmp_path):
        m = gen_synthetic(str(tmp_path / "d"), seed=2, n=5, h=8, w=8)
        assert sorted(os.listdir(tmp_path / "d")) == [
            "dep.tnsr", "img.tnsr", "manifest.json", "nrm.tnsr", "seg.tnsr"]
        assert "files" not in m
        assert read_tensor_file(str(tmp_path / "d" / "img.tnsr")).shape == (5, 3, 8, 8)
        assert read_tensor_file(str(tmp_path / "d" / "seg.tnsr")).shape == (5, 8, 8)

    def test_samples_are_read_only(self, tmp_path):
        gen_synthetic(str(tmp_path / "d"), seed=2, n=3, h=8, w=8)
        s = SyntheticDataset(str(tmp_path / "d")).sample(1)
        for m in ("img", "seg", "dep", "nrm"):
            with pytest.raises(ValueError):
                s[m][..., 0] = 0

    def test_single_sample_manifest(self, tmp_path):
        m = gen_synthetic(str(tmp_path / "one"), seed=0, n=1, h=8, w=8)
        assert m["splits"]["train"] == [0]
        ds = SyntheticDataset(str(tmp_path / "one"))
        assert len(ds) == 1 and ds.sample(0)["img"].shape == (3, 8, 8)


class TestAugment:
    def sample(self):
        return generate_sample(3, 0, 16, 16, 5)

    def test_flip_involution(self):
        s = self.sample()
        back = flip_sample(flip_sample(s))
        for m in ("img", "seg", "dep", "nrm"):
            assert np.array_equal(back[m], s[m])

    def test_rescale_divides_depth(self):
        s = self.sample()
        s["dep"][...] = 4.0
        up = rescale_sample(s, 2.0)
        assert up["dep"].shape == (32, 32)
        assert np.allclose(up["dep"], 2.0, atol=1e-6)

    def test_crop_pads_with_ignore_and_edges(self):
        s = rescale_sample(self.sample(), 0.5)
        out = crop_sample(s, 16, 16, 0, 0)
        assert out["seg"].shape == (16, 16)
        assert (out["seg"][:, 8:] == IGNORE_LABEL).all()
        assert (out["dep"] > 0).all()

    def test_augment_preserves_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            out = augment(self.sample(), rng, (16, 16))
            assert out["img"].shape == (3, 16, 16)
            labels = set(np.unique(out["seg"]))
            assert labels <= (set(range(5)) | {IGNORE_LABEL})
            assert (out["dep"] > 0).all()
            norms = np.sqrt((out["nrm"] ** 2).sum(axis=0))
            assert np.abs(norms - 1.0).max() <= 1e-5

    def test_augment_deterministic_under_seed(self):
        a = augment(self.sample(), np.random.default_rng(9), (16, 16))
        b = augment(self.sample(), np.random.default_rng(9), (16, 16))
        for m in ("img", "seg", "dep", "nrm"):
            assert np.array_equal(a[m], b[m])
