"""Synthetic dataset generation, augmentation invariants, tensor file format."""

import hashlib
import io
import os
import struct
import tracemalloc

import numpy as np
import pytest

from auxnas.data import (
    _CHUNK,
    _CLASS_PALETTE,
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
    write_tensor_stream,
)

from _helpers import write_tensor_file


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


def reference_sample(seed, index, h, w, k):
    """The per-scene generator that the chunked one replaced, kept as an
    oracle: every scene must come out byte for byte the same."""
    def box_smooth3_2d(depth):
        p = np.pad(depth, 1, mode="edge")
        acc = np.zeros_like(depth, dtype=np.float64)
        for dy in range(3):
            for dx in range(3):
                acc += p[dy:dy + depth.shape[0], dx:dx + depth.shape[1]]
        return (acc / 9.0).astype(depth.dtype)

    def derive_normals_2d(depth):
        d = depth.astype(np.float64)
        p = np.pad(d, 1, mode="edge")
        ddx = (p[1:-1, 2:] - p[1:-1, :-2]) / 2.0
        ddy = (p[2:, 1:-1] - p[:-2, 1:-1]) / 2.0
        n = np.stack([-ddx, -ddy, np.ones_like(d)])
        n /= np.sqrt((n * n).sum(axis=0, keepdims=True))
        return n.astype(np.float32)

    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    d0 = rng.uniform(2.5, 3.5)
    gx, gy = rng.uniform(-0.045, 0.045, 2)
    plane = d0 + gx * (xx - w / 2) + gy * (yy - h / 2)
    depth = plane.copy()
    seg = np.zeros((h, w), dtype=np.int32)
    albedo = np.empty((3, h, w), dtype=np.float64)
    albedo[:] = rng.uniform(0.45, 0.62, 3)[:, None, None]
    for _ in range(int(rng.integers(1, 5))):
        cls = int(rng.integers(1, k))
        cy = rng.uniform(0.2, 0.8) * h
        cx = rng.uniform(0.2, 0.8) * w
        if rng.random() < 0.5:
            sy = rng.uniform(0.14, 0.32) * h
            sx = rng.uniform(0.14, 0.32) * w
            mask = (np.abs(yy - cy) <= sy) & (np.abs(xx - cx) <= sx)
        else:
            r = rng.uniform(0.14, 0.32) * min(h, w)
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        offset = rng.uniform(0.35, 1.1)
        depth[mask] = plane[mask] - offset
        seg[mask] = cls
        color = np.clip(_CLASS_PALETTE[cls - 1] + rng.uniform(-0.08, 0.08, 3), 0.05, 0.95)
        albedo[:, mask] = color[:, None]
    depth = np.maximum(box_smooth3_2d(depth), 0.2)
    nrm = derive_normals_2d(depth)
    shade = 2.3 / (depth + 1.0)
    img = albedo * shade[None] + rng.normal(0.0, 0.01, (3, h, w))
    return {
        "img": np.clip(img, 0.0, 1.0).astype(np.float32),
        "seg": seg,
        "dep": depth.astype(np.float32),
        "nrm": nrm,
    }


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


class TestStackedGeometry:
    """The geometry helpers act on the last two axes: a stack gives, slice
    for slice, the same bits as one map at a time."""

    @pytest.mark.parametrize("shape", [(5, 7, 9), (2, 3, 1, 1), (4, 3, 40)])
    def test_box_smooth3_stack_equals_slices(self, shape):
        d = np.random.default_rng(3).random(shape) * 3 + 0.5
        stacked = box_smooth3(d)
        for idx in np.ndindex(shape[:-2]):
            assert stacked[idx].tobytes() == box_smooth3(d[idx]).tobytes()

    @pytest.mark.parametrize("shape", [(5, 7, 9), (2, 3, 1, 1), (4, 3, 40)])
    def test_derive_normals_stack_equals_slices(self, shape):
        d = box_smooth3(np.random.default_rng(4).random(shape) * 3 + 0.5)
        stacked = derive_normals(d)
        assert stacked.shape == shape[:-2] + (3,) + shape[-2:]
        for idx in np.ndindex(shape[:-2]):
            assert stacked[idx].tobytes() == derive_normals(d[idx]).tobytes()


class TestChunkedGenerator:
    @pytest.mark.parametrize("seed,n,h,w,k", [
        (4, 1, 12, 10, 6),
        (1, _CHUNK, 3, 40, 2),
        (9, 2 * _CHUNK + 5, 12, 10, 8),
        (0, _CHUNK + 1, 1, 1, 2),
        (13, 7, 3, 40, 8),
        (2, 3 * _CHUNK - 1, 32, 32, 5),
    ])
    def test_dataset_equals_per_scene_oracle(self, tmp_path, seed, n, h, w, k):
        gen_synthetic(str(tmp_path / "d"), seed=seed, n=n, h=h, w=w, k=k, val_n=0, test_n=0)
        ds = SyntheticDataset(str(tmp_path / "d"))
        for i in range(n):
            want = reference_sample(seed, i, h, w, k)
            for m, arr in want.items():
                got = ds.arrays[m][i]
                assert got.dtype == arr.dtype and got.shape == arr.shape, (i, m)
                assert got.tobytes() == arr.tobytes(), (i, m)

    def test_chunks_are_written_as_they_finish(self, tmp_path):
        # the peak is a chunk's buffers, not the stacked dataset (8 MB here)
        tracemalloc.start()
        try:
            gen_synthetic(str(tmp_path / "d"), seed=1, n=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = sum(p.stat().st_size for p in (tmp_path / "d").glob("*.tnsr"))
        assert peak < written / 2

    @pytest.mark.parametrize("seed,index,h,w,k", [
        (5, 3, 32, 32, 5), (0, 0, 1, 1, 8), (7, 40, 3, 40, 2), (4, 6, 12, 10, 6)])
    def test_generate_sample_equals_oracle(self, seed, index, h, w, k):
        want = reference_sample(seed, index, h, w, k)
        got = generate_sample(seed, index, h, w, k)
        assert set(got) == set(want)
        for m in want:
            assert got[m].dtype == want[m].dtype and got[m].shape == want[m].shape
            assert got[m].tobytes() == want[m].tobytes(), m


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
