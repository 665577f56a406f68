"""Deterministic synthetic multi-task scenes plus the binary tensor format.

Each scene is a sloped background depth plane with 1..4 raised rectangles
or disks; segmentation classes, depth offsets, and albedos attach to the
same geometry so the three tasks stay correlated. Generation is a pure
function of (seed, index).
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from .autodiff import bilinear_resize_array

IGNORE_LABEL = 255

_MAGIC = b"TNSR"
_VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<i4")}
_CODE_FOR = {np.dtype(np.float32): 1, np.dtype(np.float64): 2, np.dtype(np.int32): 3}


class FormatError(Exception):
    """Malformed tensor file: bad magic, version, dtype, or payload size."""


def _write_tensor_header(fh, shape: tuple[int, ...], dtype: np.dtype) -> np.dtype:
    """Write a TNSR header; returns the dtype its payload must be written in."""
    code = _CODE_FOR.get(dtype)
    if code is None:
        raise FormatError(f"unsupported dtype {dtype}")
    fh.write(_MAGIC + struct.pack(f"<IBB{len(shape)}I", _VERSION, code, len(shape), *shape))
    return _DTYPE_CODES[code]


def write_tensor_stream(fh, arr: np.ndarray) -> None:
    """Write one TNSR block; the payload goes out from the array's own memory."""
    dtype = _write_tensor_header(fh, arr.shape, arr.dtype)
    fh.write(np.ascontiguousarray(arr, dtype=dtype).data)


def write_json(path: str, doc) -> None:
    """Write ``doc`` with sorted keys, one-space indent and a final LF."""
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_exact(fh, size: int, what: str) -> bytes:
    """Read exactly ``size`` bytes; a short read raises FormatError, and so
    does a size past the end of the file, before anything is allocated."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise FormatError(f"truncated {what}: {size} bytes wanted, {left} left")
    raw = fh.read(size)
    if len(raw) != size:
        raise FormatError(f"truncated {what}")
    return raw


def read_tensor_stream(fh) -> np.ndarray:
    magic = fh.read(4)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    version, code, ndim = struct.unpack("<IBB", read_exact(fh, 6, "header"))
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}")
    if code not in _DTYPE_CODES:
        raise FormatError(f"unknown dtype code {code}")
    shape = struct.unpack(f"<{ndim}I", read_exact(fh, 4 * ndim, "dims"))
    dtype = _DTYPE_CODES[code]
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    payload = read_exact(fh, count * dtype.itemsize, "payload")
    return np.frombuffer(payload, dtype=dtype).reshape(shape)


def read_tensor_file(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        arr = read_tensor_stream(fh)
        if fh.read(1):
            raise FormatError("trailing bytes after payload")
    return arr


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------


def _pad_edge(a: np.ndarray) -> np.ndarray:
    """Replicate the border of the last two axes by one pixel."""
    return np.pad(a, [(0, 0)] * (a.ndim - 2) + [(1, 1), (1, 1)], mode="edge")


def box_smooth3(depth: np.ndarray) -> np.ndarray:
    """3x3 box filter with replicated borders over the last two axes."""
    h, w = depth.shape[-2:]
    p = _pad_edge(depth)
    acc = np.zeros_like(depth, dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            acc += p[..., dy:dy + h, dx:dx + w]
    acc /= 9.0
    return acc.astype(depth.dtype, copy=False)


def derive_normals(depth: np.ndarray) -> np.ndarray:
    """Surface normals (nx, ny, nz) ~ (-dd/dx, -dd/dy, 1), unit length, for
    (..., H, W) depth; the components form axis -3 of the result.

    Central differences in per-pixel units with replicated borders.
    """
    # built in place, with the rounding of stacking (-ddx, -ddy, 1) and
    # summing their squares in that order
    p = _pad_edge(depth.astype(np.float64, copy=False))
    n = np.empty(depth.shape[:-2] + (3,) + depth.shape[-2:])
    nx, ny = n[..., 0, :, :], n[..., 1, :, :]
    np.subtract(p[..., 1:-1, 2:], p[..., 1:-1, :-2], out=nx)
    np.subtract(p[..., 2:, 1:-1], p[..., :-2, 1:-1], out=ny)
    n[..., :2, :, :] /= -2.0
    n[..., 2, :, :] = 1.0
    norm = nx * nx
    norm += ny * ny
    norm += 1.0
    n /= np.sqrt(norm, out=norm)[..., None, :, :]
    return n.astype(np.float32)


# class-tied albedo palette: appearance is what makes segmentation learnable
_CLASS_PALETTE = np.array([
    [0.85, 0.25, 0.25],
    [0.25, 0.80, 0.30],
    [0.25, 0.35, 0.85],
    [0.85, 0.80, 0.25],
    [0.75, 0.30, 0.80],
    [0.30, 0.80, 0.80],
    [0.85, 0.55, 0.25],
])


def _check_scene_args(h: int, w: int, k: int) -> None:
    for name, value in (("h", h), ("w", w)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not 2 <= k <= len(_CLASS_PALETTE) + 1:
        raise ValueError(f"k must be in 2..{len(_CLASS_PALETTE) + 1}, got {k}")


# Scenes finished together. A chunk's float64 buffers add to the peak RSS
# of a set-up: at 32x32, 16 scenes raised it by 0.8 MB over one scene at a
# time and 8 scenes did not, at about the same speed.
_CHUNK = 8


def _draw_scene(rng: np.random.Generator, k: int, ys: np.ndarray, xs: np.ndarray,
                depth: np.ndarray, seg: np.ndarray, albedo: np.ndarray,
                noise: np.ndarray) -> None:
    """Stage one: every random draw of one scene, in a fixed order (depth
    plane, background albedo, then each shape and its painting, then the
    image noise), written into the given (h, w) and (3, h, w) rows. The
    depth is not yet smoothed."""
    h, w = seg.shape
    d0 = rng.uniform(2.5, 3.5)
    gx, gy = rng.uniform(-0.045, 0.045, 2)
    plane = (d0 + gx * (xs - w / 2))[None, :] + (gy * (ys - h / 2))[:, None]
    depth[...] = plane
    seg[...] = 0
    albedo[...] = rng.uniform(0.45, 0.62, 3)[:, None, None]  # grayish background
    for _ in range(int(rng.integers(1, 5))):
        cls = int(rng.integers(1, k))
        cy = rng.uniform(0.2, 0.8) * h
        cx = rng.uniform(0.2, 0.8) * w
        if rng.random() < 0.5:
            sy = rng.uniform(0.14, 0.32) * h
            sx = rng.uniform(0.14, 0.32) * w
            mask = (np.abs(ys - cy) <= sy)[:, None] & (np.abs(xs - cx) <= sx)
        else:
            r = rng.uniform(0.14, 0.32) * min(h, w)
            mask = ((ys - cy) ** 2)[:, None] + (xs - cx) ** 2 <= r * r
        offset = rng.uniform(0.35, 1.1)
        np.copyto(depth, plane - offset, where=mask)
        np.copyto(seg, cls, where=mask)
        color = np.clip(_CLASS_PALETTE[cls - 1] + rng.uniform(-0.08, 0.08, 3), 0.05, 0.95)
        np.copyto(albedo, color[:, None, None], where=mask)
    noise[...] = rng.normal(0.0, 0.01, noise.shape)


def _finish_scenes(depth: np.ndarray, albedo: np.ndarray, noise: np.ndarray,
                   out: dict) -> None:
    """Stage two, for a stack of m drawn scenes: smooth and clamp the depth,
    derive normals, shade the albedo and add the noise, then clip and cast
    into ``out``'s (m, ...) rows. ``depth`` and ``albedo`` are overwritten."""
    depth = np.maximum(box_smooth3(depth), 0.2, out=depth)
    out["nrm"][...] = derive_normals(depth)
    out["dep"][...] = depth
    shade = np.add(depth, 1.0, out=depth)
    img = np.multiply(albedo, np.divide(2.3, shade, out=shade)[:, None], out=albedo)
    img += noise
    out["img"][...] = np.clip(img, 0.0, 1.0, out=img)


def _render_chunks(seed: int, start: int, n: int, h: int, w: int, k: int):
    """Scenes start..start+n-1, yielded in chunks of up to _CHUNK as stacked
    arrays (the dataset file layout). Scene i draws from its own
    SeedSequence([seed, i]), so it does not depend on n, start or the
    chunking."""
    ys = np.arange(h, dtype=np.float64)
    xs = np.arange(w, dtype=np.float64)
    c = min(n, _CHUNK)
    depth = np.empty((c, h, w))
    albedo = np.empty((c, 3, h, w))
    noise = np.empty((c, 3, h, w))
    for lo in range(0, n, c):
        m = min(c, n - lo)
        out = {name: np.empty(shape, dtype)
               for name, (shape, dtype) in _stacked_layout(m, h, w).items()}
        for j in range(m):
            rng = np.random.default_rng(np.random.SeedSequence([seed, start + lo + j]))
            _draw_scene(rng, k, ys, xs, depth[j], out["seg"][j], albedo[j], noise[j])
        _finish_scenes(depth[:m], albedo[:m], noise[:m], out)
        yield out


def generate_sample(seed: int, index: int, h: int, w: int, k: int) -> dict:
    """One synthetic scene; deterministic in (seed, index), and equal to
    scene ``index`` of ``gen_synthetic(seed=seed, ...)``.

    Tasks correlate through shared structure: each class has a base color,
    shading encodes depth, and normals derive from the depth field.
    """
    _check_scene_args(h, w, k)
    return {m: arr[0] for m, arr in next(_render_chunks(seed, index, 1, h, w, k)).items()}


def _split_indices(n: int, val_n: int | None, test_n: int | None) -> dict:
    if val_n is None:
        val_n = n // 5
    if test_n is None:
        test_n = n // 10
    for name, value in (("val_n", val_n), ("test_n", test_n)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    train_n = n - val_n - test_n
    if train_n < 1:
        raise ValueError(f"val_n={val_n} and test_n={test_n} leave no training sample of n={n}")
    train = list(range(train_n))
    meta_cut = max(1, int(train_n * 0.8))
    return {
        "train": train,
        "meta_train": train[:meta_cut],
        "meta_val": train[meta_cut:],
        "val": list(range(train_n, train_n + val_n)),
        "test": list(range(train_n + val_n, n)),
    }


def _stacked_layout(n: int, h: int, w: int) -> dict:
    """Shape and dtype of each modality's file, sample index first."""
    return {"img": ((n, 3, h, w), np.dtype(np.float32)),
            "seg": ((n, h, w), np.dtype(np.int32)),
            "dep": ((n, h, w), np.dtype(np.float32)),
            "nrm": ((n, 3, h, w), np.dtype(np.float32))}


def gen_synthetic(out_dir: str, seed: int, n: int, h: int = 32, w: int = 32, k: int = 5,
                  val_n: int | None = None, test_n: int | None = None) -> dict:
    """Write a dataset directory: manifest.json plus one stacked tensor file
    per modality. Each chunk of scenes is appended to the four files as it
    is finished, so the dataset is never whole in memory. Every argument is
    checked before anything is written; a bad argument raises ValueError
    naming it."""
    for name, value, low in (("seed", seed, 0), ("n", n, 1)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    _check_scene_args(h, w, k)
    splits = _split_indices(n, val_n, test_n)
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.ExitStack() as stack:
        files = {}  # modality -> (file, payload dtype)
        for m, (shape, dtype) in _stacked_layout(n, h, w).items():
            fh = stack.enter_context(open(os.path.join(out_dir, f"{m}.tnsr"), "wb"))
            files[m] = (fh, _write_tensor_header(fh, shape, dtype))
        for chunk in _render_chunks(seed, 0, n, h, w, k):
            for m, arr in chunk.items():
                fh, dtype = files[m]
                fh.write(np.ascontiguousarray(arr, dtype=dtype).data)
    manifest = {"n": n, "H": h, "W": w, "K": k, "seed": seed, "splits": splits}
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


class SyntheticDataset:
    """Eagerly loaded dataset directory: ``arrays`` maps each modality to its
    stacked, read-only (n, ...) array, checked against the manifest."""

    def __init__(self, root: str):
        path = os.path.join(root, "manifest.json")
        try:
            with open(path) as fh:
                manifest = json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: {e}") from None
        for key in ("n", "H", "W", "K", "splits"):
            if not isinstance(manifest, dict) or key not in manifest:
                raise FormatError(f"{path}: the manifest has no {key!r}")
            if key != "splits" and (type(manifest[key]) is not int or manifest[key] < 1):
                raise FormatError(f"{path}: {key!r} must be a positive int, "
                                  f"got {manifest[key]!r}")
        self.n = manifest["n"]
        self.h = manifest["H"]
        self.w = manifest["W"]
        self.k = manifest["K"]
        self.splits = manifest["splits"]
        if not isinstance(self.splits, dict):
            raise FormatError(f"{path}: 'splits' must be an object")
        for name, idx in self.splits.items():
            if not isinstance(idx, list) or any(type(i) is not int or not 0 <= i < self.n
                                                for i in idx):
                raise FormatError(f"{path}: split {name!r} must be a list of ints "
                                  f"in [0, {self.n})")
        self.arrays = {}
        for m, (shape, dtype) in _stacked_layout(self.n, self.h, self.w).items():
            path = os.path.join(root, f"{m}.tnsr")
            arr = read_tensor_file(path)
            if arr.shape != shape or arr.dtype != dtype:
                raise FormatError(f"{path}: {arr.dtype} {arr.shape}, manifest needs {dtype} {shape}")
            self.arrays[m] = arr

    def __len__(self):
        return self.n

    def sample(self, i: int) -> dict:
        """Read-only views of sample ``i`` in every modality."""
        return {m: arr[i] for m, arr in self.arrays.items()}


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def flip_sample(s: dict) -> dict:
    """Horizontal flip of every modality; the normal x component negates."""
    nrm = s["nrm"][:, :, ::-1].copy()
    nrm[0] = -nrm[0]
    return {
        "img": s["img"][:, :, ::-1].copy(),
        "seg": s["seg"][:, ::-1].copy(),
        "dep": s["dep"][:, ::-1].copy(),
        "nrm": nrm,
    }


def _nearest_indices(size: int, out: int) -> np.ndarray:
    return np.clip(np.floor((np.arange(out) + 0.5) * size / out), 0, size - 1).astype(np.intp)


def rescale_sample(s: dict, scale: float) -> dict:
    """Spatial rescale; depth values divide by the scale so geometry stays
    consistent with the resized image (closer surfaces appear larger)."""
    h, w = s["dep"].shape
    oh = max(1, int(round(h * scale)))
    ow = max(1, int(round(w * scale)))
    ri = _nearest_indices(h, oh)
    ci = _nearest_indices(w, ow)
    nrm = bilinear_resize_array(s["nrm"][None], oh, ow)[0]
    nrm /= np.sqrt((nrm * nrm).sum(axis=0, keepdims=True) + 1e-12)
    return {
        "img": bilinear_resize_array(s["img"][None], oh, ow)[0].astype(np.float32),
        "seg": s["seg"][ri][:, ci].copy(),
        "dep": (bilinear_resize_array(s["dep"][None, None], oh, ow)[0, 0] / scale).astype(np.float32),
        "nrm": nrm.astype(np.float32),
    }


def crop_sample(s: dict, th: int, tw: int, oy: int, ox: int) -> dict:
    """Crop to (th, tw) at offset (oy, ox); pads bottom/right first when the
    sample is smaller (ignore label for seg, edge values elsewhere)."""
    h, w = s["dep"].shape
    py, px = max(0, th - h), max(0, tw - w)
    img, seg, dep, nrm = s["img"], s["seg"], s["dep"], s["nrm"]
    if py or px:
        img = np.pad(img, ((0, 0), (0, py), (0, px)), mode="edge")
        dep = np.pad(dep, ((0, py), (0, px)), mode="edge")
        nrm = np.pad(nrm, ((0, 0), (0, py), (0, px)), mode="edge")
        seg = np.pad(seg, ((0, py), (0, px)), constant_values=IGNORE_LABEL)
    return {
        "img": img[:, oy:oy + th, ox:ox + tw].copy(),
        "seg": seg[oy:oy + th, ox:ox + tw].copy(),
        "dep": dep[oy:oy + th, ox:ox + tw].copy(),
        "nrm": nrm[:, oy:oy + th, ox:ox + tw].copy(),
    }


def augment(s: dict, rng: np.random.Generator, crop_hw: tuple[int, int],
            scale_range: tuple[float, float] = (0.5, 2.1)) -> dict:
    """Random flip, random rescale with depth renormalization, random crop."""
    if rng.random() < 0.5:
        s = flip_sample(s)
    scale = rng.uniform(*scale_range)
    s = rescale_sample(s, scale)
    th, tw = crop_hw
    h, w = s["dep"].shape
    oy = int(rng.integers(0, max(h - th, 0) + 1))
    ox = int(rng.integers(0, max(w - tw, 0) + 1))
    return crop_sample(s, th, tw, oy, ox)


def collate(samples: list[dict]) -> dict:
    """Stack samples into NCHW training arrays (depth gains a channel axis)."""
    return {
        "img": np.stack([s["img"] for s in samples]),
        "seg": np.stack([s["seg"] for s in samples]),
        "dep": np.stack([s["dep"] for s in samples])[:, None],
        "nrm": np.stack([s["nrm"] for s in samples]),
    }
