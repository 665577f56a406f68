"""Output checks that do not trust the program.

Every oracle here is plain numpy written from the metric's definition, in
float64, and takes only arrays or plain tuples, so it can be tested on
hand-computed cases without importing the program. A failed check raises
``CheckFailed``.
"""

from __future__ import annotations

import numpy as np

IGNORE_LABEL = 255

# Relative tolerances for oracle-vs-program agreement. mIoU and pixel
# accuracy are ratios of integer counts, so both sides compute the same
# float64 quotient. Rel and RMS are float32 means over ~1e5 pixels on the
# program's side (pairwise-summation error ~log2(n) * 1.2e-7 ~ 2e-6); the
# mean angle also passes float32 dot products through arccos, whose slope
# grows near 0 degrees. Each tolerance sits a decade above that error.
RTOL = {"miou": 1e-12, "pixacc": 1e-12, "rel": 1e-5, "rms": 1e-5, "angle": 1e-4}


class CheckFailed(Exception):
    """An output of the program disagrees with what the check expects."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def require_close(name: str, ours: float, theirs: float, rtol: float) -> None:
    scale = max(abs(ours), abs(theirs))
    require(abs(ours - theirs) <= rtol * scale,
            f"{name}: benchmark computes {ours!r}, program reports {theirs!r}")


# ---------------------------------------------------------------------------
# metric oracles
# ---------------------------------------------------------------------------


def confusion_matrix(labels: np.ndarray, gt: np.ndarray, k: int) -> np.ndarray:
    """k x k counts, rows = ground truth class, columns = predicted class."""
    valid = gt != IGNORE_LABEL
    g = gt[valid].astype(np.int64)
    p = labels[valid].astype(np.int64)
    return np.bincount(g * k + p, minlength=k * k).reshape(k, k)


def oracle_miou(labels: np.ndarray, gt: np.ndarray, k: int) -> float:
    """Mean IoU over the classes that occur in the labels or the predictions."""
    cm = confusion_matrix(labels, gt, k).astype(np.float64)
    inter = np.diag(cm)
    union = cm.sum(axis=0) + cm.sum(axis=1) - inter
    present = union > 0
    return float((inter[present] / union[present]).mean()) if present.any() else 0.0


def oracle_pixacc(labels: np.ndarray, gt: np.ndarray, k: int) -> float:
    cm = confusion_matrix(labels, gt, k)
    total = cm.sum()
    return float(np.trace(cm) / total) if total else 0.0


def oracle_rel(pred: np.ndarray, gt: np.ndarray) -> float:
    p, g = pred.astype(np.float64), gt.astype(np.float64)
    return float((np.abs(p - g) / g).mean())


def oracle_rms(pred: np.ndarray, gt: np.ndarray) -> float:
    p, g = pred.astype(np.float64), gt.astype(np.float64)
    return float(np.sqrt(((p - g) ** 2).mean()))


def oracle_angle(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean angle in degrees between normal fields of shape (N, 3, H, W)."""
    dot = (pred.astype(np.float64) * gt.astype(np.float64)).sum(axis=1)
    return float(np.degrees(np.arccos(np.clip(dot, -1.0, 1.0))).mean())


def oracle_metrics(kind: str, pred: np.ndarray, gt: np.ndarray, k: int) -> dict[str, float]:
    """The metrics the paper reports for one task, from raw head outputs."""
    if kind == "seg":
        labels = pred.argmax(axis=1)
        return {"miou": oracle_miou(labels, gt, k), "pixacc": oracle_pixacc(labels, gt, k)}
    if kind == "depth":
        return {"rel": oracle_rel(pred, gt), "rms": oracle_rms(pred, gt)}
    return {"angle": oracle_angle(pred, gt)}


def check_metrics(kind: str, pred: np.ndarray, gt: np.ndarray, k: int,
                  reported: dict[str, float]) -> None:
    """The program's metrics for one task agree with the oracles."""
    ours = oracle_metrics(kind, pred, gt, k)
    require(set(ours) == set(reported),
            f"{kind}: metric names {sorted(reported)} != {sorted(ours)}")
    for name, v in ours.items():
        require_close(f"{kind}.{name}", v, reported[name], RTOL[name])


def check_prediction_domain(kind: str, pred: np.ndarray) -> None:
    """Predictions are finite, depth is positive and normals have unit length:
    what the heads' output layers guarantee after any number of steps."""
    require(bool(np.isfinite(pred).all()), f"{kind}: non-finite predictions")
    if kind == "depth":
        require(bool((pred > 0).all()), "depth: non-positive predictions")
    elif kind == "normal":
        norm = np.sqrt((pred.astype(np.float64) ** 2).sum(axis=1))
        require(bool(np.abs(norm - 1.0).max() < 1e-4), "normal: predictions are not unit length")


def check_beats_background(pred: np.ndarray, gt: np.ndarray, k: int) -> None:
    """Segmentation beats a predictor that answers background everywhere on
    the same labels: what a fully trained network must learn."""
    miou = oracle_miou(pred.argmax(axis=1), gt, k)
    floor = oracle_miou(np.zeros_like(gt), gt, k)
    require(miou > floor, f"seg: mIoU {miou:.4f} does not beat all-background {floor:.4f}")


# ---------------------------------------------------------------------------
# training and search
# ---------------------------------------------------------------------------


def check_loss_decreases(losses: list[float]) -> None:
    """Mean loss over the last tenth of iterations is below the first tenth."""
    n = max(1, len(losses) // 10)
    first, last = float(np.mean(losses[:n])), float(np.mean(losses[-n:]))
    require(bool(np.isfinite(losses).all()), "training loss is not finite")
    require(last < first, f"loss did not fall: first tenth {first:.4f}, last tenth {last:.4f}")


def score(kind_of_metric: str, value: float) -> float:
    """The paper's [0, 1] score of one primary metric: accuracies as they
    are, errors e as 1 / (1 + e), angles in degrees as 1 / (1 + angle / 180)."""
    if kind_of_metric in ("miou", "pixacc"):
        return value
    if kind_of_metric == "angle":
        return 1.0 / (1.0 + value / 180.0)
    return 1.0 / (1.0 + value)


def geometric_reward(primary: list[tuple[str, float]]) -> float:
    """The paper's reward: geometric mean of per-task scores in [0, 1]."""
    scores = [score(name, v) for name, v in primary]
    return float(np.exp(np.mean(np.log(scores)))) if min(scores) > 0 else 0.0


def check_reward(primary: list[tuple[str, float]], reported: float) -> None:
    require(0.0 <= reported <= 1.0, f"reward {reported!r} outside [0, 1]")
    require_close("reward", geometric_reward(primary), reported, 1e-12)


def predict_invalid(cells: list[tuple[int, int, int, int, int]], tap_widths: tuple[int, ...],
                    c_aux: int, skip_op: int) -> bool:
    """A genotype is invalid when a cell applies skip_connect to an input
    whose width is not c_aux. Locations below P are encoder taps with their
    own widths; every cell output is c_aux wide."""
    p = len(tap_widths)
    for in1, in2, op1, op2, _agg in cells:
        for loc, op in ((in1, op1), (in2, op2)):
            width = tap_widths[loc] if loc < p else c_aux
            if op == skip_op and width != c_aux:
                return True
    return False
