"""Independent reference implementations used as test oracles.

Each routine here recomputes a quantity by a method unrelated to the
library's own algorithm (rasterization, Monte-Carlo sampling, exhaustive
permutation search) so agreement is meaningful. The cosine gallery fill is
the one stage 1 used before it owned its pruning; stage 1's appearance
costs must equal it bit for bit. The Kalman step is the dense filter (full
covariance matrices, a Cholesky factor and solve) written one state at a
time with scalar heading wraps; the library's filter on per-axis rows must
equal it bit for bit. The detection-file line at the end
is built as a dict of quantized Python floats and encoded by ``json.dumps``;
the library's writer, which composes the line as text, must equal it byte
for byte.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from typing import Sequence

import numpy as np

from hmot.errors import NumericFailureError, ValidationError
from hmot.io import qfloat
from hmot.kalman import MotionModel
from hmot.metrics import ball_admits
from hmot.types import (
    EXTENTS,
    Box2D,
    State,
    normalize_heading,
    observation_2d,
    observation_3d,
)


def raster_iou_2d(a, b) -> float:
    """Axis-aligned IoU by counting unit grid cells.

    Exact when all box corners lie on integer coordinates, which the
    callers guarantee by construction.
    """
    ax1, ay1, ax2, ay2 = (int(round(v)) for v in a.corners())
    bx1, by1, bx2, by2 = (int(round(v)) for v in b.corners())
    x_lo = min(ax1, bx1)
    y_lo = min(ay1, by1)
    x_hi = max(ax2, bx2)
    y_hi = max(ay2, by2)
    w = x_hi - x_lo
    h = y_hi - y_lo
    grid_a = np.zeros((w, h), dtype=bool)
    grid_b = np.zeros((w, h), dtype=bool)
    grid_a[ax1 - x_lo:ax2 - x_lo, ay1 - y_lo:ay2 - y_lo] = True
    grid_b[bx1 - x_lo:bx2 - x_lo, by1 - y_lo:by2 - y_lo] = True
    inter = int(np.sum(grid_a & grid_b))
    union = int(np.sum(grid_a | grid_b))
    return inter / union


def _points_in_rect(pts: np.ndarray, box) -> np.ndarray:
    """Boolean mask of points inside a rotated ground-plane rectangle."""
    c, s = np.cos(box.theta), np.sin(box.theta)
    rel = pts - np.array([box.cx, box.cy])
    local_x = rel[:, 0] * c + rel[:, 1] * s
    local_y = -rel[:, 0] * s + rel[:, 1] * c
    return (np.abs(local_x) <= box.l / 2.0) & (np.abs(local_y) <= box.w / 2.0)


def mc_bev_iou(a, b, n_samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of rotated-rectangle IoU.

    Samples uniformly over the joint bounding box of both footprints;
    the standard error scales as 1/sqrt(n_samples).
    """
    corners = np.vstack([a.bev_corners(), b.bev_corners()])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n_samples, 2))
    in_a = _points_in_rect(pts, a)
    in_b = _points_in_rect(pts, b)
    n_inter = int(np.sum(in_a & in_b))
    n_union = int(np.sum(in_a | in_b))
    if n_union == 0:
        return 0.0
    return n_inter / n_union


def gauss_center_dist_matrix(rows: np.ndarray, cols: np.ndarray, sigma: float) -> np.ndarray:
    """Kernelized center distances with the squared distance as one
    ``np.sum`` over the coordinate axis; the library's fill adds the three
    squares itself and must equal this bit for bit."""
    if len(rows) == 0 or len(cols) == 0:
        return np.zeros((len(rows), len(cols)))
    d2 = np.sum((rows[:, None, :] - cols[None, :, :]) ** 2, axis=-1)
    return -np.expm1(-d2 / (2.0 * sigma * sigma))


def cosine_gallery_dist_matrix(galleries: Sequence[Sequence[np.ndarray]],
                               embeddings: Sequence[np.ndarray | None],
                               gate: float | None = None,
                               bounds: Sequence[tuple[np.ndarray, float] | None] | None = None,
                               admits: np.ndarray | None = None,
                               ) -> np.ndarray:
    """The cosine gallery fill as it was before stage 1 took over its
    pruning: per-track min cosine distance to each detection embedding.

    Pairs where the gallery is empty or the detection has no embedding get
    +inf. Given a ``gate`` and per gallery a ball ``(centre, radius)``
    (``gallery_bound``), a pair the ball proves above the gate
    (``ball_admits``) is +inf without computing it, and a row whose ball
    rules out some columns multiplies only the others. Without ``bounds``
    every pair is computed. Stage 1's appearance costs must equal this fill
    bit for bit, except at the pairs it certifies by the newest row alone.
    """
    n, m = len(galleries), len(embeddings)
    costs = np.full((n, m), np.inf)
    have_emb = np.array([j for j, e in enumerate(embeddings) if e is not None], dtype=np.intp)
    live = [i for i, gallery in enumerate(galleries) if len(gallery)]
    if not len(have_emb) or not live:
        return costs
    emb = np.stack([embeddings[j] for j in have_emb]).T  # (dim, m')
    if admits is not None:
        admits = admits[live]
    elif gate is not None and bounds is not None:
        admits = ball_admits([bounds[i] for i in live], emb, gate)
    if admits is None:
        cols_of = [None] * len(live)
    else:
        cols_of = [cols if len(cols) < len(have_emb) else None
                   for cols in map(np.flatnonzero, admits)]
    for i, cols in zip(live, cols_of):
        if cols is None:
            costs[i, have_emb] = 1.0 - (np.asarray(galleries[i]) @ emb).max(axis=0)
        elif len(cols):
            sims = np.asarray(galleries[i]) @ emb[:, cols]  # (gallery, kept)
            costs[i, have_emb[cols]] = 1.0 - sims.max(axis=0)
    return costs


def min_cost_matching_exhaustive(costs: np.ndarray, gate: float):
    """Reference gated matching by enumerating complete assignments.

    Mirrors the production semantics (largest admissible cardinality,
    then minimum admissible cost) without any large-sentinel arithmetic:
    assignments are ranked by (number of gated pairs used, admissible
    cost sum) lexicographically. Returns (total_cost, n_matched).
    """
    n, m = costs.shape
    if n == 0 or m == 0:
        return 0.0, 0
    transposed = n > m
    if transposed:
        costs = costs.T
        n, m = m, n
    admissible = np.isfinite(costs) & (costs <= gate)
    real = np.where(admissible, costs, 0.0)
    perms = np.array(list(itertools.permutations(range(m), n)), dtype=np.intp)
    rows = np.arange(n)
    adm_counts = admissible[rows[None, :], perms].sum(axis=1)
    totals = real[rows[None, :], perms].sum(axis=1)
    best_cardinality = int(adm_counts.max())
    candidates = totals[adm_counts == best_cardinality]
    return float(candidates.min()), best_cardinality


# ---------------------------------------------------------------------------
# The Kalman filter step, one state at a time


def wrap_innovation(delta: float) -> float:
    """Wrap an angle difference into (-pi, pi]."""
    wrapped = normalize_heading(delta)
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


def _filter_result(mean: np.ndarray, cov: np.ndarray, model: MotionModel, what: str) -> State:
    """The state a filter step ends in: covariance symmetrised, heading
    wrapped. A non-finite entry or a non-positive box extent is a numeric
    failure."""
    try:
        state = State(mean, 0.5 * (cov + cov.T))
    except ValidationError as exc:
        raise NumericFailureError(f"{what} produced non-finite values") from exc
    mean = state.mean
    if model.heading_index is not None:
        mean[model.heading_index] = normalize_heading(mean[model.heading_index])
    if not (mean[EXTENTS[model.dim_state]] > 0).all():
        raise NumericFailureError(f"{what} produced non-positive box extents")
    return state


def predict(state: State, model: MotionModel) -> State:
    """One constant-velocity step: mean' = F mean, cov' = F cov F^T + Q."""
    mean = model.F @ state.mean
    cov = model.F @ state.cov @ model.F.T + np.diag(model.process_var(state.mean))
    return _filter_result(mean, cov, model, "predict")


def _resolve_heading(delta: float) -> float:
    """A heading innovation wrapped into (-pi, pi]. If it still exceeds pi/2
    in magnitude the detector likely reported the box flipped by pi, so the
    innovation is shifted by pi (and re-wrapped) before use."""
    delta = wrap_innovation(delta)
    if abs(delta) > math.pi / 2.0:
        delta = wrap_innovation(delta + math.pi)
    return delta


def _innovation(state: State, obs: np.ndarray, model: MotionModel) -> np.ndarray:
    """Observation-space innovation, heading ambiguity resolved."""
    y = obs - model.H @ state.mean
    hi = model.heading_index
    if hi is not None:
        y[hi] = _resolve_heading(y[hi])
    return y


def observation(det: Detection) -> np.ndarray:
    """The observed components of one detection's box, one box at a time."""
    return observation_2d(det.box) if det.is_2d else observation_3d(det.box)


def _innovation_cov(state: State, model: MotionModel) -> np.ndarray:
    return model.H @ state.cov @ model.H.T + np.diag(model.measurement_var(state.mean))


def update(state: State, det: Detection, model: MotionModel) -> State:
    """Standard Kalman measurement update with the detection's observation."""
    obs = observation(det)
    y = _innovation(state, obs, model)
    S = _innovation_cov(state, model)
    try:
        np.linalg.cholesky(S)  # raises unless S is positive definite
        gain = np.linalg.solve(S, model.H @ state.cov).T  # cov is symmetric
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"singular innovation covariance: {exc}") from exc
    mean = state.mean + gain @ y
    cov = state.cov - gain @ S @ gain.T
    return _filter_result(mean, cov, model, "update")


def mahalanobis_sq(state: State, det: Detection, model: MotionModel) -> float:
    """Squared Mahalanobis distance of the observation under the innovation
    covariance: y^T S^-1 y over the observed components."""
    y = _innovation(state, observation(det), model)
    S = _innovation_cov(state, model)
    try:
        chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"singular innovation covariance: {exc}") from exc
    z = np.linalg.solve(chol, y)
    return float(z @ z)


# ---------------------------------------------------------------------------
# The detection-file line, as a dict encoded by json.dumps


def detection_json(det: Detection) -> dict:
    """One detection as the dict its file record holds, every float
    quantized by ``qfloat``; box values in dataclass field order."""
    box_key = "box2d" if isinstance(det.box, Box2D) else "box3d"
    box_values = [getattr(det.box, f.name) for f in dataclasses.fields(det.box)]
    return {
        "class": det.class_label.value,
        box_key: [qfloat(v) for v in box_values],
        "score": qfloat(det.score),
        "embedding": (
            None if det.embedding is None else [qfloat(v) for v in det.embedding]
        ),
        "src_gt": det.src_gt,
    }


def detection_line(frame) -> str:
    """One ``DetectionFrame`` as its detection-file line, newline included."""
    record = {
        "sequence_id": frame.sequence_id,
        "frame": frame.frame,
        "camera": None if frame.camera is None else frame.camera.value,
        "detections": [detection_json(d) for d in frame.detections],
    }
    return json.dumps(record, separators=(",", ":")) + "\n"
