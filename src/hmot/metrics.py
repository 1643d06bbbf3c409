"""Association metric family: costs in [0, 1], lower means more similar.

Scalar forms implement the contracts; the ``*_matrix`` helpers are the
vectorized versions used to fill cost matrices in the association stages.
"""

from __future__ import annotations

import logging
import math
from typing import Sequence

import numpy as np

from .errors import EmptyGalleryError
from .types import Box2D, Box3D, Detection

logger = logging.getLogger(__name__)


def iou_2d(a: Box2D, b: Box2D) -> float:
    """Intersection over union of two axis-aligned boxes."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def iou_dist_enlarged(a: Box2D, b: Box2D, factor: float = 1.0) -> float:
    """1 - IoU after scaling both boxes by ``factor`` about their centers."""
    if factor < 1.0:
        raise ValueError(f"enlargement factor must be >= 1, got {factor}")
    return 1.0 - iou_2d(a.scaled(factor), b.scaled(factor))


def gauss_center_dist(a: Box3D, b: Box3D, sigma: float) -> float:
    """Gaussian-kernel distance of 3D centers: 1 - exp(-d^2 / (2 sigma^2)).

    Maps displacement d in [0, inf) onto [0, 1); zero iff the centers
    coincide, strictly increasing in d.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d2 = float(np.sum((a.center - b.center) ** 2))
    return -math.expm1(-d2 / (2.0 * sigma * sigma))


def _clip_polygon(poly: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Keep the part of ``poly`` on the left of the directed edge p -> q."""
    edge = q - p
    side = (poly - p) @ np.array([-edge[1], edge[0]])
    out = []
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        si, sj = side[i], side[j]
        if si >= 0:
            out.append(poly[i])
        if (si > 0 and sj < 0) or (si < 0 and sj > 0):
            t = si / (si - sj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.array(out) if out else np.empty((0, 2))


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def bev_iou(a: Box3D, b: Box3D) -> float:
    """IoU of the two ground-plane footprints (rotated rectangles).

    Computed by Sutherland-Hodgman clipping of one footprint against the
    other.
    """
    area_a = a.w * a.l
    area_b = b.w * b.l
    if area_a <= 0 or area_b <= 0:
        logger.warning("bev_iou on degenerate rectangle (areas %g, %g)", area_a, area_b)
        return 0.0
    corners_b = b.bev_corners()
    poly = a.bev_corners()
    for i in range(4):
        if len(poly) < 3:
            break
        poly = _clip_polygon(poly, corners_b[i], corners_b[(i + 1) % 4])
    inter = _polygon_area(poly)
    return inter / (area_a + area_b - inter)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Approximate volumetric IoU: BEV IoU times the vertical-interval IoU.

    Kept off the association hot path; the tracker's 3D metric is
    :func:`gauss_center_dist`.
    """
    alo, ahi = a.z_interval()
    blo, bhi = b.z_interval()
    inter_h = min(ahi, bhi) - max(alo, blo)
    if inter_h <= 0:
        return 0.0
    union_h = (ahi - alo) + (bhi - blo) - inter_h
    return bev_iou(a, b) * (inter_h / union_h)


def cosine_gallery_dist(gallery: Sequence[np.ndarray], embedding: np.ndarray) -> float:
    """Smallest cosine distance between a feature gallery and one embedding.

    All vectors are assumed unit-norm, so the result lies in [0, 2].
    """
    if len(gallery) == 0:
        raise EmptyGalleryError("cosine distance requested against an empty gallery")
    sims = np.asarray(gallery) @ np.asarray(embedding)
    return float(1.0 - np.max(sims))


def nms(dets: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression over same-class detections.

    Detections are visited in descending score (ties keep input order); one
    is kept iff its IoU with every already-kept detection is <= threshold.
    2D boxes are compared with axis-aligned IoU, 3D boxes with volumetric
    IoU. All boxes in one call must be of the same kind.
    """
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    kept: list[Detection] = []
    for i in order:
        box = dets[i].box
        if isinstance(box, Box2D):
            unsuppressed = all(iou_2d(box, k.box) <= iou_threshold for k in kept)
        else:
            unsuppressed = all(iou_3d(box, k.box) <= iou_threshold for k in kept)
        if unsuppressed:
            kept.append(dets[i])
    return kept


# ---------------------------------------------------------------------------
# Vectorized cost-matrix fills


def _corner_arrays(boxes: Sequence[Box2D] | np.ndarray, factor: float) -> np.ndarray:
    """(x1, y1, x2, y2) of each box scaled by ``factor``; ``boxes`` holds
    ``Box2D`` objects or (cx, cy, w, h) rows, with the same float operations
    either way. The loop is faster on the few boxes of one frame."""
    if isinstance(boxes, np.ndarray):
        cx, cy = boxes[:, 0], boxes[:, 1]
        hw, hh = boxes[:, 2] * factor / 2.0, boxes[:, 3] * factor / 2.0
        return np.stack([cx - hw, cy - hh, cx + hw, cy + hh], axis=1)
    out = np.empty((len(boxes), 4))
    for i, b in enumerate(boxes):
        hw, hh = b.w * factor / 2.0, b.h * factor / 2.0
        out[i] = (b.cx - hw, b.cy - hh, b.cx + hw, b.cy + hh)
    return out


def iou_dist_matrix(rows: Sequence[Box2D] | np.ndarray, cols: Sequence[Box2D] | np.ndarray,
                    factor: float = 1.0) -> np.ndarray:
    """(len(rows), len(cols)) matrix of enlarged-IoU distances. Each side is
    ``Box2D`` objects or an (n, 4) array of (cx, cy, w, h) rows."""
    if len(rows) == 0 or len(cols) == 0:
        return np.zeros((len(rows), len(cols)))
    a = _corner_arrays(rows, factor)[:, None, :]
    b = _corner_arrays(cols, factor)[None, :, :]
    with np.errstate(over="ignore"):  # boxes beyond the float range apart: -inf, no overlap
        iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    # Corners rounded onto each other give a zero union: IoU 0, as iou_2d.
    return 1.0 - np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def center_dist_sq_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(len(rows), len(cols)) squared distances of (n, 3) centers; inf for
    a pair beyond the largest float apart."""
    with np.errstate(over="ignore"):
        d = rows[:, None, :] - cols[None, :, :]
        sq = d * d  # summed in the order np.sum takes, without its reduction
        return (sq[..., 0] + sq[..., 1]) + sq[..., 2]


def gauss_center_dist_matrix(rows: np.ndarray, cols: np.ndarray, sigma: float) -> np.ndarray:
    """Kernelized center-distance matrix; rows and cols are (n, 3) centers."""
    if len(rows) == 0 or len(cols) == 0:
        return np.zeros((len(rows), len(cols)))
    d2 = center_dist_sq_matrix(rows, cols)
    with np.errstate(over="ignore"):  # beyond the largest float: cost 1.0, the limit
        return -np.expm1(-d2 / (2.0 * sigma * sigma))


def gallery_bound(gallery: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
    """A ball that holds every row of a non-empty gallery: its mean row as
    centre and, as radius, the largest distance of a row from it.

    The squared distances are expanded as |g|^2 - 2 g.c + |c|^2, so the
    rows are read three times and never copied; the radius is widened by
    the rounding error of that expansion, so no row lies outside it."""
    rows = np.asarray(gallery, dtype=np.float64)
    centre = rows.mean(axis=0)
    norms_sq = np.einsum("ij,ij->i", rows, rows)
    cc = float(centre @ centre)
    dist_sq = norms_sq - 2.0 * (rows @ centre) + cc
    error = 4.0 * (rows.shape[1] + 2) * np.finfo(float).eps * np.square(np.sqrt(norms_sq)
                                                                        + np.sqrt(cc))
    return centre, float(np.sqrt(np.max(dist_sq + error)))


def ball_admits(bounds: Sequence[tuple[np.ndarray, float]], emb: np.ndarray,
                gate: float) -> np.ndarray:
    """(len(bounds), m) mask of the pairs whose cost the gallery balls
    ``bounds`` (:func:`gallery_bound`) cannot prove above ``gate``, for the
    embeddings that are the columns of ``emb`` (dim, m). By Cauchy-Schwarz
    no row g of a ball (c, r) has g.e above c.e + r |e|; that bound is
    compared with a slack far above rounding, so every pair with a cost
    <= gate is admitted."""
    centres = np.stack([centre for centre, _ in bounds])
    radii = np.array([radius for _, radius in bounds])[:, None]
    norms = np.sqrt(np.square(emb).sum(axis=0))
    reach = (np.sqrt(np.square(centres).sum(axis=1))[:, None] + radii) * norms
    upper = centres @ emb + radii * norms  # >= every sim of the pair
    return upper >= (1.0 - gate) - 1e-9 * (1.0 + reach)


def cosine_gallery_dist_matrix(galleries: Sequence[Sequence[np.ndarray]], emb: np.ndarray,
                               admits: np.ndarray | None = None) -> np.ndarray:
    """(len(galleries), m) min cosine distance of each non-empty gallery to
    each row of the (m, dim) embedding matrix ``emb``.

    Given ``admits``, a (len(galleries), m) mask, only its pairs are
    computed and the rest are +inf; a row it admits whole is multiplied by
    the whole matrix, as without a mask, so its bits are the same.
    """
    costs = np.full((len(galleries), len(emb)), np.inf)
    emb = emb.T  # (dim, m)
    for i, gallery in enumerate(galleries):
        cols = None if admits is None else np.flatnonzero(admits[i])
        if cols is None or len(cols) == emb.shape[1]:
            costs[i] = 1.0 - (np.asarray(gallery) @ emb).max(axis=0)
        elif len(cols):
            costs[i, cols] = 1.0 - (np.asarray(gallery) @ emb[:, cols]).max(axis=0)
    return costs
