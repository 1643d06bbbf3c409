from __future__ import annotations

import logging
import math
import sys
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cosine_gallery_dist_matrix as oracle_fill
from oracles import gauss_center_dist_matrix as summed_gauss_matrix
from oracles import mc_bev_iou, raster_iou_2d

from hmot.assignment import solve_gated_assignment
from hmot.errors import EmptyGalleryError
from hmot.metrics import (
    ball_admits,
    bev_iou,
    center_dist_sq_matrix,
    cosine_gallery_dist,
    cosine_gallery_dist_matrix,
    gallery_bound,
    gauss_center_dist,
    gauss_center_dist_matrix,
    iou_2d,
    iou_3d,
    iou_dist_enlarged,
    iou_dist_matrix,
    nms,
)
from hmot.tracker import _appearance_costs
from hmot.types import Box2D, Box3D, Camera, Detection, ObjectClass


def _int_box(rng, span=100):
    """Box with integer corner coordinates (so rasterization is exact)."""
    x1, y1 = rng.integers(0, span, 2)
    w = int(rng.integers(1, span))
    h = int(rng.integers(1, span))
    return Box2D(x1 + w / 2.0, y1 + h / 2.0, float(w), float(h))


def _rand_box3(rng):
    return Box3D(
        float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)),
        float(rng.uniform(-2, 2)),
        float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0)),
        float(rng.uniform(0.5, 6.0)),
        float(rng.uniform(-math.pi, math.pi)),
    )


# ---------------------------------------------------------------------------
# iou_2d


def test_iou_identical_box():
    b = Box2D(5, 5, 10, 10)
    assert iou_2d(b, b) == 1.0


def test_iou_disjoint():
    assert iou_2d(Box2D(0, 0, 2, 2), Box2D(10, 10, 2, 2)) == 0.0


def test_iou_touching_edges_is_zero():
    assert iou_2d(Box2D(0, 0, 2, 2), Box2D(2, 0, 2, 2)) == 0.0


def test_iou_half_overlap():
    # unit-height boxes, [0,2] and [1,3]: inter 1, union 3
    a = Box2D(1.0, 0.5, 2.0, 1.0)
    b = Box2D(2.0, 0.5, 2.0, 1.0)
    assert iou_2d(a, b) == pytest.approx(1.0 / 3.0)


def test_iou_symmetry_and_range():
    rng = np.random.default_rng(2)
    for _ in range(300):
        a, b = _int_box(rng), _int_box(rng)
        v = iou_2d(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou_2d(b, a)


def test_iou_matches_rasterization():
    rng = np.random.default_rng(17)
    for _ in range(300):
        a, b = _int_box(rng), _int_box(rng)
        assert iou_2d(a, b) == pytest.approx(raster_iou_2d(a, b), abs=1e-6)


# ---------------------------------------------------------------------------
# enlarged IoU distance


def test_enlarged_factor_one_is_plain_distance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = _int_box(rng), _int_box(rng)
        assert iou_dist_enlarged(a, b, 1.0) == pytest.approx(1.0 - iou_2d(a, b))


def test_enlargement_monotone_in_factor():
    rng = np.random.default_rng(4)
    for _ in range(300):
        a, b = _int_box(rng), _int_box(rng)
        f1 = float(rng.uniform(1.0, 2.5))
        f2 = f1 + float(rng.uniform(0.1, 2.0))
        assert iou_dist_enlarged(a, b, f2) <= iou_dist_enlarged(a, b, f1) + 1e-12


def test_enlargement_recovers_disjoint_boxes():
    a = Box2D(0, 0, 10, 10)
    b = Box2D(14, 0, 10, 10)  # 4 px gap
    assert iou_dist_enlarged(a, b, 1.0) == 1.0
    assert iou_dist_enlarged(a, b, 2.0) < 1.0


def test_enlargement_rejects_shrink():
    with pytest.raises(ValueError):
        iou_dist_enlarged(Box2D(0, 0, 1, 1), Box2D(0, 0, 1, 1), 0.5)


# ---------------------------------------------------------------------------
# gaussian center distance


def test_gauss_zero_at_same_center():
    a = Box3D(1, 2, 3, 1, 1, 1, 0)
    b = Box3D(1, 2, 3, 2, 2, 2, 1.0)
    assert gauss_center_dist(a, b, 1.5) == 0.0


def test_gauss_matches_analytic():
    rng = np.random.default_rng(5)
    for _ in range(500):
        a, b = _rand_box3(rng), _rand_box3(rng)
        sigma = float(rng.uniform(0.3, 6.0))
        d2 = ((a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2 + (a.cz - b.cz) ** 2)
        expected = 1.0 - math.exp(-d2 / (2.0 * sigma * sigma))
        assert gauss_center_dist(a, b, sigma) == pytest.approx(expected, abs=1e-12)


def test_gauss_monotone_in_distance():
    sigma = 2.0
    base = Box3D(0, 0, 0, 1, 1, 1, 0)
    prev = -1.0
    for d in (0.0, 0.5, 1.0, 2.0, 5.0):
        cur = gauss_center_dist(base, Box3D(d, 0, 0, 1, 1, 1, 0), sigma)
        assert cur > prev or (d == 0.0 and cur == 0.0)
        prev = cur
    assert prev < 1.0  # strictly below 1 at finite distance
    far = gauss_center_dist(base, Box3D(1e4, 0, 0, 1, 1, 1, 0), sigma)
    assert far <= 1.0  # saturates at the upper bound


def test_gauss_rejects_bad_sigma():
    b = Box3D(0, 0, 0, 1, 1, 1, 0)
    with pytest.raises(ValueError):
        gauss_center_dist(b, b, 0.0)


# ---------------------------------------------------------------------------
# BEV / 3D IoU


def test_bev_iou_identical():
    b = Box3D(0, 0, 0, 2, 2, 4, 0.7)
    assert bev_iou(b, b) == pytest.approx(1.0)


def test_bev_iou_of_footprints_whose_area_underflows(caplog):
    """w = l = 1e-200 is a valid box whose footprint area w * l underflows
    to 0: the IoU is 0, with a warning in the log."""
    tiny = Box3D(0, 0, 0, 1, 1e-200, 1e-200, 0)
    with caplog.at_level(logging.WARNING, logger="hmot.metrics"):
        assert bev_iou(tiny, Box3D(0, 0, 0, 2, 2, 4, 0)) == 0.0
    assert [r.getMessage() for r in caplog.records] == [
        "bev_iou on degenerate rectangle (areas 0, 8)"]


def test_bev_iou_axis_aligned_matches_2d():
    # with theta = 0 the footprint is axis-aligned: (cx, cy, l, w) maps to
    # a 2D box with w_img = l and h_img = w
    rng = np.random.default_rng(6)
    for _ in range(200):
        a, b = _rand_box3(rng), _rand_box3(rng)
        a = Box3D(a.cx, a.cy, 0, a.h, a.w, a.l, 0.0)
        b = Box3D(b.cx, b.cy, 0, b.h, b.w, b.l, 0.0)
        flat_a = Box2D(a.cx, a.cy, a.l, a.w)
        flat_b = Box2D(b.cx, b.cy, b.l, b.w)
        assert bev_iou(a, b) == pytest.approx(iou_2d(flat_a, flat_b), abs=1e-12)


def test_bev_iou_crossed_squares():
    # unit square vs the same square rotated 45 degrees: IoU = 1/sqrt(2)
    a = Box3D(0, 0, 0, 1, 1, 1, 0.0)
    b = Box3D(0, 0, 0, 1, 1, 1, math.pi / 4)
    assert bev_iou(a, b) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_bev_iou_rotation_and_translation_invariant():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = _rand_box3(rng), _rand_box3(rng)
        base = bev_iou(a, b)
        phi = float(rng.uniform(-math.pi, math.pi))
        tx, ty = rng.uniform(-20, 20, 2)
        c, s = math.cos(phi), math.sin(phi)

        def moved(x):
            nx = c * x.cx - s * x.cy + tx
            ny = s * x.cx + c * x.cy + ty
            return Box3D(nx, ny, x.cz, x.h, x.w, x.l, x.theta + phi)

        assert bev_iou(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)


def test_bev_iou_matches_monte_carlo():
    rng = np.random.default_rng(8)
    for _ in range(6):
        a, b = _rand_box3(rng), _rand_box3(rng)
        b = Box3D(a.cx + float(rng.uniform(-2, 2)), a.cy + float(rng.uniform(-2, 2)),
                  0, b.h, b.w, b.l, b.theta)
        est = mc_bev_iou(a, b, 400_000, rng)
        assert bev_iou(a, b) == pytest.approx(est, abs=5e-3)


def test_iou_3d_separated_heights():
    a = Box3D(0, 0, 0.0, 1, 2, 2, 0)
    b = Box3D(0, 0, 5.0, 1, 2, 2, 0)
    assert iou_3d(a, b) == 0.0


def test_iou_3d_identical():
    b = Box3D(0, 0, 1.0, 2, 2, 4, 0.3)
    assert iou_3d(b, b) == pytest.approx(1.0)


def test_iou_3d_half_height_overlap():
    a = Box3D(0, 0, 0.0, 2, 2, 2, 0)
    b = Box3D(0, 0, 1.0, 2, 2, 2, 0)  # vertical overlap 1 of union 3
    assert iou_3d(a, b) == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------------------
# cosine gallery distance


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_cosine_gallery_min_over_entries():
    e1 = _unit([1, 0, 0, 0])
    e2 = _unit([0, 1, 0, 0])
    probe = _unit([1, 1, 0, 0])
    d = cosine_gallery_dist([e1, e2], probe)
    assert d == pytest.approx(1.0 - math.cos(math.pi / 4))


def test_cosine_gallery_identical_vector_is_zero():
    e = _unit([0.3, -0.4, 0.5, 0.7])
    assert cosine_gallery_dist([e], e) == pytest.approx(0.0, abs=1e-12)


def test_cosine_gallery_opposite_vector_is_two():
    e = _unit([1, 0])
    assert cosine_gallery_dist([e], -e) == pytest.approx(2.0)


def test_cosine_gallery_empty_raises():
    with pytest.raises(EmptyGalleryError):
        cosine_gallery_dist([], _unit([1, 0]))


# ---------------------------------------------------------------------------
# NMS


def _det2(box, score, cls=ObjectClass.VEHICLE):
    return Detection(box, score, cls, camera_id=Camera.FRONT)


def test_nms_suppresses_heavy_overlap():
    a = _det2(Box2D(10, 10, 10, 10), 0.9)
    b = _det2(Box2D(11, 10, 10, 10), 0.8)  # IoU well above 0.5
    c = _det2(Box2D(50, 50, 10, 10), 0.7)
    kept = nms([a, b, c], 0.5)
    assert kept == [a, c]


def test_nms_keeps_boundary_overlap():
    a = _det2(Box2D(0, 0, 2, 2), 0.9)
    b = _det2(Box2D(2, 0, 2, 2), 0.8)  # touching, IoU 0
    assert nms([a, b], 0.5) == [a, b]


def test_nms_orders_by_score_not_input():
    lo = _det2(Box2D(10, 10, 10, 10), 0.3)
    hi = _det2(Box2D(10.5, 10, 10, 10), 0.9)
    kept = nms([lo, hi], 0.5)
    assert kept == [hi]


def test_nms_empty():
    assert nms([], 0.5) == []


def test_nms_3d_boxes():
    a = Detection(Box3D(0, 0, 0, 2, 2, 4, 0), 0.9, ObjectClass.VEHICLE)
    b = Detection(Box3D(0.2, 0, 0, 2, 2, 4, 0), 0.8, ObjectClass.VEHICLE)
    far = Detection(Box3D(30, 0, 0, 2, 2, 4, 0), 0.7, ObjectClass.VEHICLE)
    kept = nms([a, b, far], 0.5)
    assert kept == [a, far]


# ---------------------------------------------------------------------------
# matrix fills agree with scalar forms


def test_iou_dist_matrix_matches_scalar():
    rng = np.random.default_rng(9)
    rows = [_int_box(rng) for _ in range(7)]
    cols = [_int_box(rng) for _ in range(5)]
    for factor in (1.0, 2.0, 3.0):
        mat = iou_dist_matrix(rows, cols, factor)
        assert mat.shape == (7, 5)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert mat[i, j] == pytest.approx(
                    iou_dist_enlarged(a, b, factor), abs=1e-12)


def test_iou_dist_matrix_empty():
    assert iou_dist_matrix([], [Box2D(0, 0, 1, 1)]).shape == (0, 1)
    assert iou_dist_matrix([Box2D(0, 0, 1, 1)], []).shape == (1, 0)


def test_iou_dist_matrix_of_boxes_with_coinciding_corners_matches_scalar():
    """At 1e308 a box's corners round onto each other, so its area and the
    union of a pair of such boxes are 0: the fill gives the pair IoU 0, as
    the scalar form does, without dividing 0 by 0."""
    a = Box2D(1e308, 100, 40, 120)
    b = Box2D(50, 60, 20, 30)
    assert a.corners()[0] == a.corners()[2]
    scalar = [[iou_dist_enlarged(r, c) for c in (a, b)] for r in (a, b)]
    assert scalar[0][0] == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in ([a, b], np.array([[a.cx, a.cy, a.w, a.h], [b.cx, b.cy, b.w, b.h]])):
            assert iou_dist_matrix(rows, [a, b]).tolist() == scalar


def test_iou_dist_matrix_of_boxes_whose_corner_gap_overflows():
    """Boxes centred at -1e308 and +1e308 have a corner gap beyond the float
    range; the fill gives them no overlap, without an overflow warning. A
    detection cannot be centred there, but a ``Box2D`` can."""
    a, b = Box2D(-1e308, 100, 50, 80), Box2D(1e308, 100, 50, 80)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert iou_dist_matrix([a, b], [b, a]).tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_gauss_matrix_matches_scalar():
    rng = np.random.default_rng(10)
    boxes_r = [_rand_box3(rng) for _ in range(6)]
    boxes_c = [_rand_box3(rng) for _ in range(4)]
    rows = np.array([[b.cx, b.cy, b.cz] for b in boxes_r])
    cols = np.array([[b.cx, b.cy, b.cz] for b in boxes_c])
    mat = gauss_center_dist_matrix(rows, cols, 2.5)
    for i, a in enumerate(boxes_r):
        for j, b in enumerate(boxes_c):
            assert mat[i, j] == pytest.approx(
                gauss_center_dist(a, b, 2.5), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12), m=st.integers(0, 12),
       scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8]),
       sigma=st.floats(1e-3, 1e3))
def test_gauss_matrix_equals_summed_oracle_bit_for_bit(seed, n, m, scale, sigma):
    rng = np.random.default_rng(seed)
    rows, cols = rng.normal(0, scale, (n, 3)), rng.normal(0, scale, (m, 3))
    mat = gauss_center_dist_matrix(rows, cols, sigma)
    assert mat.tobytes() == summed_gauss_matrix(rows, cols, sigma).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12), m=st.integers(0, 12),
       scale=st.sampled_from([1e-8, 1.0, 1e8, 1e150, 1e200]))
def test_center_dist_sq_matrix_equals_summed_squares_bit_for_bit(seed, n, m, scale):
    """The squared distances are ``np.sum`` of the squared differences, bit
    for bit; a pair beyond the largest float apart is inf, without a
    warning."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.normal(0, scale, (n, 3)), rng.normal(0, scale, (m, 3))
    with np.errstate(over="ignore"):
        expected = np.sum((rows[:, None, :] - cols[None, :, :]) ** 2, axis=-1)
    assert center_dist_sq_matrix(rows, cols).tobytes() == expected.tobytes()


def test_cosine_matrix_matches_scalar_and_flags_missing():
    rng = np.random.default_rng(11)
    galleries = [
        [_unit(rng.normal(size=8)) for _ in range(3)],
        [],
        [_unit(rng.normal(size=8))],
    ]
    embeddings = [_unit(rng.normal(size=8)), None, _unit(rng.normal(size=8))]
    mat = _appearance_costs(galleries, embeddings, 1.0, None)
    assert mat.shape == (3, 3)
    assert np.all(np.isinf(mat[1, :]))   # empty gallery row
    assert np.all(np.isinf(mat[:, 1]))   # missing embedding column
    for i in (0, 2):
        for j in (0, 2):
            assert mat[i, j] == pytest.approx(
                cosine_gallery_dist(galleries[i], embeddings[j]), abs=1e-12)
    kernel = cosine_gallery_dist_matrix([galleries[0], galleries[2]],
                                        np.stack([embeddings[0], embeddings[2]]))
    assert kernel.tobytes() == mat[np.ix_([0, 2], [0, 2])].tobytes()


@st.composite
def _galleries_and_embeddings(draw):
    """Gallery matrices (whole, row-sliced views, empty) and embeddings
    (some missing) of one random size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 3, 8, 64, 512]))

    def units(n):
        v = rng.normal(size=(n, dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    galleries = []
    for _ in range(draw(st.integers(0, 6))):
        base = units(draw(st.integers(0, 12)))
        start, stop = sorted(draw(st.lists(st.integers(0, len(base)), min_size=2, max_size=2)))
        step = draw(st.sampled_from([1, 1, 2, 3]))
        galleries.append(draw(st.sampled_from([base, base[start:stop:step], np.empty((0, 0))])))
    embeddings = [None if draw(st.booleans()) else e for e in units(draw(st.integers(0, 6)))]
    return galleries, embeddings


@settings(max_examples=300, deadline=None)
@given(_galleries_and_embeddings())
def test_cosine_matrix_over_matrix_galleries_equals_deque_galleries(case):
    galleries, embeddings = case
    mat = _appearance_costs(galleries, embeddings, 1.0, None)
    ref = _appearance_costs([deque(np.array(row) for row in g) for g in galleries],
                            embeddings, 1.0, None)
    assert mat.shape == ref.shape == (len(galleries), len(embeddings))
    assert mat.tobytes() == ref.tobytes()


@st.composite
def _gated_galleries(draw):
    """Galleries as matrices, lists or deques of rows that need not be unit
    length (one row makes the bound tight), embeddings (some missing) and a
    gate within 1e-12 of one pair's cost, or a random one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 2, 8, 64, 512]))
    protos = rng.normal(size=(3, dim))

    def rows(n):
        # Near one of a few shared appearances, so some pairs pass t_a.
        v = protos[rng.integers(3, size=n)] + rng.normal(0, 0.3, (n, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * rng.uniform(0.5, 2.0, (n, 1)) if draw(st.booleans()) else v

    galleries = []
    for _ in range(draw(st.integers(0, 6))):
        g = rows(draw(st.sampled_from([0, 1, 1, 2, 5, 12])))
        kind = draw(st.sampled_from(["matrix", "list", "deque"]))
        galleries.append(g if kind == "matrix" else list(g) if kind == "list"
                         else deque(g))
    embeddings = [None if draw(st.integers(0, 4)) == 0 else e
                  for e in rows(draw(st.integers(0, 6)))]
    gate = draw(st.floats(0.0, 1.0))
    full = oracle_fill(galleries, embeddings)
    finite = full[np.isfinite(full)]
    if len(finite) and draw(st.booleans()):
        offset = draw(st.sampled_from([-1e-12, -3e-13, 3e-13, 1e-12]))
        gate = float(finite[draw(st.integers(0, len(finite) - 1))]) + offset
    return galleries, embeddings, gate


def _kernel_fill(galleries, embeddings, mask_of=None):
    """The fill over the non-empty galleries and the embeddings that are
    not None, as stage 1 calls it, with the other pairs at +inf;
    ``mask_of(galleries, emb)`` gives its ``admits`` mask."""
    costs = np.full((len(galleries), len(embeddings)), np.inf)
    live = [i for i, g in enumerate(galleries) if len(g)]
    have = [j for j, e in enumerate(embeddings) if e is not None]
    if live and have:
        rows, emb = [galleries[i] for i in live], np.stack([embeddings[j] for j in have])
        admits = None if mask_of is None else mask_of(rows, emb)
        costs[np.ix_(live, have)] = cosine_gallery_dist_matrix(rows, emb, admits)
    return costs


@settings(max_examples=400, deadline=None)
@given(_gated_galleries())
def test_pruned_cosine_fill_keeps_every_admissible_pair(case):
    """The fill given the mask of the pairs the gallery balls admit leaves
    the admissible pairs, their costs and the gated assignment as the full
    fill gives them, with the bits of the pruned reference fill."""
    galleries, embeddings, gate = case
    bounds = [gallery_bound(g) if len(g) else None for g in galleries]
    full = _kernel_fill(galleries, embeddings)
    pruned = _kernel_fill(galleries, embeddings, lambda rows, emb: ball_admits(
        [gallery_bound(g) for g in rows], emb.T, gate))
    assert pruned.shape == full.shape
    assert full.tobytes() == oracle_fill(galleries, embeddings).tobytes()
    assert pruned.tobytes() == oracle_fill(galleries, embeddings, gate, bounds).tobytes()
    admissible = full <= gate
    np.testing.assert_array_equal(pruned <= gate, admissible)
    np.testing.assert_allclose(pruned[admissible], full[admissible], rtol=0, atol=1e-12)
    assert (solve_gated_assignment(pruned, gate).matches
            == solve_gated_assignment(full, gate).matches)


@settings(max_examples=300, deadline=None)
@given(_gated_galleries(), st.integers(0, 2**32 - 1))
def test_cosine_fill_given_a_mask_computes_only_its_pairs(case, seed):
    """A mask passed as ``admits`` leaves the pairs outside it at +inf and
    computes those inside; a row it admits whole keeps the bits of the
    unmasked fill."""
    galleries, embeddings, _ = case
    have = [j for j, e in enumerate(embeddings) if e is not None]
    live = [i for i, g in enumerate(galleries) if len(g)]
    rng = np.random.default_rng(seed)
    mask = rng.random((len(live), len(have))) < rng.choice([0.5, 0.9])
    costs = _kernel_fill(galleries, embeddings, lambda rows, emb: mask)
    full = _kernel_fill(galleries, embeddings)
    inside = np.zeros(full.shape, dtype=bool)
    inside[np.ix_(live, have)] = mask
    assert np.all(np.isinf(costs[~inside]))
    np.testing.assert_allclose(costs[inside], full[inside], rtol=0, atol=1e-12)
    whole = [i for i, row in zip(live, mask) if row.all()]
    assert costs[whole].tobytes() == full[whole].tobytes()


@settings(max_examples=400, deadline=None)
@given(_gated_galleries())
def test_appearance_costs_equal_the_reference_fill_except_at_free_pairs(case):
    """Stage 1's appearance costs without balls are the reference fill's
    unpruned costs bit for bit, empty galleries and missing embeddings
    included. With balls they are its pruned costs bit for bit, except at
    free pairs: admissible, the only pair its ball admits in its row and
    the only admissible pair in its column, costed by the newest row."""
    galleries, embeddings, gate = case
    exact = _appearance_costs(galleries, embeddings, gate, None)
    assert exact.tobytes() == oracle_fill(galleries, embeddings).tobytes()
    bounds = [gallery_bound(g) if len(g) else None for g in galleries]
    costs = _appearance_costs(galleries, embeddings, gate, bounds)
    ref = oracle_fill(galleries, embeddings, gate, bounds)
    np.testing.assert_array_equal(costs <= gate, ref <= gate)
    for i, j in zip(*np.nonzero(costs.view(np.int64) != ref.view(np.int64))):
        assert ref[i, j] <= gate
        assert np.count_nonzero(np.isfinite(ref[i])) == 1
        assert np.count_nonzero(ref[:, j] <= gate) == 1
        newest = np.asarray(galleries[i][-1])
        assert costs[i, j] == pytest.approx(1.0 - newest @ embeddings[j], rel=0, abs=1e-12)


def test_gallery_bound_holds_every_row():
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 100):
        rows = rng.normal(size=(n, 16)) * rng.uniform(0.1, 3.0, (n, 1))
        centre, radius = gallery_bound(list(rows))
        assert np.all(np.linalg.norm(rows - centre, axis=1) <= radius)
    centre, radius = gallery_bound(np.ones((1, 4)))
    assert radius < 1e-6 and centre.tolist() == [1.0] * 4


def test_gauss_kernel_is_quiet_at_the_sigma_floor():
    """Just above the sigma floor, centres 10 m apart give d2 / (2 sigma^2)
    beyond the largest float; the cost is the kernel's limit, 1.0, and no
    warning is raised."""
    sigma = 1.0000001 * math.sqrt(sys.float_info.min / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        costs = gauss_center_dist_matrix(np.zeros((1, 3)), np.array([[10.0, 0.0, 0.0]]), sigma)
    assert costs.tolist() == [[1.0]]
