"""Acceptance suite: the package's headline guarantees, one test per claim.

Each test carries the ``acceptance`` marker so the run prints an
"ACCEPTANCE: <name>: PASS/FAIL" line per guarantee (see conftest.py).
Tolerances are part of the contract and are asserted literally; several
tests build their inputs from dyadic rationals (multiples of 1/64) so
that float arithmetic is exact and equalities can be checked with ==.
"""

import itertools
import math
import time

import numpy as np
import pytest

from oracles import mc_bev_iou, min_cost_matching_exhaustive, raster_iou_2d
from test_evaluation import mota_05_fixture

from hmot.assignment import INADMISSIBLE, solve_gated_assignment
from hmot.config import parse_config
from hmot.evaluation import FrameObject, GroundTruthFrame, evaluate
from hmot.kalman import (
    MotionModel2D,
    MotionModel3D,
    Noise2D,
    Noise3D,
    init_track_state,
    predict,
    update,
)
from hmot.metrics import bev_iou, gauss_center_dist, iou_2d, iou_dist_enlarged
from hmot.simulation import ObjectSpec, ScenarioSpec, Window, generate, preset
from hmot.tracker import TrackerInstance
from hmot.types import (
    Box2D,
    Box3D,
    Camera,
    Detection,
    Mode,
    ObjectClass,
)


def _run_tracker(mode, det_frames, camera=None, **kwargs):
    """March a tracker over a detection stream; return evaluation frames."""
    inst = TrackerInstance(mode, camera_id=camera, **kwargs)
    hyp = []
    results = []
    for t, dets in enumerate(det_frames):
        res = inst.step(dets)
        results.append(res)
        hyp.append(GroundTruthFrame(t, tuple(
            FrameObject(em.track_id, em.box, em.class_label)
            for em in res.emitted)))
    return hyp, results


# ---------------------------------------------------------------------------


@pytest.mark.acceptance(name="assignment-oracle")
def test_assignment_matches_exhaustive_oracle():
    """1000 random gated matrices up to 7x7: totals equal the exhaustive
    permutation optimum, exactly, in under five seconds."""
    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        # Costs are multiples of 1/64: sums of up to seven of them are exact
        # in float64, so == below is a true equality, not a tolerance.
        costs = rng.integers(0, 65, size=(n, m)).astype(np.float64) / 64.0
        if trial % 2 == 0:
            costs[rng.random((n, m)) < 0.25] = INADMISSIBLE
        gate = float(rng.integers(32, 65)) / 64.0
        result = solve_gated_assignment(costs, gate)
        total = sum(float(costs[i, j]) for i, j in result.matches)
        oracle_total, oracle_n = min_cost_matching_exhaustive(costs, gate)
        assert len(result.matches) == oracle_n
        assert total == oracle_total
        for i, j in result.matches:
            assert costs[i, j] <= gate
    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(name="kalman-algebra")
def test_kalman_filter_algebra():
    """k-step prediction equals one closed-form propagation (means bit for
    bit, covariances to 1e-9); covariance stays symmetric PSD over 1e4
    random cycles per mode; a zero-innovation update fixes the mean."""
    # Closed form: dyadic initial conditions make both routes exact.
    det2 = Detection(box=Box2D(96.0, 128.0, 32.0, 64.0), score=0.9,
                     class_label=ObjectClass.PEDESTRIAN, camera_id=Camera.FRONT)
    det3 = Detection(box=Box3D(8.0, -4.0, 1.0, 2.0, 1.0, 4.0, 0.25), score=0.9,
                     class_label=ObjectClass.PEDESTRIAN, camera_id=None)
    vel2 = np.array([1.5, -0.75, 1.0 / 64.0, 0.25])
    vel3 = np.array([0.5, -1.25, 0.125])
    for model, det, vel in ((MotionModel2D(), det2, vel2),
                            (MotionModel3D(), det3, vel3)):
        st0 = init_track_state(det, model)
        st0.mean[model.dim_obs:] = vel
        k = 6
        stepped = st0
        for _ in range(k):
            stepped = predict(stepped, model)
        Fk = np.linalg.matrix_power(model.F, k)
        mean_closed = Fk @ st0.mean
        cov_closed = Fk @ st0.cov @ Fk.T
        for j in range(k):
            mean_j = np.linalg.matrix_power(model.F, j) @ st0.mean
            Fj = np.linalg.matrix_power(model.F, k - 1 - j)
            cov_closed += Fj @ np.diag(model.process_var(mean_j)) @ Fj.T
        assert np.array_equal(stepped.mean, mean_closed)
        assert np.max(np.abs(stepped.cov - cov_closed)) <= 1e-9

    # PSD under sustained random traffic.
    rng = np.random.default_rng(905)
    n_cycles = 10_000
    for mode in (Mode.D2, Mode.D3):
        if mode is Mode.D2:
            model = MotionModel2D()
            cx, cy, w, h = 800.0, 600.0, 50.0, 120.0
            vx, vy = rng.uniform(-3.0, 3.0, 2)
            st = init_track_state(
                Detection(box=Box2D(cx, cy, w, h), score=0.9,
                          class_label=ObjectClass.PEDESTRIAN,
                          camera_id=Camera.FRONT), model)
        else:
            model = MotionModel3D()
            cx, cy, cz, h3, w3, l3, theta = 0.0, 0.0, 1.0, 1.7, 0.7, 0.9, 0.2
            vx, vy = rng.uniform(-1.0, 1.0, 2)
            st = init_track_state(
                Detection(box=Box3D(cx, cy, cz, h3, w3, l3, theta), score=0.9,
                          class_label=ObjectClass.PEDESTRIAN, camera_id=None),
                model)
        for _ in range(n_cycles):
            if mode is Mode.D2:
                vx = float(np.clip(vx + rng.normal(0, 0.3), -3.0, 3.0))
                vy = float(np.clip(vy + rng.normal(0, 0.3), -3.0, 3.0))
                cx, cy = cx + vx, cy + vy
                w = max(5.0, w * (1.0 + rng.normal(0, 0.02)))
                h = max(5.0, h * (1.0 + rng.normal(0, 0.02)))
                det = Detection(box=Box2D(cx, cy, w, h), score=0.9,
                                class_label=ObjectClass.PEDESTRIAN,
                                camera_id=Camera.FRONT)
            else:
                vx = float(np.clip(vx + rng.normal(0, 0.1), -1.0, 1.0))
                vy = float(np.clip(vy + rng.normal(0, 0.1), -1.0, 1.0))
                cx, cy = cx + vx, cy + vy
                theta = math.remainder(theta + rng.normal(0, 0.05), 2 * math.pi)
                h3 = max(0.3, h3 + rng.normal(0, 0.01))
                det = Detection(box=Box3D(cx, cy, cz, h3, w3, l3, theta),
                                score=0.9,
                                class_label=ObjectClass.PEDESTRIAN,
                                camera_id=None)
            st = predict(st, model)
            st = update(st, det, model)
            st.validate()

    # Zero innovation leaves the mean in place.
    for model, det in ((MotionModel2D(), det2), (MotionModel3D(), det3)):
        st = init_track_state(det, model)
        st = predict(st, model)
        if isinstance(model, MotionModel2D):
            cx, cy, gamma, h = st.mean[:4]
            same = Detection(box=Box2D(cx, cy, gamma * h, h), score=0.9,
                             class_label=ObjectClass.PEDESTRIAN,
                             camera_id=Camera.FRONT)
        else:
            cx, cy, cz, h, w, l, theta = st.mean[:7]
            same = Detection(box=Box3D(cx, cy, cz, h, w, l, theta), score=0.9,
                             class_label=ObjectClass.PEDESTRIAN, camera_id=None)
        out = update(st, same, model)
        assert np.max(np.abs(out.mean - st.mean)) <= 1e-9


@pytest.mark.acceptance(name="metric-correctness")
def test_metric_oracles():
    """iou_2d vs rasterization (1e-6, 1000 pairs), bev_iou vs Monte-Carlo
    (1e-3), Gaussian kernel vs analytic form (1e-12), and enlargement
    monotonicity on every sampled pair."""
    rng = np.random.default_rng(31)

    def int_box():
        x1, y1 = rng.integers(0, 100, 2)
        w, h = rng.integers(1, 80, 2)
        return Box2D(float(x1) + w / 2.0, float(y1) + h / 2.0, float(w), float(h))

    pairs = [(int_box(), int_box()) for _ in range(1000)]
    for a, b in pairs:
        # Integer corners make the rasterized overlap exact.
        assert iou_2d(a, b) == pytest.approx(raster_iou_2d(a, b), abs=1e-6)

    for a, b in pairs:
        d1 = iou_dist_enlarged(a, b, 1.0)
        d2 = iou_dist_enlarged(a, b, 2.0)
        d3 = iou_dist_enlarged(a, b, 3.0)
        assert d2 <= d1 + 1e-12
        assert d3 <= d2 + 1e-12

    bev_pairs = [
        (Box3D(0, 0, 0, 1, 2.0, 4.0, 0.0), Box3D(0.8, 0.5, 0, 1, 2.0, 4.0, 0.6)),
        (Box3D(0, 0, 0, 1, 2.0, 2.0, 0.0), Box3D(0.0, 0.0, 0, 1, 2.0, 2.0, math.pi / 4)),
        (Box3D(0, 0, 0, 1, 1.0, 5.0, 0.3), Box3D(0.5, -0.2, 0, 1, 1.2, 4.5, -0.4)),
        (Box3D(2, 1, 0, 1, 3.0, 3.0, 1.0), Box3D(2.5, 1.8, 0, 1, 2.0, 4.0, 2.2)),
        (Box3D(-1, -1, 0, 1, 2.5, 2.5, -0.7), Box3D(-0.4, -1.2, 0, 1, 2.5, 2.5, 0.7)),
        (Box3D(0, 0, 0, 1, 4.0, 1.5, 0.2), Box3D(0.3, 0.4, 0, 1, 4.0, 1.5, 0.25)),
    ]
    for i, (a, b) in enumerate(bev_pairs):
        mc = mc_bev_iou(a, b, 16_000_000, np.random.default_rng(1000 + i))
        assert bev_iou(a, b) == pytest.approx(mc, abs=1e-3)

    for _ in range(500):
        p = rng.uniform(-50.0, 50.0, 3)
        q = rng.uniform(-50.0, 50.0, 3)
        box_p = Box3D(p[0], p[1], p[2], 1.5, 0.6, 0.8, 0.0)
        box_q = Box3D(q[0], q[1], q[2], 1.5, 0.6, 0.8, 0.0)
        sigma = float(rng.uniform(0.5, 6.0))
        d2 = float(np.sum((p - q) ** 2))
        expected = 1.0 - math.exp(-d2 / (2.0 * sigma * sigma))
        assert gauss_center_dist(box_p, box_q, sigma) == pytest.approx(expected, abs=1e-12)


@pytest.mark.acceptance(name="perfect-input-end-to-end")
def test_perfect_input_end_to_end():
    """Noiseless 100-frame, 20-object sequences in both modes come back with
    MOTA exactly 1.0, zero mismatches, constant per-object ids, and under
    one second of tracking time per sequence."""
    for name, mode in (("clean-2d", Mode.D2), ("clean-3d", Mode.D3)):
        spec = preset(name, seed=0)
        gt, det_frames = generate(spec)
        camera = spec.camera if mode is Mode.D2 else None
        inst = TrackerInstance(mode, camera_id=camera)
        start = time.perf_counter()
        results = [inst.step(dets) for dets in det_frames]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{name}: tracking took {elapsed:.3f}s"

        hyp = [GroundTruthFrame(t, tuple(
            FrameObject(em.track_id, em.box, em.class_label)
            for em in res.emitted)) for t, res in enumerate(results)]
        report = evaluate(gt, hyp, mode=mode)
        assert report.overall.mota == 1.0
        assert report.overall.mismatch == 0
        assert report.overall.miss == 0 and report.overall.fp == 0

        # Id constancy: noiseless output boxes are the ground-truth boxes, so
        # each emitted box identifies its object by exact center equality.
        def center(box):
            if mode is Mode.D2:
                return (box.cx, box.cy)
            return (box.cx, box.cy, box.cz)

        gt_center_to_obj = {}
        for fr in gt:
            for obj in fr.objects:
                gt_center_to_obj[(fr.frame, center(obj.box))] = obj.obj_id
        track_to_objs = {}
        for fr in hyp:
            for hyp_obj in fr.objects:
                src = gt_center_to_obj[(fr.frame, center(hyp_obj.box))]
                track_to_objs.setdefault(hyp_obj.obj_id, set()).add(src)
        assert len(track_to_objs) == 20
        assert all(len(objs) == 1 for objs in track_to_objs.values())
        covered = {next(iter(objs)) for objs in track_to_objs.values()}
        assert covered == {obj.obj_id for obj in spec.objects}


@pytest.mark.acceptance(name="occlusion-ablation-ordering")
def test_occlusion_ablation_ordering():
    """On the occlusion preset the full pipeline strictly beats the
    two-stage variant, which strictly beats two-stage without appearance,
    for every one of ten seeds."""
    for seed in range(10):
        spec = preset("occlusion", seed)
        gt, det_frames = generate(spec)
        motas = []
        for use_stage3, use_reid in ((True, True), (False, True), (False, False)):
            hyp, _ = _run_tracker(Mode.D2, det_frames, camera=spec.camera,
                                  use_stage3=use_stage3, use_reid=use_reid)
            motas.append(evaluate(gt, hyp, mode=Mode.D2).overall.mota)
        full, no_stage3, baseline = motas
        assert full > no_stage3 > baseline, (
            f"seed {seed}: {full:.4f} / {no_stage3:.4f} / {baseline:.4f}")


@pytest.mark.acceptance(name="secondary-set-recovery")
def test_secondary_set_recovery():
    """A detection whose score dips into [t_s/2, t_s) for three frames is
    picked up by the third stage with zero misses; without that stage the
    tracker misses exactly those three frames."""
    spec = ScenarioSpec(
        mode=Mode.D2,
        n_frames=20,
        objects=(ObjectSpec(obj_id=1, class_label=ObjectClass.PEDESTRIAN,
                            init=(400.0, 400.0, 50.0, 160.0), velocity=(4.0, 0.0)),),
        weak_windows=(Window(1, 8, 3),),
        embed_dim=64,
        embed_noise_std=0.0,
        seed=123,
    )
    gt, det_frames = generate(spec)
    t_s = parse_config({}, mode=Mode.D2).class_configs[ObjectClass.PEDESTRIAN].t_s
    for t in (8, 9, 10):
        (det,) = det_frames[t]
        assert t_s / 2 <= det.score < t_s

    hyp_full, results_full = _run_tracker(Mode.D2, det_frames, camera=spec.camera)
    stage3_by_frame = [res.stage_matches[2] for res in results_full]
    assert stage3_by_frame[8:11] == [1, 1, 1]
    assert sum(stage3_by_frame) == 3
    full = evaluate(gt, hyp_full, mode=Mode.D2).overall
    assert (full.miss, full.fp, full.mismatch) == (0, 0, 0)
    assert full.mota == 1.0

    hyp_two, results_two = _run_tracker(Mode.D2, det_frames, camera=spec.camera,
                                        use_stage3=False)
    assert all(res.stage_matches[2] == 0 for res in results_two)
    two = evaluate(gt, hyp_two, mode=Mode.D2).overall
    assert two.miss == 3
    assert (two.fp, two.mismatch) == (0, 0)
    assert two.mota == 1.0 - 3.0 / 20.0


@pytest.mark.acceptance(name="reid-identity-preservation")
def test_crossing_identity_preservation():
    """Crossing pedestrians keep their identities under appearance matching
    on every seed; pure geometry swaps them on most seeds."""
    seeds = range(10)
    swapped = 0
    for seed in seeds:
        spec = preset("crossing", seed)
        gt, det_frames = generate(spec)
        hyp, _ = _run_tracker(Mode.D2, det_frames, camera=spec.camera)
        with_reid = evaluate(gt, hyp, mode=Mode.D2).overall.mismatch
        assert with_reid == 0, f"seed {seed}: {with_reid} mismatches with appearance"
        hyp, _ = _run_tracker(Mode.D2, det_frames, camera=spec.camera,
                              use_reid=False)
        without = evaluate(gt, hyp, mode=Mode.D2).overall.mismatch
        if without >= 1:
            swapped += 1
    assert swapped > len(seeds) // 2, f"only {swapped}/10 seeds swapped"


@pytest.mark.acceptance(name="clearmot-fixture")
def test_clearmot_fixture_and_id_relabeling():
    """The handcrafted six-box sequence (one miss, one false positive, one
    id switch) scores MOTA 0.5 exactly, and relabeling hypothesis ids by
    100 random bijections changes nothing."""
    gt, hyp = mota_05_fixture()
    counts = evaluate(gt, hyp, mode=Mode.D2).per_class[ObjectClass.PEDESTRIAN]
    assert (counts.gt, counts.fp, counts.miss, counts.mismatch) == (6, 1, 1, 1)
    assert counts.mota == 0.5

    baseline = (counts.gt, counts.fp, counts.miss, counts.mismatch,
                counts.matches, counts.dist_sum)
    hyp_ids = sorted({obj.obj_id for fr in hyp for obj in fr.objects})
    rng = np.random.default_rng(77)
    for _ in range(100):
        fresh = rng.permutation(100_000)[:len(hyp_ids)]
        mapping = {old: int(new) for old, new in zip(hyp_ids, fresh)}
        relabeled = [
            GroundTruthFrame(fr.frame, tuple(
                FrameObject(mapping[o.obj_id], o.box, o.class_label)
                for o in fr.objects))
            for fr in hyp
        ]
        c = evaluate(gt, relabeled, mode=Mode.D2).per_class[ObjectClass.PEDESTRIAN]
        assert (c.gt, c.fp, c.miss, c.mismatch, c.matches, c.dist_sum) == baseline


@pytest.mark.acceptance(name="default-config-values")
def test_empty_config_yields_documented_defaults():
    """An empty config document resolves to the documented defaults,
    checked field by field for every class in both modes."""
    per_class = {
        ObjectClass.PEDESTRIAN: dict(
            t_a=0.15, max_iou_dist_front=0.95, max_iou_dist_front_lr=0.97,
            max_iou_dist_side=0.99, sigma=1.5, max_center_dist=0.7),
        ObjectClass.VEHICLE: dict(
            t_a=0.06, max_iou_dist_front=0.90, max_iou_dist_front_lr=0.93,
            max_iou_dist_side=0.95, sigma=5.0, max_center_dist=0.5),
        ObjectClass.CYCLIST: dict(
            t_a=0.15, max_iou_dist_front=0.95, max_iou_dist_front_lr=0.97,
            max_iou_dist_side=0.99, sigma=3.0, max_center_dist=0.9),
    }
    lifecycle = dict(a_max=3, min_hits=1, gallery_budget=100,
                     enlarge_stage2=2.0, enlarge_stage3=3.0,
                     mahalanobis_gating=False)
    t_s_by_mode = {
        Mode.D2: {ObjectClass.PEDESTRIAN: 0.5, ObjectClass.VEHICLE: 0.4,
                  ObjectClass.CYCLIST: 0.5},
        Mode.D3: {ObjectClass.PEDESTRIAN: 0.5, ObjectClass.VEHICLE: 0.5,
                  ObjectClass.CYCLIST: 0.5},
    }
    for mode in (Mode.D2, Mode.D3):
        cfg = parse_config({}, mode=mode)
        assert cfg.mode is mode
        assert set(cfg.class_configs) == set(ObjectClass)
        for cls in ObjectClass:
            got = cfg.class_configs[cls]
            assert got.t_s == t_s_by_mode[mode][cls], (mode, cls)
            for field, value in {**per_class[cls], **lifecycle}.items():
                assert getattr(got, field) == value, (mode, cls, field)
        assert cfg.noise_2d == Noise2D()
        assert cfg.noise_3d == Noise3D()


@pytest.mark.acceptance(name="throughput-3d")
def test_3d_throughput():
    """Fifty objects per frame in 3D mode stream through a single tracker
    at one hundred frames per second or better."""
    rng = np.random.default_rng(55)
    objects = []
    for i, (col, row) in enumerate(itertools.product(range(10), range(5))):
        heading = float(rng.uniform(-math.pi, math.pi))
        speed = float(rng.uniform(0.2, 1.2))
        objects.append(ObjectSpec(
            obj_id=i + 1,
            class_label=ObjectClass.VEHICLE,
            init=(-120.0 + 25.0 * col, -50.0 + 25.0 * row, 1.0,
                  1.8, 2.0, 4.5, heading),
            velocity=(speed * math.cos(heading), speed * math.sin(heading), 0.0),
        ))
    spec = ScenarioSpec(mode=Mode.D3, camera=None, n_frames=200,
                        objects=tuple(objects), center_noise_std=0.1,
                        embed_dim=0, seed=9)
    _, det_frames = generate(spec)
    assert all(len(dets) == 50 for dets in det_frames)

    inst = TrackerInstance(Mode.D3)
    start = time.perf_counter()
    for dets in det_frames:
        inst.step(dets)
    elapsed = time.perf_counter() - start
    fps = len(det_frames) / elapsed
    assert fps >= 100.0, f"only {fps:.1f} frames/s"
