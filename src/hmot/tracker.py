"""Online tracking engine.

Per frame: predict all tracks, split detections by score into a primary and
a secondary set, run a three-stage gated association, update matched tracks,
age out stale ones, and seed new tracks from leftover primary detections.

Stage 1 matches in order of increasing track age (most recently seen tracks
get first pick) using appearance distance in 2D and kernelized center
distance in 3D. Stage 2 retries recently lost tracks against the remaining
primary detections with enlarged-IoU distance (2D). Stage 3 gives all still
unmatched tracks a chance against the low-score secondary set, which keeps
weakly detected but already-tracked objects alive without ever seeding new
tracks from weak detections.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .assignment import INADMISSIBLE, AssociationResult, solve_gated_assignment
from .config import default_class_configs
from .errors import ConfigError, NumericFailureError, ValidationError
from .kalman import (
    MotionModel,
    MotionModel2D,
    MotionModel3D,
    Noise2D,
    Noise3D,
    init_track_state,
    mahalanobis_sq,
    predict,
    update,
)
from .metrics import (
    cosine_gallery_dist_matrix,
    gauss_center_dist_matrix,
    iou_dist_matrix,
)
from .types import (
    Box,
    Camera,
    ClassConfig,
    Detection,
    Mode,
    ObjectClass,
    Track,
    box2d_from_state,
)

log = logging.getLogger(__name__)

# Stage 2 only admits tracks missed for fewer than this many frames,
# independent of the configured maximum age.
STAGE2_MAX_AGE = 3

# 95% quantile of the chi-square distribution by degrees of freedom (the
# 2D and 3D observation sizes), as scipy.stats.chi2.ppf(0.95, dof) gives it.
CHI2_95 = {4: 9.487729036781154, 7: 14.067140449340169}


@dataclass(frozen=True)
class EmittedTrack:
    """One output row: the raw observed box of a track matched this frame."""

    track_id: int
    box: Box
    score: float
    class_label: ObjectClass


@dataclass
class FrameResult:
    """Per-frame output plus association diagnostics."""

    frame: int
    emitted: list[EmittedTrack] = field(default_factory=list)
    stage_matches: tuple[int, int, int] = (0, 0, 0)
    created_ids: list[int] = field(default_factory=list)
    deleted_ids: list[int] = field(default_factory=list)


def split_detections(
    dets: Sequence[Detection], t_s: float
) -> tuple[list[Detection], list[Detection]]:
    """Partition detections by score into (primary, secondary).

    Primary: score > t_s. Secondary: t_s/2 <= score <= t_s (the boundary
    score t_s is kept rather than dropped between the sets). Detections
    scoring below t_s/2 are in neither set.
    """
    primary = [d for d in dets if d.score > t_s]
    secondary = [d for d in dets if t_s / 2.0 <= d.score <= t_s]
    return primary, secondary


def _gated_match(
    tracks: Sequence[Track],
    dets: Sequence[Detection],
    config: ClassConfig,
    mode: Mode,
    camera: Camera | None,
    *,
    use_reid: bool = False,
    enlarge: float = 1.0,
    model: MotionModel | None = None,
) -> AssociationResult:
    """One gated minimum-cost assignment of ``tracks`` to ``dets``.

    In 3D the cost is kernelized center distance (gate max_center_dist). In
    2D it is appearance distance against the track gallery (gate t_a) when
    ``use_reid`` is set, otherwise IoU distance over boxes scaled by
    ``enlarge`` with the camera's gate. With a ``model`` and
    ``mahalanobis_gating`` on, pairs whose innovation lies beyond the 95%
    chi-square quantile are inadmissible.
    """
    if mode is Mode.D3:
        costs = gauss_center_dist_matrix(
            np.array([t.state.mean[:3] for t in tracks]).reshape(-1, 3),
            np.array([[d.box.cx, d.box.cy, d.box.cz] for d in dets]).reshape(-1, 3),
            config.sigma,
        )
        gate = config.max_center_dist
    elif use_reid:
        costs = cosine_gallery_dist_matrix(
            [t.gallery for t in tracks], [d.embedding for d in dets]
        )
        gate = config.t_a
    else:
        costs = iou_dist_matrix(
            [box2d_from_state(t.state) for t in tracks], [d.box for d in dets],
            factor=enlarge,
        )
        if camera is None:
            raise ConfigError("2D IoU gating requires a camera")
        gate = config.max_iou_dist_for(camera)
    if config.mahalanobis_gating and model is not None:
        limit = CHI2_95[model.dim_obs]
        for i, j in zip(*np.nonzero(np.isfinite(costs))):
            if mahalanobis_sq(tracks[i].state, dets[j], model) > limit:
                costs[i, j] = INADMISSIBLE
    return solve_gated_assignment(costs, gate)


def _with_unmatched_tracks(
    matches: list[tuple[int, int]], n_tracks: int, unmatched_dets: list[int]
) -> AssociationResult:
    matched = {i for i, _ in matches}
    unmatched = [i for i in range(n_tracks) if i not in matched]
    return AssociationResult(matches, unmatched, unmatched_dets)


def stage1_cascade(
    tracks: Sequence[Track],
    dets: Sequence[Detection],
    config: ClassConfig,
    *,
    mode: Mode | str,
    camera: Camera | None = None,
    use_reid: bool = True,
    model: MotionModel | None = None,
) -> AssociationResult:
    """Age-ordered association against the primary detection set.

    Visits the ages present among the tracks, youngest first and up to
    a_max, solving one gated assignment per age band over the detections
    still unclaimed, so a recently seen track always outranks a
    long-occluded one competing for the same detection. The cost is the
    appearance (or, without ``use_reid``, IoU) distance in 2D and the
    kernelized center distance in 3D; see :func:`_gated_match`.
    """
    mode = Mode(mode)
    matches: list[tuple[int, int]] = []
    remaining = list(range(len(dets)))
    ages = {t.age_since_update for t in tracks if 0 <= t.age_since_update <= config.a_max}
    for age in sorted(ages):
        if not remaining:
            break
        band = [i for i, t in enumerate(tracks) if t.age_since_update == age]
        result = _gated_match(
            [tracks[i] for i in band], [dets[j] for j in remaining], config, mode,
            camera, use_reid=use_reid, model=model,
        )
        matches += [(band[r], remaining[c]) for r, c in result.matches]
        remaining = [remaining[c] for c in result.unmatched_detections]
    return _with_unmatched_tracks(matches, len(tracks), remaining)


def stage2_relaxed(
    tracks: Sequence[Track],
    dets: Sequence[Detection],
    config: ClassConfig,
    *,
    mode: Mode | str,
    camera: Camera | None = None,
) -> AssociationResult:
    """Second chance for recently lost tracks (age < 3) on leftover primary
    detections; 2D cost is IoU distance with boxes enlarged 2x."""
    eligible = [i for i, t in enumerate(tracks) if t.age_since_update < STAGE2_MAX_AGE]
    result = _gated_match(
        [tracks[i] for i in eligible], dets, config, Mode(mode), camera,
        enlarge=config.enlarge_stage2,
    )
    matches = [(eligible[r], c) for r, c in result.matches]
    return _with_unmatched_tracks(matches, len(tracks), result.unmatched_detections)


def stage3_secondary(
    tracks: Sequence[Track],
    dets: Sequence[Detection],
    config: ClassConfig,
    *,
    mode: Mode | str,
    camera: Camera | None = None,
) -> AssociationResult:
    """Match still-unmatched tracks against the weak (secondary) detections;
    2D cost is IoU distance with boxes enlarged 3x. Secondary detections
    that stay unmatched are dropped, never turned into tracks."""
    return _gated_match(
        tracks, dets, config, Mode(mode), camera, enlarge=config.enlarge_stage3
    )


def _apply(
    result: AssociationResult,
    tracks: list[Track],
    dets: list[Detection],
    pairs: list[tuple[Track, Detection]],
) -> tuple[list[Track], list[Detection]]:
    """Append the matched (track, detection) pairs of ``result`` to ``pairs``
    and return the tracks and detections it left unmatched."""
    pairs += [(tracks[i], dets[j]) for i, j in result.matches]
    return (
        [tracks[i] for i in result.unmatched_tracks],
        [dets[j] for j in result.unmatched_detections],
    )


class TrackerInstance:
    """Single-stream online tracker for one sequence (in 2D: one camera).

    ``step`` consumes one frame of detections at a time and must be called
    in frame order; nothing is buffered, so outputs are causal. Distinct
    instances are fully independent. Pass a shared ``id_counter`` to keep
    track ids unique across the per-camera instances of one sequence.
    """

    def __init__(
        self,
        mode: Mode | str,
        configs: Mapping[ObjectClass, ClassConfig] | None = None,
        camera_id: Camera | str | None = None,
        *,
        noise_2d: Noise2D | None = None,
        noise_3d: Noise3D | None = None,
        id_counter: Iterator[int] | None = None,
        use_stage3: bool = True,
        use_reid: bool = True,
    ):
        self.mode = Mode(mode)
        if self.mode is Mode.D2:
            if camera_id is None:
                raise ConfigError("2D tracking requires a camera_id")
            self.camera_id: Camera | None = Camera(camera_id)
            self.model: MotionModel = MotionModel2D(noise_2d)
        else:
            if camera_id is not None:
                raise ConfigError("3D tracking does not take a camera_id")
            self.camera_id = None
            self.model = MotionModel3D(noise_3d)
        self.configs = dict(configs) if configs is not None else default_class_configs(self.mode)
        self.tracks: list[Track] = []
        self.frame_index = 0
        self.use_stage3 = use_stage3
        self.use_reid = use_reid
        self._id_counter = id_counter if id_counter is not None else itertools.count(1)
        # Size of the first embedding seen (2D with re-id only); until one
        # arrives, stage 1 falls back to IoU.
        self._embed_dim: int | None = None
        self._fallback_logged = False

    def _config_for(self, label: ObjectClass) -> ClassConfig:
        try:
            return self.configs[label]
        except KeyError:
            raise ConfigError(f"no configuration for class {label.value!r}") from None

    def _validate(self, dets: Sequence[Detection]) -> None:
        embed_dim = self._embed_dim
        for det in dets:
            if det.is_2d != (self.mode is Mode.D2):
                raise ConfigError(
                    f"detection box type does not match tracker mode {self.mode.value!r}"
                )
            if self.mode is Mode.D2 and det.camera_id != self.camera_id:
                raise ConfigError(
                    f"detection camera {det.camera_id} does not belong to this "
                    f"instance (camera {self.camera_id})"
                )
            self._config_for(det.class_label)
            if self.mode is Mode.D2 and self.use_reid and det.embedding is not None:
                if embed_dim is None:
                    embed_dim = len(det.embedding)
                elif len(det.embedding) != embed_dim:
                    raise ValidationError(
                        f"embedding size {len(det.embedding)} differs from the "
                        f"first embedding's size {embed_dim}"
                    )
        self._embed_dim = embed_dim

    def step(self, detections: Iterable[Detection]) -> FrameResult:
        dets = list(detections)
        self._validate(dets)
        result = FrameResult(frame=self.frame_index)

        kept: list[Track] = []
        for track in self.tracks:
            try:
                track.state = predict(track.state, self.model)
                kept.append(track)
            except NumericFailureError as exc:
                log.warning("deleting track %d: %s", track.track_id, exc)
                result.deleted_ids.append(track.track_id)
        self.tracks = kept

        use_reid_now = True
        if self.mode is Mode.D2:
            use_reid_now = self._embed_dim is not None
            if not use_reid_now and not self._fallback_logged and self.tracks and dets:
                log.log(
                    logging.INFO if not self.use_reid else logging.WARNING,
                    "no appearance embeddings available; stage-1 association "
                    "falls back to IoU gating",
                )
                self._fallback_logged = True

        matched_pairs: list[tuple[Track, Detection]] = []
        unmatched_primary: list[Detection] = []
        s1 = s2 = s3 = 0
        for cls in ObjectClass:
            cls_tracks = [t for t in self.tracks if t.class_label is cls]
            cls_dets = [d for d in dets if d.class_label is cls]
            if not cls_tracks and not cls_dets:
                continue
            cfg = self._config_for(cls)
            prim, sec = split_detections(cls_dets, cfg.t_s)

            r1 = stage1_cascade(
                cls_tracks, prim, cfg,
                mode=self.mode, camera=self.camera_id,
                use_reid=use_reid_now, model=self.model,
            )
            s1 += len(r1.matches)
            rest, prim = _apply(r1, cls_tracks, prim, matched_pairs)

            r2 = stage2_relaxed(rest, prim, cfg, mode=self.mode, camera=self.camera_id)
            s2 += len(r2.matches)
            rest, prim = _apply(r2, rest, prim, matched_pairs)
            unmatched_primary += prim

            if self.use_stage3:
                r3 = stage3_secondary(rest, sec, cfg, mode=self.mode, camera=self.camera_id)
                s3 += len(r3.matches)
                _apply(r3, rest, sec, matched_pairs)

        emit_pairs: list[tuple[Track, Detection]] = []
        matched_ids: set[int] = set()
        for track, det in matched_pairs:
            try:
                track.state = update(track.state, det, self.model)
            except NumericFailureError as exc:
                log.warning("deleting track %d: %s", track.track_id, exc)
                result.deleted_ids.append(track.track_id)
                self.tracks = [t for t in self.tracks if t is not track]
                continue
            cfg = self._config_for(track.class_label)
            track.age_since_update = 0
            track.hits += 1
            track.score = det.score
            if self.use_reid and det.embedding is not None:
                track.gallery.append(det.embedding)
                while len(track.gallery) > cfg.gallery_budget:
                    track.gallery.popleft()
            matched_ids.add(track.track_id)
            emit_pairs.append((track, det))

        kept = []
        for track in self.tracks:
            if track.track_id not in matched_ids:
                track.age_since_update += 1
            if track.age_since_update > self._config_for(track.class_label).a_max:
                result.deleted_ids.append(track.track_id)
            else:
                kept.append(track)
        self.tracks = kept

        for det in unmatched_primary:
            gallery: deque = deque()
            if self.use_reid and det.embedding is not None:
                gallery.append(det.embedding)
            track = Track(
                track_id=next(self._id_counter),
                state=init_track_state(det, self.model),
                class_label=det.class_label,
                camera_id=self.camera_id,
                score=det.score,
                age_since_update=0,
                hits=1,
                gallery=gallery,
            )
            self.tracks.append(track)
            result.created_ids.append(track.track_id)
            emit_pairs.append((track, det))

        for track, det in sorted(emit_pairs, key=lambda pair: pair[0].track_id):
            if track.hits >= self._config_for(track.class_label).min_hits:
                result.emitted.append(
                    EmittedTrack(track.track_id, det.box, track.score, track.class_label)
                )

        result.stage_matches = (s1, s2, s3)
        self.frame_index += 1
        return result
