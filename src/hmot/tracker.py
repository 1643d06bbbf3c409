"""Online tracking engine.

Per frame, one pass per class: predict its tracks, split its detections by
score into a primary and a secondary set, run a three-stage gated cascade,
update matched tracks, age out stale ones, and seed new tracks from leftover
primary detections. Predict and update are one batched filter call each,
over the class's tracks and over its matched pairs. Each stage solves one
gated assignment per band of tracks over the detections earlier bands left
unclaimed. Stage 1 bands tracks by age, youngest first, using appearance
distance in 2D and kernelized center distance in 3D. Stage 2 is one band of
recently lost tracks on the remaining primary detections with enlarged-IoU
distance (2D). Stage 3 is one band of all still unmatched tracks on the
low-score secondary set, which keeps weakly detected objects alive but never
seeds a track.
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
    mahalanobis_sq_pairs,
)
# One call per class and frame; the names are the ones the tracing layer of
# the benchmark wraps.
from .kalman import predict_batch as predict
from .kalman import update_batch as update
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
    State,
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
        # Only pairs within the cost gate can be matched, so only they are
        # tested. A track without a positive definite S gates out all pairs.
        rows, cols = np.nonzero(costs <= gate)
        d2 = mahalanobis_sq_pairs([t.state for t in tracks], dets, rows, cols, model)
        far = d2 > CHI2_95[model.dim_obs]
        costs[rows[far], cols[far]] = INADMISSIBLE
    return solve_gated_assignment(costs, gate)


def _cascade(
    tracks: Sequence[Track],
    dets: Sequence[Detection],
    bands: Iterable[list[int]],
    config: ClassConfig,
    mode: Mode | str,
    camera: Camera | None,
    **match_kwargs,
) -> AssociationResult:
    """One :func:`_gated_match` (given ``match_kwargs``) per band of track
    indices, in order, over the detections earlier bands left unclaimed."""
    mode = Mode(mode)
    matches: list[tuple[int, int]] = []
    remaining = list(range(len(dets)))
    for band in bands:
        if not band or not remaining:
            continue
        result = _gated_match(
            [tracks[i] for i in band], [dets[j] for j in remaining], config, mode,
            camera, **match_kwargs,
        )
        matches += [(band[r], remaining[c]) for r, c in result.matches]
        remaining = [remaining[c] for c in result.unmatched_detections]
    matched = {i for i, _ in matches}
    return AssociationResult(matches, [i for i in range(len(tracks)) if i not in matched],
                             remaining)


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
    by_age: dict[int, list[int]] = {}
    for i, t in enumerate(tracks):
        if 0 <= t.age_since_update <= config.a_max:
            by_age.setdefault(t.age_since_update, []).append(i)
    return _cascade(
        tracks, dets, [by_age[age] for age in sorted(by_age)], config, mode, camera,
        use_reid=use_reid, model=model,
    )


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
    return _cascade(
        tracks, dets, [eligible], config, mode, camera, enlarge=config.enlarge_stage2
    )


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
    return _cascade(
        tracks, dets, [list(range(len(tracks)))], config, mode, camera,
        enlarge=config.enlarge_stage3,
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
    ``noise`` is the filter noise of the mode (``Noise2D`` or ``Noise3D``).
    """

    def __init__(
        self,
        mode: Mode | str,
        configs: Mapping[ObjectClass, ClassConfig] | None = None,
        camera_id: Camera | str | None = None,
        *,
        noise: Noise2D | Noise3D | None = None,
        id_counter: Iterator[int] | None = None,
        use_stage3: bool = True,
        use_reid: bool = True,
    ):
        self.mode = Mode(mode)
        if self.mode is Mode.D2:
            if camera_id is None:
                raise ConfigError("2D tracking requires a camera_id")
            self.camera_id: Camera | None = Camera(camera_id)
            model_cls, noise_cls = MotionModel2D, Noise2D
        else:
            if camera_id is not None:
                raise ConfigError("3D tracking does not take a camera_id")
            self.camera_id = None
            model_cls, noise_cls = MotionModel3D, Noise3D
        if noise is not None and not isinstance(noise, noise_cls):
            raise ConfigError(f"{self.mode.value} tracking needs {noise_cls.__name__} noise, "
                              f"got {type(noise).__name__}")
        self.model: MotionModel = model_cls(noise)
        self.configs = dict(configs) if configs is not None else default_class_configs(self.mode)
        self._tracks: dict[ObjectClass, list[Track]] = {cls: [] for cls in ObjectClass}
        self.frame_index = 0
        self.use_stage3 = use_stage3
        self.use_reid = use_reid
        self._id_counter = id_counter if id_counter is not None else itertools.count(1)
        # Size of the first embedding seen (2D with re-id only); until one
        # arrives, stage 1 falls back to IoU.
        self._embed_dim: int | None = None
        self._fallback_logged = False

    @property
    def tracks(self) -> list[Track]:
        """The live tracks, grouped by class in ``ObjectClass`` order."""
        return [t for cls_tracks in self._tracks.values() for t in cls_tracks]

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

    def _advance(self, tracks: Sequence[Track],
                 states: Sequence[State | NumericFailureError], result: FrameResult
                 ) -> set[Track]:
        """Give each track its entry of ``states``, one batched ``predict`` or
        ``update``. A track whose entry is a numeric failure is listed as
        deleted, in order, instead; return those tracks."""
        failed = set()
        for track, state in zip(tracks, states):
            if isinstance(state, NumericFailureError):
                log.warning("deleting track %d: %s", track.track_id, state)
                result.deleted_ids.append(track.track_id)
                failed.add(track)
            else:
                track.state = state
        return failed

    def step(self, detections: Iterable[Detection]) -> FrameResult:
        dets = list(detections)
        self._validate(dets)
        result = FrameResult(frame=self.frame_index)
        # Until the first embedding arrives, 2D stage 1 gates by IoU.
        use_reid_now = self.mode is Mode.D3 or self._embed_dim is not None
        dets_by_class: dict[ObjectClass, list[Detection]] = {}
        for det in dets:
            dets_by_class.setdefault(det.class_label, []).append(det)

        emit_pairs: list[tuple[Track, Detection]] = []
        s1 = s2 = s3 = 0
        for cls, cls_tracks in self._tracks.items():
            cls_dets = dets_by_class.get(cls, [])
            if not cls_tracks and not cls_dets:
                continue
            cfg = self._config_for(cls)
            failed = self._advance(cls_tracks, predict([t.state for t in cls_tracks], self.model),
                                   result)
            live = [t for t in cls_tracks if t not in failed]
            if not use_reid_now and not self._fallback_logged and live and dets:
                log.log(
                    logging.INFO if not self.use_reid else logging.WARNING,
                    "no appearance embeddings available; stage-1 association "
                    "falls back to IoU gating",
                )
                self._fallback_logged = True

            pairs: list[tuple[Track, Detection]] = []
            prim, sec = split_detections(cls_dets, cfg.t_s)
            r1 = stage1_cascade(live, prim, cfg, mode=self.mode, camera=self.camera_id,
                                use_reid=use_reid_now, model=self.model)
            s1 += len(r1.matches)
            rest, prim = _apply(r1, live, prim, pairs)

            r2 = stage2_relaxed(rest, prim, cfg, mode=self.mode, camera=self.camera_id)
            s2 += len(r2.matches)
            rest, prim = _apply(r2, rest, prim, pairs)

            if self.use_stage3:
                r3 = stage3_secondary(rest, sec, cfg, mode=self.mode, camera=self.camera_id)
                s3 += len(r3.matches)
                rest, _ = _apply(r3, rest, sec, pairs)

            failed = self._advance(
                [t for t, _ in pairs],
                update([t.state for t, _ in pairs], [det for _, det in pairs], self.model),
                result,
            )
            for track, det in pairs:
                if track in failed:
                    continue
                track.age_since_update = 0
                track.hits += 1
                track.score = det.score
                if self.use_reid and det.embedding is not None:
                    track.gallery.append(det.embedding)
                    while len(track.gallery) > cfg.gallery_budget:
                        track.gallery.popleft()
                if track.hits >= cfg.min_hits:
                    emit_pairs.append((track, det))
            for track in rest:
                track.age_since_update += 1
                if track.age_since_update > cfg.a_max:
                    result.deleted_ids.append(track.track_id)
            kept = [t for t in live if t not in failed and t.age_since_update <= cfg.a_max]

            for det in prim:
                embeddings = [det.embedding] if self.use_reid and det.embedding is not None else []
                track = Track(next(self._id_counter), init_track_state(det, self.model), cls,
                              det.score, gallery=deque(embeddings))
                kept.append(track)
                result.created_ids.append(track.track_id)
                if track.hits >= cfg.min_hits:
                    emit_pairs.append((track, det))
            self._tracks[cls] = kept

        result.emitted = [
            EmittedTrack(track.track_id, det.box, track.score, track.class_label)
            for track, det in sorted(emit_pairs, key=lambda pair: pair[0].track_id)
        ]
        result.stage_matches = (s1, s2, s3)
        self.frame_index += 1
        return result
