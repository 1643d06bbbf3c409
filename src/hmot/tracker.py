"""Online tracking engine.

One store per instance holds the filter states of all its tracks: one array
of means (N, d) and one of covariances (N, d, d), row i belonging to the
i-th track, rows grouped by class. Per frame: one batched predict of every
row; per class, split its detections by score into a primary and a secondary
set and run a three-stage gated cascade on its rows; one batched update of
every matched pair; then age out stale tracks, seed new ones from leftover
primary detections after their class's rows, and compact the store once.
Each stage takes the whole arrays, the track rows still open and the
detection rows to match, and returns rows of the same arrays.
``track.state`` is a view of the track's rows, so edits to it in place reach
the next step's filter; a deleted track keeps the state of the last step it
lived through. Each stage solves one gated assignment per band of tracks
over the detections earlier bands left. Stage 1 bands by age, youngest
first, by appearance distance in 2D and kernelized center distance in 3D.
Stage 2 is one band of recently lost tracks on the remaining primary
detections by enlarged IoU (2D). Stage 3 is one band of all still unmatched
tracks on the low-score secondary set, which keeps weak objects alive but
never seeds a track.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .assignment import INADMISSIBLE, AssociationResult, solve_gated_assignment
from .config import default_class_configs
from .errors import ConfigError, DegenerateBoxError, NumericFailureError, ValidationError
from .kalman import (
    MotionModel,
    MotionModel2D,
    MotionModel3D,
    Noise2D,
    Noise3D,
    init_track_state,
    mahalanobis_sq_pairs,
)
# One call each per frame; the names are the ones the tracing layer of the
# benchmark wraps.
from .kalman import predict_batch as predict
from .kalman import update_batch as update
from .metrics import (
    cosine_gallery_dist_matrix,
    gallery_bound,
    gauss_center_dist_matrix,
    iou_dist_matrix,
)
from .types import (
    EXTENTS,
    Box,
    Camera,
    ClassConfig,
    Detection,
    Mode,
    ObjectClass,
    State,
    Track,
)

log = logging.getLogger(__name__)

# Stage 2 only admits tracks missed for fewer than this many frames,
# independent of the configured maximum age.
STAGE2_MAX_AGE = 3

# 95% quantile of the chi-square distribution by degrees of freedom (the
# 2D and 3D observation sizes), as scipy.stats.chi2.ppf(0.95, dof) gives it.
CHI2_95 = {4: 9.487729036781154, 7: 14.067140449340169}


class EmittedTrack(NamedTuple):
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
    primary, secondary = _split_indices(dets, t_s)
    return [dets[j] for j in primary], [dets[j] for j in secondary]


def _split_indices(dets: Sequence[Detection], t_s: float) -> tuple[list[int], list[int]]:
    """Positions in ``dets`` of the primary and of the secondary set."""
    return ([j for j, d in enumerate(dets) if d.score > t_s],
            [j for j, d in enumerate(dets) if t_s / 2.0 <= d.score <= t_s])


def _state_boxes(means: np.ndarray) -> np.ndarray:
    """(cx, cy, w, h) of each 2D state mean, w = gamma * h, as
    :func:`~hmot.types.box2d_from_state` reconstructs it; the first mean
    whose w or h is not positive raises ``DegenerateBoxError``."""
    w, h = means[:, 2] * means[:, 3], means[:, 3]
    bad = np.flatnonzero((w <= 0) | (h <= 0))
    if len(bad):
        raise DegenerateBoxError(f"state yields degenerate box (w={w[bad[0]]}, h={h[bad[0]]})")
    return np.stack([means[:, 0], means[:, 1], w, h], axis=1)


def _gated_match(
    tracks: Sequence[Track],
    means: np.ndarray,
    dets: Sequence[Detection],
    obs: np.ndarray,
    rows: list[int],
    cols: list[int],
    config: ClassConfig,
    mode: Mode,
    camera: Camera | None,
    *,
    use_reid: bool = False,
    enlarge: float = 1.0,
    model: MotionModel | None = None,
    covs: np.ndarray | None = None,
    bounds: Sequence[tuple[np.ndarray, float] | None] | None = None,
) -> AssociationResult:
    """One gated minimum-cost assignment of the tracks ``rows`` to the
    detections ``cols``, as in :func:`stage1_cascade`.

    In 3D the cost is kernelized center distance (gate max_center_dist). In
    2D it is appearance distance against the track gallery (gate t_a) when
    ``use_reid`` is set, otherwise IoU distance over boxes scaled by
    ``enlarge`` with the camera's gate. Given ``bounds``, row i's gallery
    ball (see :func:`~hmot.metrics.cosine_gallery_dist_matrix`), pairs the
    ball proves above t_a are not computed. With a ``model`` and
    ``mahalanobis_gating`` on, pairs whose innovation under the covariances
    ``covs`` lies beyond the 95% chi-square quantile are inadmissible.
    """
    means = means[rows]
    if mode is Mode.D3:
        costs = gauss_center_dist_matrix(means[:, :3], obs[cols, :3], config.sigma)
        gate = config.max_center_dist
    elif use_reid:
        gate = config.t_a
        costs = cosine_gallery_dist_matrix(
            [tracks[i].gallery for i in rows], [dets[j].embedding for j in cols], gate,
            None if bounds is None else [bounds[i] for i in rows],
        )
    else:
        costs = iou_dist_matrix(_state_boxes(means), [dets[j].box for j in cols],
                                factor=enlarge)
        if camera is None:
            raise ConfigError("2D IoU gating requires a camera")
        gate = config.max_iou_dist_for(camera)
    if config.mahalanobis_gating and model is not None:
        # Only pairs within the cost gate can be matched, so only they are
        # tested. A track without a positive definite S gates out all pairs.
        r, c = np.nonzero(costs <= gate)
        d2, _ = mahalanobis_sq_pairs(means, covs[rows], obs[cols], r, c, model)
        far = d2 > CHI2_95[model.dim_obs]
        costs[r[far], c[far]] = INADMISSIBLE
    return solve_gated_assignment(costs, gate)


def _cascade(
    tracks: Sequence[Track],
    means: np.ndarray,
    dets: Sequence[Detection],
    obs: np.ndarray,
    rows: Sequence[int],
    bands: Iterable[list[int]],
    cols: Sequence[int],
    config: ClassConfig,
    mode: Mode | str,
    camera: Camera | None,
    **match_kwargs,
) -> AssociationResult:
    """One :func:`_gated_match` (given ``match_kwargs``) per band of track
    rows, in order, over the rows of ``cols`` earlier bands left unclaimed;
    the unmatched tracks are the rows of ``rows`` no band matched."""
    mode = Mode(mode)
    matches: list[tuple[int, int]] = []
    remaining = list(cols)
    for band in bands:
        if not band or not remaining:
            continue
        result = _gated_match(tracks, means, dets, obs, band, remaining, config, mode, camera,
                              **match_kwargs)
        matches += [(band[r], remaining[c]) for r, c in result.matches]
        remaining = [remaining[c] for c in result.unmatched_detections]
    matched = {i for i, _ in matches}
    return AssociationResult(matches, [i for i in rows if i not in matched], remaining)


def stage1_cascade(
    tracks: Sequence[Track],
    means: np.ndarray,
    dets: Sequence[Detection],
    obs: np.ndarray,
    config: ClassConfig,
    *,
    rows: Sequence[int],
    cols: Sequence[int],
    mode: Mode | str,
    camera: Camera | None = None,
    use_reid: bool = True,
    model: MotionModel | None = None,
    covs: np.ndarray | None = None,
    bounds: Sequence[tuple[np.ndarray, float] | None] | None = None,
) -> AssociationResult:
    """Age-ordered association of the track rows ``rows`` against the
    primary detection rows ``cols``; the results are rows too.

    Row i of ``means`` (and of ``covs``) is the predicted state of
    ``tracks[i]``; row j of ``obs`` is the observation of ``dets[j]``, as
    ``model.observations`` gives it. Visits the ages present among the
    tracks, youngest first and up to a_max, solving one gated assignment per
    age band over the detections still unclaimed, so a recently seen track
    always outranks a long-occluded one competing for the same detection.
    The cost is the appearance (or, without ``use_reid``, IoU) distance in
    2D and the kernelized center distance in 3D; see :func:`_gated_match`,
    which also says how ``bounds`` (row i: ``tracks[i]``'s gallery ball, or
    None for an empty gallery) prunes the appearance fill.
    """
    by_age: dict[int, list[int]] = {}
    for i in rows:
        if 0 <= (age := tracks[i].age_since_update) <= config.a_max:
            by_age.setdefault(age, []).append(i)
    return _cascade(
        tracks, means, dets, obs, rows, [by_age[age] for age in sorted(by_age)], cols, config,
        mode, camera, use_reid=use_reid, model=model, covs=covs, bounds=bounds,
    )


def stage2_relaxed(
    tracks: Sequence[Track],
    means: np.ndarray,
    dets: Sequence[Detection],
    obs: np.ndarray,
    config: ClassConfig,
    *,
    rows: Sequence[int],
    cols: Sequence[int],
    mode: Mode | str,
    camera: Camera | None = None,
) -> AssociationResult:
    """Second chance for recently lost tracks (age < 3) among ``rows`` on
    leftover primary detections ``cols``; 2D cost is IoU distance with boxes
    enlarged 2x. Arguments and results are as in :func:`stage1_cascade`."""
    eligible = [i for i in rows if tracks[i].age_since_update < STAGE2_MAX_AGE]
    return _cascade(tracks, means, dets, obs, rows, [eligible], cols, config, mode, camera,
                    enlarge=config.enlarge_stage2)


def stage3_secondary(
    tracks: Sequence[Track],
    means: np.ndarray,
    dets: Sequence[Detection],
    obs: np.ndarray,
    config: ClassConfig,
    *,
    rows: Sequence[int],
    cols: Sequence[int],
    mode: Mode | str,
    camera: Camera | None = None,
) -> AssociationResult:
    """Match still-unmatched tracks ``rows`` against the weak (secondary)
    detections ``cols``; 2D cost is IoU distance with boxes enlarged 3x.
    Secondary detections that stay unmatched are dropped, never turned into
    tracks. Arguments and results are as in :func:`stage1_cascade`."""
    return _cascade(tracks, means, dets, obs, rows, [list(rows)], cols, config, mode, camera,
                    enlarge=config.enlarge_stage3)


def _delete(tracks: Sequence[Track], failures: Mapping[int, NumericFailureError],
            start: int, stop: int, result: FrameResult) -> None:
    """Log and list as deleted, in order, each track ``failures`` names by
    its place in ``tracks``, from ``start`` up to ``stop``."""
    for i in sorted(failures):
        if start <= i < stop:
            log.warning("deleting track %d: %s", tracks[i].track_id, failures[i])
            result.deleted_ids.append(tracks[i].track_id)


# A gallery of budget b holds up to b // GALLERY_SPARE (at least one) spare
# rows beyond its newest, so its rows move to a new buffer once per that
# many appends.
GALLERY_SPARE = 4


class _Gallery:
    """A track's gallery, its newest ``budget`` embeddings oldest first, as
    rows ``start:start + n`` of a buffer, with a ball (``centre``,
    ``radius``) that holds every row.

    An append writes the row after the gallery, so no row an earlier view
    showed is ever rewritten, and widens the radius to reach the new row; a
    row that drops out leaves the ball a bound. When the buffer is full, the
    rows kept move into a new one, twice as large up to ``budget`` plus the
    spare rows, and the ball is measured anew. ``view``, the gallery the
    track shows, is read-only, so no edit in place can leave the ball stale.
    """

    __slots__ = ("buf", "start", "view", "centre", "radius")

    def __init__(self, rows: np.ndarray, capacity: int):
        self._move(rows, capacity)

    def _move(self, rows: np.ndarray, capacity: int, embedding: np.ndarray | None = None) -> None:
        """Make ``rows``, then ``embedding`` if given, the gallery, at the
        start of a new buffer of ``capacity`` rows; measure the ball."""
        n = len(rows)
        self.buf = np.empty((capacity, rows.shape[1]))
        self.buf[:n] = rows
        if embedding is not None:
            self.buf[n] = embedding
            n += 1
        self.start = 0
        self._show(n)
        self.centre, self.radius = gallery_bound(self.view)

    def _show(self, n: int) -> None:
        self.view = self.buf[self.start:self.start + n]
        self.view.flags.writeable = False

    def append(self, embedding: np.ndarray, budget: int) -> None:
        n = len(self.view)
        keep = min(n, budget - 1)  # rows that stay
        end = self.start + n
        if end < len(self.buf):
            self.buf[end] = embedding
            self.start = end - keep
            self._show(keep + 1)
            self.radius = max(self.radius, float(np.sqrt(np.square(embedding - self.centre).sum())))
        else:
            limit = budget + max(1, budget // GALLERY_SPARE)
            self._move(self.view[n - keep:], min(limit, max(2 * len(self.buf), keep + 1)),
                       embedding)


def _coast_failure(x: float, v: float, steps: int) -> int:
    """The first of ``steps`` constant-velocity predicts that leaves the
    positive extent ``x`` (rate ``v``) non-positive, or 0 if none does. The
    sums are rounded once per step, as predict rounds them."""
    if v >= 0 or x + steps * v > 2.0 * steps * np.finfo(float).eps * x:
        return 0  # even the rounded sums stay positive
    done = 0
    while done < steps:
        n = min(steps - done, 1 << 16)
        sums = np.cumsum(np.concatenate(([x], np.full(n, v))))[1:]
        bad = np.flatnonzero(sums <= 0)
        if len(bad):
            return done + int(bad[0]) + 1
        x, done = float(sums[-1]), done + n
    return 0


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
        # The filter states of the instance: row i of means (N, d) and
        # covariances (N, d, d) is the state of self._tracks[i]. Rows are
        # grouped by class in ObjectClass order, self._sizes[k] of the k-th.
        d = self.model.dim_state
        self._tracks: list[Track] = []
        self._means, self._covs = np.empty((0, d)), np.empty((0, d, d))
        self._sizes = [0] * len(ObjectClass)
        self.frame_index = 0
        self.use_stage3 = use_stage3
        self.use_reid = use_reid
        self._id_counter = id_counter if id_counter is not None else itertools.count(1)
        # Size of the first embedding seen (2D with re-id only); until one
        # arrives, stage 1 falls back to IoU.
        self._embed_dim: int | None = None
        self._fallback_logged = False
        # The gallery store of each track with embeddings, by track id.
        self._galleries: dict[int, _Gallery] = {}

    @property
    def tracks(self) -> list[Track]:
        """The live tracks, grouped by class in ``ObjectClass`` order."""
        return list(self._tracks)

    def _config_for(self, label: ObjectClass) -> ClassConfig:
        try:
            return self.configs[label]
        except KeyError:
            raise ConfigError(f"no configuration for class {label.value!r}") from None

    def _by_class(self, dets: Sequence[Detection]) -> dict[ObjectClass, list[Detection]]:
        """``dets`` grouped by class, each group in input order. The first
        detection that fails a check raises; each is checked for its box
        kind, its camera (2D), its class's configuration and its embedding
        size (2D with re-id), in that order."""
        d2 = self.mode is Mode.D2
        check_size = d2 and self.use_reid
        embed_dim = self._embed_dim
        by_class: dict[ObjectClass, list[Detection]] = {}
        for det in dets:
            if det.is_2d != d2:
                raise ConfigError(
                    f"detection box type does not match tracker mode {self.mode.value!r}"
                )
            if d2 and det.camera_id != self.camera_id:
                raise ConfigError(
                    f"detection camera {det.camera_id} does not belong to this "
                    f"instance (camera {self.camera_id})"
                )
            group = by_class.get(det.class_label)
            if group is None:
                self._config_for(det.class_label)
                group = by_class[det.class_label] = []
            if check_size and det.embedding is not None:
                if embed_dim is None:
                    embed_dim = len(det.embedding)
                elif len(det.embedding) != embed_dim:
                    raise ValidationError(
                        f"embedding size {len(det.embedding)} differs from the "
                        f"first embedding's size {embed_dim}"
                    )
            group.append(det)
        self._embed_dim = embed_dim
        return by_class

    def _gallery(self, track: Track) -> _Gallery | None:
        """The store entry of ``track``'s gallery, None while it is empty.
        A gallery that is not the view the store handed out (one the caller
        assigned: an array, list or deque) is copied into a new entry,
        which is measured exactly, and the track shows its view instead;
        it must hold finite rows of the embedding size."""
        entry = self._galleries.get(track.track_id)
        if entry is None or entry.view is not track.gallery:
            if not len(track.gallery):
                return None
            try:
                rows = np.array(track.gallery, dtype=np.float64)
            except (TypeError, ValueError):  # ragged, or not numbers
                rows = None
            if (rows is None or rows.ndim != 2 or rows.shape[1] != self._embed_dim
                    or not np.isfinite(rows).all()):
                got = "ragged or non-numeric rows" if rows is None else f"shape {rows.shape}"
                raise ValidationError(
                    f"gallery of track {track.track_id} must hold finite rows of the "
                    f"embedding size {self._embed_dim}, got {got}")
            entry = self._galleries[track.track_id] = _Gallery(rows, len(rows))
            track.gallery = entry.view
        return entry

    def _bound(self, track: Track) -> tuple[np.ndarray, float] | None:
        entry = self._gallery(track)
        return None if entry is None else (entry.centre, entry.radius)

    def _add_embedding(self, track: Track, embedding: np.ndarray, budget: int) -> None:
        entry = self._gallery(track)
        if entry is None:
            entry = self._galleries[track.track_id] = _Gallery(embedding[None], 1)
        else:
            entry.append(embedding, budget)
        track.gallery = entry.view

    def step(self, detections: Iterable[Detection]) -> FrameResult:
        dets_by_class = self._by_class(list(detections))
        result = FrameResult(frame=self.frame_index)
        self._advance(dets_by_class, result)
        for track_id in result.deleted_ids:
            self._galleries.pop(track_id, None)
        self.frame_index += 1
        return result

    def _advance(self, dets_by_class: Mapping[ObjectClass, list[Detection]],
                 result: FrameResult, before_class: Callable[[int], None] | None = None,
                 ) -> None:
        """One frame of the store on ``dets_by_class``: one predict of every
        row, the stages of each class with tracks or detections, one update
        of every matched pair, then, class by class, deletions, matches and
        births into ``result``, and one compaction. Deletions are listed and
        logged per class: predict failures, update failures in pair order,
        then age-outs; ``before_class(pos)`` runs before those of the class
        at ``pos`` in ``ObjectClass`` order."""
        tracks, model = self._tracks, self.model
        where = {"mode": self.mode, "camera": self.camera_id}
        # Until the first embedding arrives, 2D stage 1 gates by IoU.
        use_reid_now = self.mode is Mode.D3 or self._embed_dim is not None
        # Only 2D re-id reads galleries; only there are embedding sizes checked.
        keep_embeddings = self.mode is Mode.D2 and self.use_reid
        # Tracks are rows of the store, detections rows of their class's
        # list; a row whose predict failed is left out of association.
        means, covs, predict_failures = predict(self._means, self._covs, model)
        starts = list(itertools.accumulate(self._sizes, initial=0))
        bounds, stepped, matches = None, [], [0, 0, 0]
        pair_rows: list[int] = []  # the track row of each matched pair, class by class
        pair_obs = [np.empty((0, model.dim_obs))]
        for pos, cls in enumerate(ObjectClass):
            start, end = starts[pos], starts[pos + 1]
            cls_dets = dets_by_class.get(cls, [])
            if start == end and not cls_dets:
                continue
            cfg = self._config_for(cls)
            live = [i for i in range(start, end) if i not in predict_failures]
            obs = model.observations(cls_dets)
            prim, sec = _split_indices(cls_dets, cfg.t_s)
            if bounds is None and keep_embeddings and use_reid_now and prim:
                bounds = [self._bound(t) for t in tracks]
            r1 = stage1_cascade(tracks, means, cls_dets, obs, cfg, rows=live, cols=prim,
                                use_reid=use_reid_now, model=model, covs=covs, bounds=bounds,
                                **where)
            r2 = stage2_relaxed(tracks, means, cls_dets, obs, cfg, rows=r1.unmatched_tracks,
                                cols=r1.unmatched_detections, **where)
            r3 = (stage3_secondary(tracks, means, cls_dets, obs, cfg, rows=r2.unmatched_tracks,
                                   cols=sec, **where)
                  if self.use_stage3 else AssociationResult([], r2.unmatched_tracks, []))
            matches = [m + len(r.matches) for m, r in zip(matches, (r1, r2, r3))]
            # pairs holds each matched (track row, detection row).
            pairs = r1.matches + r2.matches + r3.matches
            stepped.append((pos, cfg, cls_dets, bool(live), len(pair_rows), pairs,
                            r3.unmatched_tracks, [cls_dets[j] for j in r2.unmatched_detections]))
            pair_rows += [i for i, _ in pairs]
            pair_obs.append(obs[[j for _, j in pairs]])
        rows = np.array(pair_rows, dtype=np.intp)
        means[rows], covs[rows], failures = update(
            means[rows], covs[rows], np.concatenate(pair_obs), model)
        failed = {pair_rows[k] for k in failures}
        emit_pairs: list[tuple[Track, Detection]] = []
        # The tracks of the next store, their rows in means and covs once
        # the births are appended to these, the births and the class sizes.
        next_tracks, index, born, sizes = [], [], [], [0] * len(self._sizes)
        for pos, cfg, cls_dets, any_live, first, pairs, rest, unmatched in stepped:
            if before_class is not None:
                before_class(pos)
            _delete(tracks, predict_failures, starts[pos], starts[pos + 1], result)
            if not (use_reid_now or self._fallback_logged) and any_live and dets_by_class:
                log.log(logging.WARNING if self.use_reid else logging.INFO,
                        "no appearance embeddings available; stage-1 association "
                        "falls back to IoU gating")
                self._fallback_logged = True
            if failures:
                _delete([tracks[i] for i in pair_rows], failures, first, first + len(pairs),
                        result)
            updated = [(tracks[i], cls_dets[j])
                       for k, (i, j) in enumerate(pairs, first) if k not in failures]
            for track, det in updated:
                track.age_since_update, track.hits, track.score = 0, track.hits + 1, det.score
            for i in rest:
                track = tracks[i]
                track.age_since_update += 1
                if track.age_since_update > cfg.a_max:
                    result.deleted_ids.append(track.track_id)
            kept = [i for i in range(starts[pos], starts[pos + 1])
                    if i not in predict_failures and i not in failed
                    and tracks[i].age_since_update <= cfg.a_max]
            births = [Track(next(self._id_counter), init_track_state(det, model),
                            det.class_label, det.score) for det in unmatched]
            result.created_ids += [track.track_id for track in births]
            for track, det in updated + list(zip(births, unmatched)):
                if keep_embeddings and det.embedding is not None:
                    self._add_embedding(track, det.embedding, cfg.gallery_budget)
                if track.hits >= cfg.min_hits:
                    emit_pairs.append((track, det))
            next_tracks += [tracks[i] for i in kept] + births
            index += kept + [len(means) + len(born) + b for b in range(len(births))]
            born += births
            sizes[pos] = len(kept) + len(births)
        # Deleted tracks keep the state of the last step they lived
        # through: rows of an earlier array, which no step writes.
        if born:
            means = np.concatenate((means, [t.state.mean for t in born]))
            covs = np.concatenate((covs, [t.state.cov for t in born]))
        if index != list(range(len(means))):
            means, covs = means[index], covs[index]
        # Each track's state is a view of its rows, so it reads the
        # current state and edits to it reach the next step's filter.
        for track, mean, cov in zip(next_tracks, means, covs):
            track.state = State.trusted(mean, cov)
        self._tracks, self._means, self._covs, self._sizes = next_tracks, means, covs, sizes
        result.emitted = [EmittedTrack(t.track_id, det.box, t.score, t.class_label)
                          for t, det in sorted(emit_pairs, key=lambda pair: pair[0].track_id)]
        result.stage_matches = tuple(matches)

    def skip(self, n: int) -> list[int]:
        """Advance over ``n`` frames without detections, as ``n`` calls of
        ``step([])`` would, and return the ids of the tracks deleted in
        them, in the order those calls list them.

        A class whose ``a_max`` is below ``n`` loses every track in the gap,
        so its tracks are deleted in one pass: each at the frame where it
        ages out, or, if a predict would leave a box extent non-positive
        before that, at that frame with the same warning. A track is taken
        to coast to finite values. The other classes stay in the store,
        which is predicted once per frame until it has no track left.
        """
        if n < 0:
            raise ValueError(f"cannot skip {n} frames")
        # Each deletion, keyed by (frame of the gap, class position, order).
        pending: list[tuple[int, int, int, int, str | None]] = []
        keep: list[int] = []  # the rows of the classes stepped through the gap
        starts = list(itertools.accumulate(self._sizes, initial=0))
        for pos, cls in enumerate(ObjectClass):
            start, end = starts[pos], starts[pos + 1]
            if start == end or (a_max := self._config_for(cls).a_max) >= n:
                keep += range(start, end)
                continue
            means = self._means[start:end]
            rate = means @ (self.model.F - np.eye(self.model.dim_state)).T
            for k, track in enumerate(self._tracks[start:end]):
                due = a_max + 1 - track.age_since_update
                fail = min(filter(None, (_coast_failure(means[k, c], rate[k, c], due)
                                         for c in EXTENTS[self.model.dim_state])), default=0)
                if fail:
                    pending.append((fail, pos, k, track.track_id,
                                    "predict produced non-positive box extents"))
                else:
                    pending.append((due, pos, end - start + k, track.track_id, None))
            self._sizes[pos] = 0
        if len(keep) < len(self._tracks):
            self._tracks = [self._tracks[i] for i in keep]
            self._means, self._covs = self._means[keep], self._covs[keep]
        pending.sort(key=lambda d: d[:3])
        gap = FrameResult(self.frame_index)
        done = 0

        def flush(key: tuple[int, int]) -> None:
            nonlocal done
            while done < len(pending) and pending[done][:2] < key:
                _, _, _, track_id, failure = pending[done]
                if failure is not None:
                    log.warning("deleting track %d: %s", track_id, failure)
                gap.deleted_ids.append(track_id)
                done += 1

        for frame in range(1, n + 1):
            if not self._tracks:
                break
            self._advance({}, gap, lambda pos: flush((frame, pos)))
        flush((n + 1, 0))
        for track_id in gap.deleted_ids:
            self._galleries.pop(track_id, None)
        self.frame_index += n
        return gap.deleted_ids
