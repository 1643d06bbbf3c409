"""Online tracking engine.

One store per instance (a :class:`hmot.types._Store`) holds all its tracks
as columns: ids, ages since update, hits, scores, means (N, d), the filter
rows of the covariances (:func:`hmot.types.pack_covs`) and galleries, row
i belonging to the i-th track, rows grouped by class. Per frame: one
batched predict of every row; per class, split its detections by score
into a primary and a secondary set and run a three-stage gated cascade on
its rows; one batched update of every matched pair; then the new columns
of every row at once, seed new tracks from leftover primary detections
after their class's rows, and compact the store once. Each stage takes
whole columns of the store (never a ``Track``), the track rows still open
and the detection rows to match, and returns rows of the same arrays. A
held ``Track`` reads and writes its row, so writes to it reach the next
step; a track is born with a one-row store of its own, whose row joins the
instance's, is bound to its new row at each compaction, and dies with a
copy of its row.
Each stage solves one gated assignment per band of tracks over the
detections earlier bands left. Stage 1 bands by age, youngest first, by
appearance distance in 2D and kernelized center distance in 3D; in 2D a
gallery is multiplied only for the pairs whose cost can change the match
(see :func:`_appearance_costs`). Stage 2 is one band of recently lost
tracks on the remaining primary detections by enlarged IoU (2D). Stage 3 is
one band of all still unmatched tracks on the low-score secondary set,
which keeps weak objects alive but never seeds a track.
"""

from __future__ import annotations

import itertools
import logging
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    ball_admits,
    cosine_gallery_dist_matrix,
    gallery_bound,
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
    _Store,
    pack_covs,
)

log = logging.getLogger(__name__)

# Stage 2 only admits tracks missed for fewer than this many frames,
# independent of the configured maximum age.
STAGE2_MAX_AGE = 3

# 95% quantile of the chi-square distribution by degrees of freedom (the
# 2D and 3D observation sizes), as scipy.stats.chi2.ppf(0.95, dof) gives it.
CHI2_95 = {4: 9.487729036781154, 7: 14.067140449340169}


_BOX, _SCORE, _CLASS = (operator.attrgetter(f) for f in ("box", "score", "class_label"))


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


def _appearance_costs(
    galleries: Sequence[Sequence[np.ndarray]],
    embeddings: Sequence[np.ndarray | None],
    gate: float,
    bounds: Sequence[tuple[np.ndarray, float] | None] | None,
) -> np.ndarray:
    """The appearance costs of ``galleries`` against ``embeddings``: +inf
    where the gallery is empty or the detection has no embedding, else the
    min cosine distance, every one of them without ``bounds``. Given
    ``bounds`` (row i's gallery ball, or None for an empty gallery), a pair
    the ball proves above ``gate`` (:func:`ball_admits`) stays +inf, and a
    free pair gets the cost 1 - g.e of its gallery's newest row g, without
    a gallery product.

    A pair is free when its row's ball admits no other column, no other
    row admits its column, and g proves it admissible: 1 - g.e <= gate -
    1e-9 (1 + |g| |e|), a slack far above rounding. Rows whose ball admits
    two or more columns are filled first, so a column only they admit by
    the ball but not by the exact cost is no rival. The admissible pairs
    are the full fill's, and a free pair is alone in its row and its
    column, so :func:`~hmot.assignment.solve_gated_assignment` matches it
    without reading its cost; every other pair gets its exact cost. The
    mask and the certification are computed once a band, and the fill
    (:func:`cosine_gallery_dist_matrix`) is given its rows of the mask.
    """
    have = np.array([j for j, e in enumerate(embeddings) if e is not None], dtype=np.intp)
    live = np.array([i for i, g in enumerate(galleries) if len(g)], dtype=np.intp)
    costs = np.full((len(galleries), len(embeddings)), np.inf)
    if not len(have) or not len(live):
        return costs
    emb = np.stack([embeddings[j] for j in have])  # (m', dim)

    def fill(rows: np.ndarray, mask: np.ndarray | None = None) -> None:
        costs[np.ix_(rows, have)] = cosine_gallery_dist_matrix(
            [galleries[i] for i in rows], emb, mask)

    if bounds is None:
        fill(live)
        return costs
    admits = ball_admits([bounds[i] for i in live], emb.T, gate)
    count = admits.sum(axis=1)
    multi, one = live[count > 1], count == 1
    lone_rows = admits[one]
    single, col = live[one], lone_rows.argmax(axis=1)  # the column each admits
    claims = lone_rows.sum(axis=0)
    if len(multi):
        fill(multi, admits[count > 1])
        claims += (costs[np.ix_(multi, have)] <= gate).sum(axis=0)
    free = claims[col] == 1
    if free.any():
        g = np.stack([galleries[i][-1] for i in single[free]])
        e = emb[col[free]]
        sims = np.einsum("ij,ij->i", g, e)
        slack = 1e-9 * (1.0 + np.sqrt(np.einsum("ij,ij->i", g, g) * np.einsum("ij,ij->i", e, e)))
        certified = 1.0 - sims <= gate - slack
        costs[single[free][certified], have[col[free][certified]]] = 1.0 - sims[certified]
        free[free] = certified
    fill(single[~free], lone_rows[~free])
    return costs


def _cascade(
    means: np.ndarray,
    dets: Sequence[Detection],
    obs: np.ndarray,
    rows: Sequence[int],
    bands: Iterable[list[int]],
    cols: Sequence[int],
    config: ClassConfig,
    *,
    galleries: Sequence[Sequence[np.ndarray]] | None = None,
    bounds: Sequence[tuple[np.ndarray, float] | None] | None = None,
    enlarge: float = 1.0,
    model: MotionModel | None = None,
    covs: np.ndarray | None = None,
) -> AssociationResult:
    """One gated minimum-cost assignment per band of track rows, in order,
    over the rows of ``cols`` earlier bands left unclaimed; the unmatched
    tracks are the rows of ``rows`` no band matched.

    The width of ``means`` tells 3D from 2D. In 3D the cost is kernelized
    center distance (gate max_center_dist). In 2D it is appearance distance
    against ``galleries`` (gate t_a) when they are given, otherwise IoU
    distance over boxes scaled by ``enlarge`` with the gate of the
    detections' camera. The appearance costs of a band come from one
    :func:`_appearance_costs` call, which, given ``bounds`` (row i's gallery
    ball, :func:`~hmot.metrics.gallery_bound`), computes no pair the ball
    proves above t_a and multiplies no gallery for a lone pair its newest
    row proves within t_a; the matches are those of the full fill.
    With a ``model`` and ``mahalanobis_gating`` on, pairs whose innovation
    under the covariances ``covs`` lies beyond the 95% chi-square quantile
    are inadmissible; that test reads only whether a cost is within the
    gate, never its value.
    """
    matches: list[tuple[int, int]] = []
    remaining = list(cols)
    for band in bands:
        if not band or not remaining:
            continue
        if means.shape[1] == MotionModel3D.dim_state:
            costs = gauss_center_dist_matrix(means[band, :3], obs[remaining, :3], config.sigma)
            gate = config.max_center_dist
        elif galleries is not None:
            gate = config.t_a
            costs = _appearance_costs([galleries[i] for i in band],
                                      [dets[j].embedding for j in remaining], gate,
                                      None if bounds is None else [bounds[i] for i in band])
        else:
            costs = iou_dist_matrix(_state_boxes(means[band]), [dets[j].box for j in remaining],
                                    factor=enlarge)
            gate = config.max_iou_dist_for(dets[remaining[0]].camera_id)
        if config.mahalanobis_gating and model is not None:
            # Only pairs within the cost gate can be matched, so only they are
            # tested. A track without a positive definite S gates out all pairs.
            r, c = np.nonzero(costs <= gate)
            d2, _ = mahalanobis_sq_pairs(means[band], covs[band], obs[remaining], r, c, model)
            far = d2 > CHI2_95[model.dim_obs]
            costs[r[far], c[far]] = INADMISSIBLE
        result = solve_gated_assignment(costs, gate)
        matches += [(band[r], remaining[c]) for r, c in result.matches]
        remaining = [remaining[c] for c in result.unmatched_detections]
    matched = {i for i, _ in matches}
    return AssociationResult(matches, [i for i in rows if i not in matched], remaining)


def stage1_cascade(
    means: np.ndarray,
    dets: Sequence[Detection],
    obs: np.ndarray,
    config: ClassConfig,
    *,
    ages: np.ndarray,
    rows: Sequence[int],
    cols: Sequence[int],
    model: MotionModel | None = None,
    covs: np.ndarray | None = None,
    galleries: Sequence[Sequence[np.ndarray]] | None = None,
    bounds: Sequence[tuple[np.ndarray, float] | None] | None = None,
) -> AssociationResult:
    """Age-ordered association of the track rows ``rows`` against the
    primary detection rows ``cols``; the results are rows too.

    Row i of ``means`` (and of ``covs``) is the predicted state of track
    row i, ``ages[i]`` its age since update and ``galleries[i]`` its gallery
    rows; row j of ``obs`` is the observation of ``dets[j]``, as
    ``model.observations`` gives it. Visits the ages present among the
    tracks, youngest first and up to a_max, solving one gated assignment
    per age band over the detections still unclaimed, so a recently seen
    track always outranks a long-occluded one competing for the same
    detection. The cost is the appearance (or, without ``galleries``, IoU)
    distance in 2D and the kernelized center distance in 3D; see
    :func:`_cascade`, which also says how ``bounds`` (row i: its gallery
    ball, or None for an empty gallery) prunes the appearance fill.
    """
    by_age: dict[int, list[int]] = {}
    for i, age in zip(rows, ages[rows].tolist()):
        if 0 <= age <= config.a_max:
            by_age.setdefault(age, []).append(i)
    return _cascade(means, dets, obs, rows, [by_age[age] for age in sorted(by_age)], cols,
                    config, galleries=galleries, bounds=bounds, model=model, covs=covs)


def stage2_relaxed(
    means: np.ndarray,
    dets: Sequence[Detection],
    obs: np.ndarray,
    config: ClassConfig,
    *,
    ages: np.ndarray,
    rows: Sequence[int],
    cols: Sequence[int],
) -> AssociationResult:
    """Second chance for recently lost tracks (age < 3) among ``rows`` on
    leftover primary detections ``cols``; 2D cost is IoU distance with boxes
    enlarged 2x. Arguments and results are as in :func:`stage1_cascade`."""
    eligible = [i for i, age in zip(rows, ages[rows].tolist()) if age < STAGE2_MAX_AGE]
    return _cascade(means, dets, obs, rows, [eligible], cols, config,
                    enlarge=config.enlarge_stage2)


def stage3_secondary(
    means: np.ndarray,
    dets: Sequence[Detection],
    obs: np.ndarray,
    config: ClassConfig,
    *,
    rows: Sequence[int],
    cols: Sequence[int],
) -> AssociationResult:
    """Match still-unmatched tracks ``rows`` against the weak (secondary)
    detections ``cols``; 2D cost is IoU distance with boxes enlarged 3x.
    Secondary detections that stay unmatched are dropped, never turned into
    tracks. Arguments and results are as in :func:`stage1_cascade`, which
    ``ages`` this stage does not need."""
    return _cascade(means, dets, obs, rows, [list(rows)], cols, config,
                    enlarge=config.enlarge_stage3)


def _delete(ids: np.ndarray, failures: Mapping[int, NumericFailureError],
            start: int, stop: int, result: FrameResult) -> None:
    """Log and list as deleted, in order, each track ``failures`` names by
    its place in ``ids``, from ``start`` up to ``stop``."""
    for i in sorted(failures):
        if start <= i < stop:
            log.warning("deleting track %d: %s", ids[i], failures[i])
            result.deleted_ids.append(int(ids[i]))


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
        # Row i of the store belongs to self._tracks[i], an object array.
        # Rows are grouped by class in ObjectClass order, self._sizes[k] of
        # the k-th.
        dim = self.model.dim_state
        self._store = _Store(*(np.empty(0, dtype=np.int64) for _ in range(3)), np.empty(0),
                             np.empty((0, dim)), pack_covs(np.empty((0, dim, dim))),
                             np.empty(0, dtype=object))
        self._tracks = np.empty(0, dtype=object)
        self._sizes = [0] * len(ObjectClass)
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
        return self._tracks.tolist()

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

    def _gallery(self, row: int) -> _Gallery | None:
        """The store entry of row ``row``'s gallery, None while it is empty.
        A gallery that is not the view the store handed out (one the caller
        assigned: an array, list or deque) is copied into a new entry,
        which is measured exactly, and the track shows its view instead;
        it must hold finite rows of the embedding size."""
        track, entry = self._tracks[row], self._store.galleries[row]
        if entry is None or entry.view is not track.gallery:
            if not len(track.gallery):
                return None
            try:
                rows = np.array(track.gallery, dtype=np.float64)
            except (TypeError, ValueError):  # ragged, or not numbers
                rows = None
            shaped = rows is not None and rows.ndim == 2 and rows.shape[1] == self._embed_dim
            if not (shaped and np.isfinite(rows).all()):
                got = ("non-finite rows" if shaped else "ragged or non-numeric rows"
                       if rows is None else f"shape {rows.shape}")
                raise ValidationError(
                    f"gallery of track {track.track_id} must hold finite rows of the "
                    f"embedding size {self._embed_dim}, got {got}")
            entry = self._store.galleries[row] = _Gallery(rows, len(rows))
            track.gallery = entry.view
        return entry

    def step(self, detections: Iterable[Detection]) -> FrameResult:
        dets_by_class = self._by_class(list(detections))
        result = FrameResult(frame=self.frame_index)
        self._advance(dets_by_class, result)
        self.frame_index += 1
        return result

    def _advance(self, dets_by_class: Mapping[ObjectClass, list[Detection]],
                 result: FrameResult) -> None:
        """One frame of the store on ``dets_by_class``: one predict of every
        row, the stages of each class with tracks or detections, one update
        of every matched pair, the new columns of every row at once,
        deletions class by class into ``result``, then gallery appends and
        births, and one compaction. Deletions are listed and logged per
        class: predict failures, update failures in pair order, then
        age-outs."""
        store, tracks, model = self._store, self._tracks, self.model
        ids = store.ids
        # Only 2D re-id sets an embedding size, once the first embedding
        # arrives; only then are galleries kept and read, and until then 2D
        # stage 1 gates by IoU.
        reid = self._embed_dim is not None
        # Tracks are rows of the store, detections rows of their class's
        # list; a row whose predict failed is left out of association.
        means, covs, predict_failures = predict(store.means, store.covs, model)
        starts = list(itertools.accumulate(self._sizes, initial=0))
        galleries = bounds = None
        stepped, matches = [], [0, 0, 0]
        # The track row, detection and observation of each matched pair,
        # class by class; the detections that seed tracks and the class of
        # each; a_max and min_hits by class.
        pair_rows, pair_dets, pair_obs = [], [], [np.empty((0, model.dim_obs))]
        seeds, born_at = [], []
        a_max, min_hits = [0] * len(ObjectClass), [1] * len(ObjectClass)
        for pos, cls in enumerate(ObjectClass):
            start, end = starts[pos], starts[pos + 1]
            cls_dets = dets_by_class.get(cls, [])
            if start == end and not cls_dets:
                continue
            cfg = self._config_for(cls)
            a_max[pos], min_hits[pos] = cfg.a_max, cfg.min_hits
            rows = [i for i in range(start, end) if i not in predict_failures]
            obs = model.observations(cls_dets)
            prim, sec = _split_indices(cls_dets, cfg.t_s)
            if galleries is None and reid and prim:
                kept = list(map(self._gallery, range(len(tracks))))
                galleries = [() if entry is None else entry.view for entry in kept]
                bounds = [None if entry is None else (entry.centre, entry.radius)
                          for entry in kept]
            r1 = stage1_cascade(means, cls_dets, obs, cfg, ages=store.ages, rows=rows, cols=prim,
                                model=model, covs=covs, galleries=galleries, bounds=bounds)
            r2 = stage2_relaxed(means, cls_dets, obs, cfg, ages=store.ages,
                                rows=r1.unmatched_tracks, cols=r1.unmatched_detections)
            r3 = (stage3_secondary(means, cls_dets, obs, cfg, rows=r2.unmatched_tracks, cols=sec)
                  if self.use_stage3 else AssociationResult([], r2.unmatched_tracks, []))
            matches = [m + len(r.matches) for m, r in zip(matches, (r1, r2, r3))]
            pairs = r1.matches + r2.matches + r3.matches
            stepped.append((pos, bool(rows), len(pair_rows), len(pairs)))
            pair_rows += [i for i, _ in pairs]
            pair_dets += [cls_dets[j] for _, j in pairs]
            pair_obs.append(obs[[j for _, j in pairs]])
            seeds += [cls_dets[j] for j in r2.unmatched_detections]
            born_at += [pos] * len(r2.unmatched_detections)
        rows = np.array(pair_rows, dtype=np.intp)
        means[rows], covs[rows], failures = update(
            means[rows], covs[rows], np.concatenate(pair_obs), model)
        # Each matched track's gallery, checked before the first append.
        appends = [(row, det) for k, (row, det) in enumerate(zip(pair_rows, pair_dets))
                   if reid and det.embedding is not None and k not in failures]
        entries = [self._gallery(row) for row, _ in appends]
        # The columns after this frame, in the rows of the store so far: a
        # track ages by one, and a matched one restarts at age 0 with one
        # hit more and its detection's score. A track whose filter failed
        # keeps its values and is deleted, as is one older than its a_max.
        ages, hits, scores = store.ages + 1, store.hits.copy(), store.scores.copy()
        ages[rows], hits[rows] = 0, hits[rows] + 1
        scores[rows] = [det.score for det in pair_dets]
        limits, needs = np.array([a_max, min_hits]).repeat(self._sizes, axis=1)
        stale = ages > limits
        failed = [*predict_failures, *(pair_rows[k] for k in failures)]
        if failed:
            ages[failed], hits[failed], scores[failed] = (
                store.ages[failed], store.hits[failed], store.scores[failed])
            stale[failed] = False
        aged = stale.nonzero()[0]
        aged, aged_ids = aged.tolist(), ids[aged].tolist()
        for pos, any_live, first, n in stepped:
            start, end = starts[pos], starts[pos + 1]
            _delete(ids, predict_failures, start, end, result)
            if (not (reid or self._fallback_logged) and self.mode is Mode.D2 and any_live
                    and dets_by_class):
                log.log(logging.WARNING if self.use_reid else logging.INFO,
                        "no appearance embeddings available; stage-1 association "
                        "falls back to IoU gating")
                self._fallback_logged = True
            if failures:
                _delete(ids[rows], failures, first, first + n, result)
            result.deleted_ids += [i for row, i in zip(aged, aged_ids) if start <= row < end]
        for (row, det), entry in zip(appends, entries):
            if entry is None:
                entry = store.galleries[row] = _Gallery(det.embedding[None], 1)
            else:
                entry.append(det.embedding, self.configs[det.class_label].gallery_budget)
            tracks[row].gallery = entry.view
        born = [Track(next(self._id_counter), init_track_state(det, model), det.class_label,
                      det.score) for det in seeds]
        for track, det in zip(born, seeds):
            if reid and det.embedding is not None:
                entry = track._store.galleries[0] = _Gallery(det.embedding[None], 1)
                track.gallery = entry.view
        born_ids = [track.track_id for track in born]
        result.created_ids += born_ids
        # Emitted, in id order: each track matched with min_hits hits, and
        # each birth if one hit is enough.
        shown = np.concatenate((hits[rows] >= needs[rows],
                                np.array([min_hits[pos] <= 1 for pos in born_at], dtype=bool)))
        if failures:
            shown[list(failures)] = False
        pick = shown.nonzero()[0]
        keys = np.concatenate((ids[rows], np.array(born_ids, dtype=np.int64)))[pick]
        order = keys.argsort()
        dets = list(map((pair_dets + seeds).__getitem__, pick[order].tolist()))
        # tuple.__new__ builds each row without the named tuple's own
        # __new__, a Python call per row.
        result.emitted = list(map(tuple.__new__, itertools.repeat(EmittedTrack), zip(
            keys[order].tolist(), map(_BOX, dets), map(_SCORE, dets), map(_CLASS, dets))))
        result.stage_matches = tuple(matches)
        self._commit(ages, hits, scores, means, covs, failed + aged, born, born_at)

    def _commit(self, ages: np.ndarray, hits: np.ndarray, scores: np.ndarray,
                means: np.ndarray, covs: np.ndarray, dead: list[int], born: list[Track],
                born_at: list[int]) -> None:
        """Make the store these columns, in the rows of the store so far,
        less the rows ``dead``, with the one-row stores of the tracks
        ``born`` appended to the class at each position of ``born_at``, and
        bind every track it holds to its row."""
        # A deleted track keeps these values and the state of the last step
        # it lived through, copied into a one-row store of its own.
        store, tracks = self._store, self._tracks
        if dead:
            for track, i, age, hit, score in zip(tracks[dead], dead, ages[dead].tolist(),
                                                 hits[dead].tolist(), scores[dead].tolist()):
                track._store, track._row = _Store.one(
                    track.track_id, age, hit, score, store.means[i], store.covs[i],
                    store.galleries[i]), 0
        columns = [tracks, store.ids, ages, hits, scores, means, covs, store.galleries]
        if born:
            columns = [np.concatenate((tracks, np.array(born, dtype=object))), *(
                np.concatenate([column, *(getattr(track._store, name) for track in born)])
                for column, name in zip(columns[1:], _Store.__slots__))]
        if dead or born:
            # Rows in class order; within a class, the tracks kept, then
            # the births.
            kept = np.ones(len(columns[0]), dtype=bool)
            kept[dead] = False
            classes = np.concatenate((np.arange(len(ObjectClass)).repeat(self._sizes),
                                      np.array(born_at, dtype=np.intp)))
            index = kept.nonzero()[0]
            index = index[classes[index].argsort(kind="stable")]
            columns = [column[index] for column in columns]
            self._sizes = np.bincount(classes[index], minlength=len(ObjectClass)).tolist()
            for row, track in enumerate(columns[0].tolist()):
                track._store, track._row = store, row
        self._tracks = columns[0]
        store.replace(*columns[1:])

    def skip(self, n: int) -> list[int]:
        """Advance over ``n`` frames without detections, as ``n`` calls of
        ``step([])`` would, and return the ids of the tracks deleted in
        them, in the order those calls list them.

        The store is stepped one empty frame at a time until ``n`` frames
        have passed or no track is left. A track misses every frame of the
        gap, so it is gone after at most ``a_max + 1`` of them, and
        ``a_max`` is at most :data:`~hmot.types.A_MAX_LIMIT`.
        """
        if n < 0:
            raise ValueError(f"cannot skip {n} frames")
        gap = FrameResult(self.frame_index)
        for _ in range(n):
            if not len(self._tracks):
                break
            self._advance({}, gap)
        self.frame_index += n
        return gap.deleted_ids
