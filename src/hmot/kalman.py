"""Constant-velocity Kalman filtering for 2D (image) and 3D (world) tracks.

2D noise follows the height-proportional convention (position/size std =
w_p * h, velocity std = w_v * h), which keeps behavior scale-invariant
across near and far objects. 3D noise is a fixed diagonal in metric units.
The emitted box of an updated track is the raw observation; the filtered
mean only drives prediction and association.

The filter is ``predict_batch``, ``update_batch`` and
``mahalanobis_sq_pairs``. Each runs one stacked computation over means
(N, d) and covariances (N, d, d), with observations (N, k) from the
model's ``observations``. It returns new arrays and the
``NumericFailureError`` of each row that failed, by row; a failed row
holds no usable state. The tracker keeps the states of all its tracks in
one such pair of arrays between frames, with one predict and one update
call a frame. ``predict``, ``update`` and ``mahalanobis_sq`` are the scalar
API: one row of the batched functions, raising that row's failure.

``update_batch`` needs no LAPACK call when every innovation covariance S of
the batch is diagonal, as the tracker's are: P0, Q and R are diagonal, F
couples each observed component only with its own velocity, and H selects
the first k components, so the observed block of P stays diagonal with
exact zeros. A row then fails where a diagonal entry of S is <= 0, as its
Cholesky factor does, and its gain is HP times the reciprocal variances,
which is how the solve with k > 1 right-hand sides computes it, bit for
bit. Any other batch is factored and solved.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import NumericFailureError, ValidationError
from .types import (
    DIM_OBS_2D,
    DIM_OBS_3D,
    DIM_STATE_2D,
    DIM_STATE_3D,
    EXTENTS,
    IX_THETA_3D,
    Detection,
    State,
)


def wrap_headings(theta: np.ndarray) -> np.ndarray:
    """:func:`~hmot.types.normalize_heading` of each entry, bit for bit: a
    new array with every angle wrapped into [-pi, pi). Entries already in
    range are kept as they are."""
    if not np.isfinite(theta).all():
        raise ValidationError(
            f"heading must be finite, got {float(theta[~np.isfinite(theta)][0])!r}")
    wrapped = np.remainder(theta + math.pi, 2.0 * math.pi) - math.pi
    # The remainder lies in [0, 2*pi], so only pi itself is out of range.
    wrapped = np.where(wrapped >= math.pi, wrapped - 2.0 * math.pi, wrapped)
    return np.where((theta >= -math.pi) & (theta < math.pi), theta, wrapped)


def wrap_innovations(delta: np.ndarray) -> np.ndarray:
    """Each angle difference wrapped into (-pi, pi]."""
    wrapped = wrap_headings(delta)
    wrapped[wrapped == -math.pi] = math.pi
    return wrapped


def wrap_innovation(delta: float) -> float:
    """Wrap an angle difference into (-pi, pi]."""
    return float(wrap_innovations(np.array([delta], dtype=np.float64))[0])


# The largest accepted noise parameter N. With 2D box extents at most H =
# BOX2D_EXTENT_LIMIT = 1e6, the largest variance formed from them is
# init_vel_var_ratio * (init_pos_factor * w_p * h)^2 <= N^5 H^2 = 1e42 (3D:
# N^3 = 1e18): initial, process and measurement variances, and even their
# squares, stay far below the largest float, 1.8e308.
NOISE_LIMIT = 1e6


def _require_non_negative(noise) -> None:
    """Reject a negative, non-finite or too large noise parameter: the
    filters square stds, so a sign error would otherwise pass unnoticed,
    and an infinite or huge one overflows a track's variances."""
    for f in dataclasses.fields(noise):
        value = getattr(noise, f.name)
        if not (math.isfinite(value) and 0 <= value <= NOISE_LIMIT):
            raise ValidationError(
                f"{f.name} must be >= 0 and finite, at most {NOISE_LIMIT:g}, got {value}")


@dataclass(frozen=True)
class Noise2D:
    """Height-proportional noise weights for the image-space filter."""

    w_p: float = 1.0 / 20.0    # position/size std per unit box height
    w_v: float = 1.0 / 160.0   # velocity std per unit box height
    aspect_proc_std: float = 1e-2
    aspect_vel_proc_std: float = 1e-5
    aspect_meas_std: float = 1e-1
    init_pos_factor: float = 2.0
    init_vel_var_ratio: float = 10.0

    def __post_init__(self):
        _require_non_negative(self)


@dataclass(frozen=True)
class Noise3D:
    """Fixed diagonal noise (meters / radians) for the world-space filter."""

    pos_proc_std: float = 1.0
    size_proc_std: float = 0.1
    heading_proc_std: float = 0.1
    vel_proc_std: float = 0.5
    pos_meas_std: float = 0.5
    size_meas_std: float = 0.1
    heading_meas_std: float = 0.1
    init_vel_var_ratio: float = 10.0

    def __post_init__(self):
        _require_non_negative(self)


class MotionModel2D:
    """State (cx, cy, gamma, h, vcx, vcy, vgamma, vh); observes the first 4."""

    dim_state = DIM_STATE_2D
    dim_obs = DIM_OBS_2D
    heading_index: int | None = None

    def __init__(self, noise: Noise2D | None = None):
        self.noise = noise or Noise2D()
        self.F = np.eye(self.dim_state)
        for i in range(self.dim_obs):
            self.F[i, self.dim_obs + i] = 1.0
        self.H = np.eye(self.dim_obs, self.dim_state)

    @staticmethod
    def observations(dets: Sequence[Detection]) -> np.ndarray:
        """:func:`~hmot.types.observation_2d` of each detection's box, bit for
        bit, stacked (N, 4)."""
        xywh = attrgetter("cx", "cy", "w", "h")
        obs = np.fromiter(chain.from_iterable([xywh(d.box) for d in dets]), np.float64,
                          4 * len(dets)).reshape(-1, 4)
        obs[:, 2] /= obs[:, 3]  # gamma = w / h
        return obs

    def process_var(self, mean: np.ndarray) -> np.ndarray:
        """Diagonal of the process noise for a mean (d,), or for each row of
        stacked means (N, d)."""
        n = self.noise
        h = mean[..., 3:4]
        one = np.ones_like(h)
        return np.square(np.concatenate([
            n.w_p * h, n.w_p * h, n.aspect_proc_std * one, n.w_p * h,
            n.w_v * h, n.w_v * h, n.aspect_vel_proc_std * one, n.w_v * h,
        ], axis=-1))

    def measurement_var(self, mean: np.ndarray) -> np.ndarray:
        """Diagonal of the measurement noise, shaped as :meth:`process_var`."""
        n = self.noise
        h = mean[..., 3:4]
        return np.square(np.concatenate(
            [n.w_p * h, n.w_p * h, n.aspect_meas_std * np.ones_like(h), n.w_p * h],
            axis=-1))

    def initial_state(self, obs: np.ndarray) -> State:
        n = self.noise
        h = obs[3]
        mean = np.concatenate([obs, np.zeros(self.dim_obs)])
        pos_var = (n.init_pos_factor * n.w_p * h) ** 2
        aspect_var = n.aspect_proc_std ** 2
        variances = np.array([pos_var, pos_var, aspect_var, pos_var])
        cov = np.diag(np.concatenate([variances, n.init_vel_var_ratio * variances]))
        return State(mean, cov)


class MotionModel3D:
    """State (cx, cy, cz, h, w, l, theta, vcx, vcy, vcz); observes the first 7."""

    dim_state = DIM_STATE_3D
    dim_obs = DIM_OBS_3D
    heading_index = IX_THETA_3D

    def __init__(self, noise: Noise3D | None = None):
        self.noise = noise or Noise3D()
        self.F = np.eye(self.dim_state)
        for i in range(3):
            self.F[i, 7 + i] = 1.0
        self.H = np.eye(self.dim_obs, self.dim_state)
        n = self.noise
        self._q = np.square([
            n.pos_proc_std, n.pos_proc_std, n.pos_proc_std,
            n.size_proc_std, n.size_proc_std, n.size_proc_std,
            n.heading_proc_std,
            n.vel_proc_std, n.vel_proc_std, n.vel_proc_std,
        ])
        self._r = np.square([
            n.pos_meas_std, n.pos_meas_std, n.pos_meas_std,
            n.size_meas_std, n.size_meas_std, n.size_meas_std,
            n.heading_meas_std,
        ])

    @staticmethod
    def observations(dets: Sequence[Detection]) -> np.ndarray:
        """:func:`~hmot.types.observation_3d` of each detection's box, stacked
        (N, 7)."""
        box = attrgetter("cx", "cy", "cz", "h", "w", "l", "theta")
        return np.fromiter(chain.from_iterable([box(d.box) for d in dets]), np.float64,
                           7 * len(dets)).reshape(-1, 7)

    def process_var(self, mean: np.ndarray) -> np.ndarray:
        """Diagonal of the (constant) process noise."""
        return self._q

    def measurement_var(self, mean: np.ndarray) -> np.ndarray:
        """Diagonal of the (constant) measurement noise."""
        return self._r

    def initial_state(self, obs: np.ndarray) -> State:
        n = self.noise
        mean = np.concatenate([obs, np.zeros(3)])
        pos_var = n.pos_meas_std ** 2
        variances = np.concatenate([
            self._r,
            np.full(3, n.init_vel_var_ratio * pos_var),
        ])
        return State(mean, np.diag(variances))


MotionModel = MotionModel2D | MotionModel3D


def init_track_state(det: Detection, model: MotionModel) -> State:
    """State for a freshly created track: observation copied, zero velocity."""
    return model.initial_state(model.observations([det])[0])


def _add_diagonal(mats: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Add ``var`` ((N, d) or (d,)) to the diagonals of ``mats`` (N, d, d)."""
    i = np.arange(mats.shape[-1])
    mats[:, i, i] += var
    return mats


Failures = dict[int, NumericFailureError]


def _filter_results(
    means: np.ndarray, covs: np.ndarray, model: MotionModel, what: str, failures: Failures,
) -> tuple[np.ndarray, np.ndarray, Failures]:
    """The arrays a filter step ends in, with its failures: covariances
    symmetrised, headings wrapped. A row already in ``failures``, with a
    non-finite entry or with a non-positive box extent fails, with the
    first of these that applies."""
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    hi = model.heading_index
    if hi is not None:
        theta = means[:, hi]
        outside = finite & ~((theta >= -math.pi) & (theta < math.pi))
        if outside.any():
            theta[outside] = wrap_headings(theta[outside])
    ok = finite & (means[:, EXTENTS[model.dim_state]] > 0).all(axis=1)
    for i in np.flatnonzero(~ok).tolist():
        failures.setdefault(i, NumericFailureError(
            f"{what} produced non-positive box extents" if finite[i]
            else f"{what} produced non-finite values"))
    return means, covs, failures


def _innovations(means: np.ndarray, obs: np.ndarray, model: MotionModel) -> np.ndarray:
    """Innovations of stacked means (N, d) and observations (N, k). A heading
    innovation beyond pi/2 is wrapped into (-pi, pi]; if it still exceeds
    pi/2 in magnitude the detector likely reported the box flipped by pi, so
    it is shifted by pi and wrapped again."""
    y = obs - means @ model.H.T
    hi = model.heading_index
    if hi is not None:
        delta = y[:, hi]
        far = ~(np.abs(delta) <= math.pi / 2.0)
        if far.any():
            wrapped = wrap_innovations(delta[far])
            flipped = np.abs(wrapped) > math.pi / 2.0
            if flipped.any():
                wrapped[flipped] = wrap_innovations(wrapped[flipped] + math.pi)
            delta[far] = wrapped
    return y


def _singular_rows(S: np.ndarray, B: np.ndarray | None = None) -> Failures:
    """Each row whose S has no Cholesky factor (or cannot solve its B), with
    its failure. Its S becomes the identity and its B zero, so the batch
    can finish; the caller discards those rows."""
    singular = {}
    for i in range(len(S)):
        try:
            np.linalg.cholesky(S[i])
            if B is not None:
                np.linalg.solve(S[i], B[i])
        except np.linalg.LinAlgError as exc:
            singular[i] = NumericFailureError(f"singular innovation covariance: {exc}")
            S[i] = np.eye(S.shape[-1])
            if B is not None:
                B[i] = 0.0
    return singular


def _diagonal_gain(
    S: np.ndarray, HP: np.ndarray, var: np.ndarray,
) -> tuple[np.ndarray, Failures]:
    """``solve(S, HP)`` for diagonal innovation covariances S with diagonals
    ``var`` (N, k), bit for bit, and the rows without a Cholesky factor,
    set aside as :func:`_singular_rows` sets them. The factor exists exactly
    when no diagonal entry is <= 0 (LAPACK lets a NaN pass, and so does
    this check), and the solve with k > 1 right-hand sides multiplies by
    pivot reciprocals. Where a reciprocal overflows, the solve spreads NaN
    through the gain; here the whole row is NaN, so it fails as non-finite
    without a floating-point warning."""
    bad = np.flatnonzero((var <= 0).any(axis=1))
    S[bad], HP[bad], var[bad] = np.eye(S.shape[-1]), 0.0, 1.0
    with np.errstate(over="ignore"):
        recip = 1.0 / var
    recip[~np.isfinite(recip).all(axis=1)] = math.nan
    return HP * recip[..., None], {i: NumericFailureError(
        "singular innovation covariance: Matrix is not positive definite")
        for i in bad.tolist()}


def predict_batch(
    means: np.ndarray, covs: np.ndarray, model: MotionModel
) -> tuple[np.ndarray, np.ndarray, Failures]:
    """One constant-velocity step of every state, mean' = F mean and
    cov' = F cov F^T + Q: the new means and covariances, and the failure
    of each row that failed."""
    if not len(means):
        return means, covs, {}
    F = model.F
    covs = _add_diagonal(F @ covs @ F.T, model.process_var(means))
    return _filter_results(means @ F.T, covs, model, "predict", {})


def update_batch(
    means: np.ndarray, covs: np.ndarray, obs: np.ndarray, model: MotionModel
) -> tuple[np.ndarray, np.ndarray, Failures]:
    """The standard Kalman measurement update of each state with its row
    of ``obs``: the new means and covariances, and the failure of each
    pair that failed."""
    if not len(means):
        return means, covs, {}
    y = _innovations(means, obs, model)
    H = model.H
    HP = H @ covs
    S = _add_diagonal(HP @ H.T, model.measurement_var(means))
    i = np.arange(S.shape[-1])
    var = S[:, i, i]
    if np.count_nonzero(S) == np.count_nonzero(var):  # every S is diagonal
        gain, singular = _diagonal_gain(S, HP, var)
    else:
        singular = {}
        try:
            np.linalg.cholesky(S)  # raises unless every S is positive definite
            gain = np.linalg.solve(S, HP)
        except np.linalg.LinAlgError:
            singular = _singular_rows(S, HP)
            gain = np.linalg.solve(S, HP)
        # As on the diagonal route, a row whose solve overflowed is all NaN,
        # so it fails as non-finite without a floating-point warning.
        gain[~np.isfinite(gain).all(axis=(1, 2))] = math.nan
    gain = np.swapaxes(gain, 1, 2)  # each cov is symmetric
    means = means + (gain @ y[..., None])[..., 0]
    covs = covs - gain @ S @ np.swapaxes(gain, 1, 2)
    return _filter_results(means, covs, model, "update", singular)


def mahalanobis_sq_pairs(
    means: np.ndarray, covs: np.ndarray, obs: np.ndarray,
    rows: np.ndarray, cols: np.ndarray, model: MotionModel,
) -> tuple[np.ndarray, Failures]:
    """Squared Mahalanobis distance y^T S^-1 y of observation ``obs[c]``
    from state ``r`` for each pair of ``rows`` and ``cols``, with the
    innovation covariance S of each state factored once, and the failure of
    each state whose S is not positive definite. Its pairs get inf."""
    if not len(rows):
        return np.empty(0), {}
    used, row_of_pair = np.unique(rows, return_inverse=True)
    means, covs = means[used], covs[used]
    H = model.H
    S = _add_diagonal(H @ covs @ H.T, model.measurement_var(means))
    singular = {}
    try:
        chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        singular = {int(used[i]): exc for i, exc in _singular_rows(S).items()}
        chol = np.linalg.cholesky(S)
    y = _innovations(means[row_of_pair], obs[cols], model)
    z = np.linalg.solve(chol[row_of_pair], y[..., None])
    d2 = (np.swapaxes(z, 1, 2) @ z)[:, 0, 0]
    if singular:
        d2[np.isin(rows, list(singular))] = math.inf
    return d2, singular


def _one(batch, state: State, *args) -> list:
    """The outputs of ``batch`` for ``state`` as its one row, followed by
    ``args``; raises the row's failure."""
    *outputs, failures = batch(np.array([state.mean]), np.array([state.cov]), *args)
    if failures:
        raise failures[0]
    return [out[0] for out in outputs]


def predict(state: State, model: MotionModel) -> State:
    """:func:`predict_batch` of one state; raises its failure."""
    return State.trusted(*_one(predict_batch, state, model))


def update(state: State, det: Detection, model: MotionModel) -> State:
    """:func:`update_batch` of one pair; raises its failure."""
    return State.trusted(*_one(update_batch, state, model.observations([det]), model))


def mahalanobis_sq(state: State, det: Detection, model: MotionModel) -> float:
    """:func:`mahalanobis_sq_pairs` of one pair; raises the failure of an S
    that is not positive definite, where the pairs function gives inf."""
    zero = np.zeros(1, dtype=np.intp)
    (d2,) = _one(mahalanobis_sq_pairs, state, model.observations([det]), zero, zero, model)
    return float(d2)
