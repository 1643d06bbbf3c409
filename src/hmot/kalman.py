"""Constant-velocity Kalman filtering for 2D (image) and 3D (world) tracks.

2D noise follows the height-proportional convention (position/size std =
w_p * h, velocity std = w_v * h), which keeps behavior scale-invariant
across near and far objects. 3D noise is a fixed diagonal in metric units.
The emitted box of an updated track is the raw observation; the filtered
mean only drives prediction and association.

P0, Q and R are diagonal and F moves each position by its own velocity
only, so every covariance is a diagonal plus one position-velocity term per
moving axis, kept as a filter row (:func:`~hmot.types.pack_covs`): the
per-axis form of the alpha-beta filter. ``predict_batch``, ``update_batch``
and ``mahalanobis_sq_pairs`` run elementwise over means (N, d) and filter
rows, with observations (N, k) from the model's ``observations``, and
return new arrays and the ``NumericFailureError`` of each row that failed,
by row; a failed row holds no usable state. Each innovation covariance S
is diagonal: a row fails where a variance of S is <= 0, as its Cholesky
factor would, and no matrix is factored. The results equal the dense
filter's (``F P F^T + Q``, a Cholesky solve, the covariance symmetrised)
bit for bit. ``predict``, ``update`` and ``mahalanobis_sq`` are the scalar
API: one ``State`` as one row, raising its failure; a covariance outside
the pattern is a ``ValidationError``.
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
    pack_covs,
    unpack_covs,
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
        self.F = np.eye(self.dim_state) + np.eye(self.dim_state, k=self.dim_obs)
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
        self.F = np.eye(self.dim_state) + np.eye(self.dim_state, k=self.dim_obs)
        self.H = np.eye(self.dim_obs, self.dim_state)
        n = self.noise
        self._q = np.square(np.repeat([n.pos_proc_std, n.size_proc_std, n.heading_proc_std,
                                       n.vel_proc_std], [3, 3, 1, 3]))
        self._r = np.square(np.repeat([n.pos_meas_std, n.size_meas_std, n.heading_meas_std],
                                      [3, 3, 1]))

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
        velocity_var = self.noise.init_vel_var_ratio * self.noise.pos_meas_std ** 2
        return State(np.concatenate([obs, np.zeros(3)]),
                     np.diag(np.concatenate([self._r, np.full(3, velocity_var)])))


MotionModel = MotionModel2D | MotionModel3D


def init_track_state(det: Detection, model: MotionModel) -> State:
    """State for a freshly created track: observation copied, zero velocity."""
    return model.initial_state(model.observations([det])[0])


Failures = dict[int, NumericFailureError]


def _filter_results(
    means: np.ndarray, covs: np.ndarray, model: MotionModel, what: str, failures: Failures,
) -> tuple[np.ndarray, np.ndarray, Failures]:
    """The arrays a filter step ends in, with its failures: headings
    wrapped. A row already in ``failures``, with a non-finite entry or with
    a non-positive box extent fails, with the first of these that applies."""
    finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=1)
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


def _innovation_vars(
    means: np.ndarray, covs: np.ndarray, model: MotionModel,
) -> tuple[np.ndarray, Failures]:
    """The innovation variances S (N, k) of each row, and the failure of
    each row with a variance <= 0, which has no Cholesky factor (a NaN
    passes, as it does in LAPACK); the S of such a row is set to ones."""
    S = covs[:, :model.dim_obs] + model.measurement_var(means)
    singular = np.flatnonzero((S <= 0).any(axis=1))
    S[singular] = 1.0
    return S, {i: NumericFailureError(
        "singular innovation covariance: Matrix is not positive definite")
        for i in singular.tolist()}


def predict_batch(
    means: np.ndarray, covs: np.ndarray, model: MotionModel
) -> tuple[np.ndarray, np.ndarray, Failures]:
    """One constant-velocity step of every state, mean' = F mean and
    P' = F P F^T + Q on filter rows: a position variance p with cross term
    c and velocity variance v becomes (p + c) + (c + v) + q, c becomes
    c + v, and every other variance gains its q. Returns the new means and
    rows, and the failure of each row that failed."""
    if not len(means):
        return means, covs, {}
    d, k = model.dim_state, model.dim_obs
    var, c = covs[:, :d], covs[:, d:]
    cv = c + var[:, k:]
    var = np.concatenate(((var[:, :d - k] + c) + cv, var[:, d - k:]), axis=1)
    covs = np.concatenate((var + model.process_var(means), cv), axis=1)
    return _filter_results(means @ model.F.T, covs, model, "predict", {})


def update_batch(
    means: np.ndarray, covs: np.ndarray, obs: np.ndarray, model: MotionModel
) -> tuple[np.ndarray, np.ndarray, Failures]:
    """The standard Kalman measurement update of each state with its row
    of ``obs``: the new means and filter rows, and the failure of each pair
    that failed. A component's gain is its covariance with the observed
    component it moves with, times that one's reciprocal innovation
    variance. Where a reciprocal overflows, the row is all NaN, so it fails
    as non-finite, as a dense solve does, without a floating-point warning."""
    if not len(means):
        return means, covs, {}
    d, k = model.dim_state, model.dim_obs
    y = _innovations(means, obs, model)
    S, singular = _innovation_vars(means, covs, model)
    with np.errstate(over="ignore"):
        recip = 1.0 / S
    recip[~np.isfinite(recip).all(axis=1)] = math.nan
    recip[list(singular)] = 0.0  # no gain: these rows are discarded
    m = d - k
    at = np.r_[:k, :m]  # the observed component of each state component
    gain = np.concatenate((covs[:, :k], covs[:, d:]), axis=1) * recip[:, at]
    gain_s = gain * S[:, at]
    c = covs[:, d:]
    c = 0.5 * ((c - gain_s[:, :m] * gain[:, k:]) + (c - gain_s[:, k:] * gain[:, :m]))
    covs = np.concatenate((covs[:, :d] - gain_s * gain, c), axis=1)
    return _filter_results(means + gain * y[:, at], covs, model, "update", singular)


def mahalanobis_sq_pairs(
    means: np.ndarray, covs: np.ndarray, obs: np.ndarray,
    rows: np.ndarray, cols: np.ndarray, model: MotionModel,
) -> tuple[np.ndarray, Failures]:
    """Squared Mahalanobis distance y^T S^-1 y of observation ``obs[c]``
    from state ``r`` for each pair of ``rows`` and ``cols``, as the sum of
    squares of y / sqrt(S), and the failure of each state whose S is not
    positive definite. Its pairs get inf."""
    if not len(rows):
        return np.empty(0), {}
    used, row_of_pair = np.unique(rows, return_inverse=True)
    means = means[used]
    S, singular = _innovation_vars(means, covs[used], model)
    y = _innovations(means[row_of_pair], obs[cols], model)
    with np.errstate(over="ignore"):
        z = y / np.sqrt(S)[row_of_pair]
        d2 = (z[:, None, :] @ z[..., None])[:, 0, 0]
    if singular:
        d2[np.isin(row_of_pair, list(singular))] = math.inf
    return d2, {int(used[i]): exc for i, exc in singular.items()}


def _one(batch, state: State, *args) -> list:
    """The outputs of ``batch`` for ``state`` as its one row, followed by
    ``args``; raises the row's failure."""
    *outputs, failures = batch(np.array([state.mean]), pack_covs(state.cov[None]), *args)
    if failures:
        raise failures[0]
    return [out[0] for out in outputs]


def predict(state: State, model: MotionModel) -> State:
    """:func:`predict_batch` of one state; raises its failure."""
    mean, row = _one(predict_batch, state, model)
    return State.trusted(mean, unpack_covs(row[None])[0])


def update(state: State, det: Detection, model: MotionModel) -> State:
    """:func:`update_batch` of one pair; raises its failure."""
    mean, row = _one(update_batch, state, model.observations([det]), model)
    return State.trusted(mean, unpack_covs(row[None])[0])


def mahalanobis_sq(state: State, det: Detection, model: MotionModel) -> float:
    """:func:`mahalanobis_sq_pairs` of one pair; raises the failure of an S
    that is not positive definite, where the pairs function gives inf."""
    zero = np.zeros(1, dtype=np.intp)
    (d2,) = _one(mahalanobis_sq_pairs, state, model.observations([det]), zero, zero, model)
    return float(d2)
