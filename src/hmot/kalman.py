"""Constant-velocity Kalman filtering for 2D (image) and 3D (world) tracks.

2D noise follows the height-proportional convention (position/size std =
w_p * h, velocity std = w_v * h), which keeps behavior scale-invariant
across near and far objects. 3D noise is a fixed diagonal in metric units.
The emitted box of an updated track is the raw observation; the filtered
mean only drives prediction and association.

``predict``, ``update`` and ``mahalanobis_sq`` are the scalar API: one
state at a time. The tracker filters all tracks of a class in one call of
``predict_batch`` and one of ``update_batch`` per frame, and gates pairs
with ``mahalanobis_sq_pairs``. Each batched function returns, bit for bit,
what its scalar counterpart returns for every row, and a row the scalar
function fails on fails with the same ``NumericFailureError``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    normalize_heading,
    observation_2d,
    observation_3d,
)


def wrap_innovation(delta: float) -> float:
    """Wrap an angle difference into (-pi, pi]."""
    wrapped = normalize_heading(delta)
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


def _require_non_negative(noise) -> None:
    """Reject a negative noise parameter: the filters square stds, so a sign
    error would otherwise pass unnoticed."""
    for f in dataclasses.fields(noise):
        value = getattr(noise, f.name)
        if not value >= 0:
            raise ValidationError(f"{f.name} must be >= 0, got {value}")


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

    def observation(self, det: Detection) -> np.ndarray:
        return observation_2d(det.box)

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

    def process_noise(self, mean: np.ndarray) -> np.ndarray:
        return np.diag(self.process_var(mean))

    def measurement_noise(self, mean: np.ndarray) -> np.ndarray:
        return np.diag(self.measurement_var(mean))

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

    def observation(self, det: Detection) -> np.ndarray:
        return observation_3d(det.box)

    def process_var(self, mean: np.ndarray) -> np.ndarray:
        """Diagonal of the (constant) process noise."""
        return self._q

    def measurement_var(self, mean: np.ndarray) -> np.ndarray:
        """Diagonal of the (constant) measurement noise."""
        return self._r

    def process_noise(self, mean: np.ndarray) -> np.ndarray:
        return np.diag(self._q)

    def measurement_noise(self, mean: np.ndarray) -> np.ndarray:
        return np.diag(self._r)

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
    return model.initial_state(model.observation(det))


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
    cov = model.F @ state.cov @ model.F.T + model.process_noise(state.mean)
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


def _innovation_cov(state: State, model: MotionModel) -> np.ndarray:
    return model.H @ state.cov @ model.H.T + model.measurement_noise(state.mean)


def update(state: State, det: Detection, model: MotionModel) -> State:
    """Standard Kalman measurement update with the detection's observation."""
    obs = model.observation(det)
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
    y = _innovation(state, model.observation(det), model)
    S = _innovation_cov(state, model)
    try:
        chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"singular innovation covariance: {exc}") from exc
    z = np.linalg.solve(chol, y)
    return float(z @ z)


# ---------------------------------------------------------------------------
# Batched forms: one stacked computation over many states


def _stack(states: Sequence[State]) -> tuple[np.ndarray, np.ndarray]:
    """Means (N, d) and covariances (N, d, d) of ``states``."""
    return np.array([s.mean for s in states]), np.array([s.cov for s in states])


def _add_diagonal(mats: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Add ``var`` ((N, d) or (d,)) to the diagonals of ``mats`` (N, d, d)."""
    i = np.arange(mats.shape[-1])
    mats[:, i, i] += var
    return mats


def _or_failure(fn: Callable, *args) -> State | NumericFailureError:
    try:
        return fn(*args)
    except NumericFailureError as exc:
        return exc


def _filter_results(
    means: np.ndarray, covs: np.ndarray, model: MotionModel, scalar: Callable[[int], State]
) -> list[State | NumericFailureError]:
    """:func:`_filter_result` for each row of stacked means and covariances.

    The checks run on the whole stack. A row that fails one is re-run through
    ``scalar(row)``, so it fails with the scalar function's own error. The
    other rows become states without a second check.
    """
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    ok = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    hi = model.heading_index
    if hi is not None:
        theta = means[:, hi]
        for i in np.flatnonzero(ok & ~((theta >= -math.pi) & (theta < math.pi))):
            theta[i] = normalize_heading(theta[i])
    ok &= (means[:, EXTENTS[model.dim_state]] > 0).all(axis=1)
    return [State.trusted(mean, cov) if good else _or_failure(scalar, i)
            for i, (mean, cov, good) in enumerate(zip(means, covs, ok.tolist()))]


def _innovations(means: np.ndarray, obs: np.ndarray, model: MotionModel) -> np.ndarray:
    """:func:`_innovation` for each row of stacked means (N, d) and
    observations (N, k). Only headings beyond pi/2 in magnitude, where
    :func:`_resolve_heading` can change them, take the scalar path."""
    y = obs - means @ model.H.T
    hi = model.heading_index
    if hi is not None:
        delta = y[:, hi]
        for i in np.flatnonzero(~(np.abs(delta) <= math.pi / 2.0)):
            delta[i] = _resolve_heading(delta[i])
    return y


def predict_batch(
    states: Sequence[State], model: MotionModel
) -> list[State | NumericFailureError]:
    """:func:`predict` of every state in one stacked computation. Each entry
    equals what ``predict`` returns for its state, bit for bit, or is the
    ``NumericFailureError`` it raises."""
    if not states:
        return []
    means, covs = _stack(states)
    F = model.F
    covs = _add_diagonal(F @ covs @ F.T, model.process_var(means))
    return _filter_results(means @ F.T, covs, model, lambda i: predict(states[i], model))


def update_batch(
    states: Sequence[State], dets: Sequence[Detection], model: MotionModel
) -> list[State | NumericFailureError]:
    """:func:`update` of each state with its detection in one stacked
    computation, with the same result per pair as ``update``. If any
    innovation covariance is not positive definite, every pair goes through
    ``update`` on its own."""
    if not states:
        return []
    means, covs = _stack(states)
    y = _innovations(means, np.array([model.observation(d) for d in dets]), model)
    H = model.H
    HP = H @ covs
    S = _add_diagonal(HP @ H.T, model.measurement_var(means))
    try:
        np.linalg.cholesky(S)  # raises unless every S is positive definite
        gain = np.swapaxes(np.linalg.solve(S, HP), 1, 2)  # each cov is symmetric
    except np.linalg.LinAlgError:
        return [_or_failure(update, s, d, model) for s, d in zip(states, dets)]
    means = means + (gain @ y[..., None])[..., 0]
    covs = covs - gain @ S @ np.swapaxes(gain, 1, 2)
    return _filter_results(means, covs, model, lambda i: update(states[i], dets[i], model))


def _mahalanobis_or_inf(state: State, det: Detection, model: MotionModel) -> float:
    try:
        return mahalanobis_sq(state, det, model)
    except NumericFailureError:
        return math.inf


def mahalanobis_sq_pairs(
    states: Sequence[State], dets: Sequence[Detection],
    rows: np.ndarray, cols: np.ndarray, model: MotionModel,
) -> np.ndarray:
    """``mahalanobis_sq(states[r], dets[c], model)`` for each pair of
    ``rows`` and ``cols``, with the innovation covariance S of each state
    factored once. Where ``mahalanobis_sq`` raises because S is not positive
    definite, the pair gets inf."""
    if not len(rows):
        return np.empty(0)
    used, row_of_pair = np.unique(rows, return_inverse=True)
    means, covs = _stack([states[i] for i in used])
    H = model.H
    S = _add_diagonal(H @ covs @ H.T, model.measurement_var(means))
    try:
        chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return np.array([_mahalanobis_or_inf(states[r], dets[c], model)
                         for r, c in zip(rows.tolist(), cols.tolist())])
    obs = np.array([model.observation(d) for d in dets])
    y = _innovations(means[row_of_pair], obs[cols], model)
    z = np.linalg.solve(chol[row_of_pair], y[..., None])
    return (np.swapaxes(z, 1, 2) @ z)[:, 0, 0]
