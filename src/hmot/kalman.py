"""Constant-velocity Kalman filtering for 2D (image) and 3D (world) tracks.

2D noise follows the height-proportional convention (position/size std =
w_p * h, velocity std = w_v * h), which keeps behavior scale-invariant
across near and far objects. 3D noise is a fixed diagonal in metric units.
The emitted box of an updated track is the raw observation; the filtered
mean only drives prediction and association.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

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

    def process_noise(self, mean: np.ndarray) -> np.ndarray:
        h = mean[3]
        n = self.noise
        std = [n.w_p * h, n.w_p * h, n.aspect_proc_std, n.w_p * h,
               n.w_v * h, n.w_v * h, n.aspect_vel_proc_std, n.w_v * h]
        return np.diag(np.square(std))

    def measurement_noise(self, mean: np.ndarray) -> np.ndarray:
        h = mean[3]
        n = self.noise
        std = [n.w_p * h, n.w_p * h, n.aspect_meas_std, n.w_p * h]
        return np.diag(np.square(std))

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
        self._Q = np.diag(np.square([
            n.pos_proc_std, n.pos_proc_std, n.pos_proc_std,
            n.size_proc_std, n.size_proc_std, n.size_proc_std,
            n.heading_proc_std,
            n.vel_proc_std, n.vel_proc_std, n.vel_proc_std,
        ]))
        self._R = np.diag(np.square([
            n.pos_meas_std, n.pos_meas_std, n.pos_meas_std,
            n.size_meas_std, n.size_meas_std, n.size_meas_std,
            n.heading_meas_std,
        ]))

    def observation(self, det: Detection) -> np.ndarray:
        return observation_3d(det.box)

    def process_noise(self, mean: np.ndarray) -> np.ndarray:
        return self._Q

    def measurement_noise(self, mean: np.ndarray) -> np.ndarray:
        return self._R

    def initial_state(self, obs: np.ndarray) -> State:
        n = self.noise
        mean = np.concatenate([obs, np.zeros(3)])
        pos_var = n.pos_meas_std ** 2
        variances = np.concatenate([
            np.diag(self._R),
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


def _innovation(state: State, obs: np.ndarray, model: MotionModel) -> np.ndarray:
    """Observation-space innovation, heading ambiguity resolved.

    The heading component is wrapped into (-pi, pi]; if it still exceeds
    pi/2 in magnitude the detector likely reported the box flipped by pi,
    so the innovation is shifted by pi (and re-wrapped) before use.
    """
    y = obs - model.H @ state.mean
    hi = model.heading_index
    if hi is not None:
        delta = wrap_innovation(y[hi])
        if abs(delta) > math.pi / 2.0:
            delta = wrap_innovation(delta + math.pi)
        y[hi] = delta
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
