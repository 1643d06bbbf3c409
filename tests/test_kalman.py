from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hmot.errors import NumericFailureError, ValidationError
from hmot.kalman import (
    NOISE_LIMIT,
    MotionModel2D,
    MotionModel3D,
    Noise2D,
    Noise3D,
    init_track_state,
    mahalanobis_sq,
    mahalanobis_sq_pairs,
    predict,
    predict_batch,
    update,
    update_batch,
    wrap_headings,
    wrap_innovation,
    wrap_innovations,
)
from hmot.types import (
    BOX2D_EXTENT_LIMIT,
    Box2D,
    Box3D,
    Camera,
    Detection,
    ObjectClass,
    State,
    normalize_heading,
    pack_covs,
    unpack_covs,
)


def _det2(cx=100.0, cy=200.0, w=30.0, h=60.0, score=0.9):
    return Detection(Box2D(cx, cy, w, h), score, ObjectClass.PEDESTRIAN,
                     camera_id=Camera.FRONT)


def _det3(cx=0.0, cy=0.0, cz=1.0, h=1.8, w=0.7, l=0.9, theta=0.0, score=0.9):
    return Detection(Box3D(cx, cy, cz, h, w, l, theta), score,
                     ObjectClass.PEDESTRIAN)


def _random_det2(rng):
    return _det2(cx=float(rng.uniform(0, 1900)), cy=float(rng.uniform(0, 1200)),
                 w=float(rng.uniform(10, 300)), h=float(rng.uniform(10, 300)))


def _random_det3(rng):
    return _det3(cx=float(rng.uniform(-80, 80)), cy=float(rng.uniform(-80, 80)),
                 cz=float(rng.uniform(-2, 4)), h=float(rng.uniform(0.5, 4)),
                 w=float(rng.uniform(0.5, 4)), l=float(rng.uniform(0.5, 10)),
                 theta=float(rng.uniform(-math.pi, math.pi)))


# ---------------------------------------------------------------------------
# wrap_innovation


def test_wrap_innovation_range():
    assert wrap_innovation(0.0) == 0.0
    assert wrap_innovation(math.pi) == math.pi
    assert wrap_innovation(-math.pi) == math.pi
    assert wrap_innovation(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(300):
        d = float(rng.uniform(-20, 20))
        w = wrap_innovation(d)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(d), abs=1e-9)


_SEAM = math.nextafter(math.pi, 0.0)
_EDGE_ANGLES = [math.pi, -math.pi, math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0),
                _SEAM, -_SEAM, 1e300, -1e300, -0.0, 0.0, 5e-324, -5e-324]


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_EDGE_ANGLES),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-20.0, 20.0)), min_size=1, max_size=40))
def test_array_wraps_equal_scalar_wraps_bit_for_bit(angles):
    theta = np.array(angles)
    assert np.array_equal(_bits(wrap_headings(theta)),
                          _bits([normalize_heading(a) for a in angles]))
    assert np.array_equal(_bits(wrap_innovations(theta)),
                          _bits([oracles.wrap_innovation(a) for a in angles]))
    assert np.array_equal(_bits([wrap_innovation(a) for a in angles]),
                          _bits([oracles.wrap_innovation(a) for a in angles]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_wraps_reject_non_finite_angles(value):
    with pytest.raises(ValidationError, match="heading must be finite"):
        wrap_innovation(value)
    with pytest.raises(ValidationError, match="heading must be finite"):
        wrap_headings(np.array([0.5, value]))


# ---------------------------------------------------------------------------
# initialization


def test_init_2d_copies_observation_zero_velocity():
    model = MotionModel2D()
    st = init_track_state(_det2(), model)
    assert st.mean[:4] == pytest.approx([100.0, 200.0, 0.5, 60.0])
    assert st.mean[4:] == pytest.approx([0, 0, 0, 0])
    st.validate()


def test_init_2d_velocity_variance_scaled():
    noise = Noise2D()
    model = MotionModel2D(noise)
    st = init_track_state(_det2(h=80.0), model)
    pos_var = (noise.init_pos_factor * noise.w_p * 80.0) ** 2
    assert st.cov[0, 0] == pytest.approx(pos_var)
    assert st.cov[4, 4] == pytest.approx(noise.init_vel_var_ratio * pos_var)
    assert st.cov[6, 6] == pytest.approx(
        noise.init_vel_var_ratio * noise.aspect_proc_std ** 2)


def test_init_3d_copies_observation():
    model = MotionModel3D()
    st = init_track_state(_det3(cx=5.0, theta=0.4), model)
    assert st.mean[0] == 5.0
    assert st.mean[6] == pytest.approx(0.4)
    assert st.mean[7:] == pytest.approx([0, 0, 0])
    st.validate()


def test_init_3d_velocity_variance_ratio():
    noise = Noise3D()
    model = MotionModel3D(noise)
    st = init_track_state(_det3(), model)
    assert st.cov[0, 0] == pytest.approx(noise.pos_meas_std ** 2)
    assert st.cov[7, 7] == pytest.approx(
        noise.init_vel_var_ratio * noise.pos_meas_std ** 2)


@pytest.mark.parametrize("noise_cls, field", [(Noise2D, "w_p"), (Noise3D, "pos_proc_std")])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1.0])
def test_noise_rejects_non_finite_or_negative(noise_cls, field, value):
    with pytest.raises(ValidationError, match=f"{field} must be >= 0 and finite"):
        noise_cls(**{field: value})


# ---------------------------------------------------------------------------
# predict


def test_predict_moves_center_by_velocity_2d():
    model = MotionModel2D()
    st = init_track_state(_det2(), model)
    st.mean[4] = 3.0
    st.mean[5] = -2.0
    out = predict(st, model)
    assert out.mean[0] == pytest.approx(103.0)
    assert out.mean[1] == pytest.approx(198.0)
    assert out.mean[4:6] == pytest.approx([3.0, -2.0])


def test_predict_k_steps_matches_closed_form():
    """k repeated predicts equal a single F^k propagation.

    Initial means and velocities are dyadic rationals, so every float
    operation along both routes is exact and the means must agree bit for
    bit. The covariances accumulate the same Q terms along both routes
    and are compared to 1e-9.
    """
    det2 = _det2(cx=96.0, cy=128.0, w=32.0, h=64.0)
    det3 = _det3(cx=8.0, cy=-4.0, cz=1.0, h=2.0, w=1.0, l=4.0, theta=0.25)
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
            # Q is evaluated at the pre-step mean on the stepped route
            mean_j = np.linalg.matrix_power(model.F, j) @ st0.mean
            Fj = np.linalg.matrix_power(model.F, k - 1 - j)
            cov_closed += Fj @ np.diag(model.process_var(mean_j)) @ Fj.T
        assert np.array_equal(stepped.mean, mean_closed)
        assert np.max(np.abs(stepped.cov - cov_closed)) <= 1e-9


def test_predict_wraps_heading():
    model = MotionModel3D()
    st = init_track_state(_det3(theta=math.pi - 0.05), model)
    # no heading velocity in this model, so push the mean directly
    st.mean[6] = math.pi + 0.3  # out of range
    out = predict(st, model)
    assert -math.pi <= out.mean[6] < math.pi


def test_predict_rejects_non_finite():
    model = MotionModel2D()
    st = init_track_state(_det2(), model)
    st.mean[0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericFailureError):
            predict(st, model)


def test_predict_rejects_non_finite_heading():
    model = MotionModel3D()
    st = init_track_state(_det3(), model)
    st.mean[6] = np.nan
    with pytest.raises(NumericFailureError, match="non-finite"):
        predict(st, model)


def test_predict_rejects_collapsed_height():
    model = MotionModel2D()
    st = init_track_state(_det2(h=5.0), model)
    st.mean[7] = -10.0  # height velocity drives h negative
    with pytest.raises(NumericFailureError):
        predict(st, model)


# ---------------------------------------------------------------------------
# update


def test_zero_innovation_update_is_fixed_point():
    """Updating with the exact predicted observation must not move the mean."""
    for model, det in ((MotionModel2D(), _det2()), (MotionModel3D(), _det3(theta=0.7))):
        st = init_track_state(det, model)
        st = predict(st, model)
        if isinstance(model, MotionModel2D):
            cx, cy, gamma, h = st.mean[:4]
            same = _det2(cx=cx, cy=cy, w=gamma * h, h=h)
        else:
            cx, cy, cz, h, w, l, theta = st.mean[:7]
            same = _det3(cx=cx, cy=cy, cz=cz, h=h, w=w, l=l, theta=theta)
        out = update(st, same, model)
        assert np.max(np.abs(out.mean - st.mean)) <= 1e-9


def test_update_moves_mean_toward_observation():
    model = MotionModel2D()
    st = init_track_state(_det2(cx=100.0), model)
    st = predict(st, model)
    out = update(st, _det2(cx=120.0), model)
    assert 100.0 < out.mean[0] < 120.0


def test_update_shrinks_position_variance():
    model = MotionModel3D()
    st = init_track_state(_det3(), model)
    st = predict(st, model)
    out = update(st, _det3(cx=0.3), model)
    assert out.cov[0, 0] < st.cov[0, 0]


def test_update_heading_flip_resolution():
    """A detection heading flipped by pi must not drag the estimate around."""
    model = MotionModel3D()
    st = init_track_state(_det3(theta=0.1), model)
    st = predict(st, model)
    flipped = _det3(theta=0.1 + math.pi)
    out = update(st, flipped, model)
    # innovation after flip correction is 0, so heading stays at 0.1
    assert out.mean[6] == pytest.approx(0.1, abs=1e-9)


def test_update_heading_small_innovation_used_directly():
    model = MotionModel3D()
    st = init_track_state(_det3(theta=0.0), model)
    st = predict(st, model)
    out = update(st, _det3(theta=0.3), model)
    assert 0.0 < out.mean[6] < 0.3


def test_update_heading_wrap_shortest_path():
    """Near the +/-pi seam the update must take the short way around."""
    model = MotionModel3D()
    st = init_track_state(_det3(theta=math.pi - 0.05), model)
    st = predict(st, model)
    out = update(st, _det3(theta=-math.pi + 0.05), model)
    # target is 0.1 rad ahead through the seam, not 2*pi - 0.1 backwards
    diff = abs(wrap_innovation(out.mean[6] - (math.pi - 0.05)))
    assert diff < 0.1


def _wandering_dets_2d(rng, n):
    """A plausible noisy track: bounded velocity, slowly drifting size."""
    cx, cy, w, h = 500.0, 400.0, 40.0, 90.0
    vx, vy = rng.uniform(-3, 3, 2)
    for _ in range(n):
        cx += vx + rng.normal(0, 1.0)
        cy += vy + rng.normal(0, 1.0)
        w = max(5.0, w * (1.0 + rng.normal(0, 0.02)))
        h = max(5.0, h * (1.0 + rng.normal(0, 0.02)))
        yield _det2(cx=cx, cy=cy, w=w, h=h)


def _wandering_dets_3d(rng, n):
    c = np.array([10.0, -5.0, 1.0])
    v = rng.uniform(-1.0, 1.0, 3)
    h, w, l = 1.8, 0.8, 1.0
    theta = 0.3
    for _ in range(n):
        c = c + v + rng.normal(0, 0.2, 3)
        theta += rng.normal(0, 0.05)
        yield _det3(cx=c[0], cy=c[1], cz=c[2],
                    h=max(0.3, h + rng.normal(0, 0.02)),
                    w=max(0.3, w + rng.normal(0, 0.02)),
                    l=max(0.3, l + rng.normal(0, 0.02)),
                    theta=math.remainder(theta, 2 * math.pi))


def test_posterior_psd_after_many_random_cycles():
    rng = np.random.default_rng(1234)
    for model, stream in ((MotionModel2D(), _wandering_dets_2d(rng, 2000)),
                          (MotionModel3D(), _wandering_dets_3d(rng, 2000))):
        st = None
        for det in stream:
            if st is None:
                st = init_track_state(det, model)
                continue
            st = predict(st, model)
            try:
                st = update(st, det, model)
            except NumericFailureError:
                pytest.fail("update reported a numeric failure on sane input")
            st.validate()  # symmetric, eigenvalues >= -1e-9


def test_mahalanobis_zero_for_exact_observation():
    model = MotionModel3D()
    st = init_track_state(_det3(cx=2.0, theta=0.5), model)
    st = predict(st, model)
    cx, cy, cz, h, w, l, theta = st.mean[:7]
    d2 = mahalanobis_sq(st, _det3(cx=cx, cy=cy, cz=cz, h=h, w=w, l=l, theta=theta), model)
    assert d2 == pytest.approx(0.0, abs=1e-12)


def test_mahalanobis_matches_direct_solve():
    model = MotionModel2D()
    rng = np.random.default_rng(9)
    st = init_track_state(_det2(), model)
    st = predict(st, model)
    det = _random_det2(rng)
    d2 = mahalanobis_sq(st, det, model)
    from hmot.types import observation_2d
    y = observation_2d(det.box) - model.H @ st.mean
    S = model.H @ st.cov @ model.H.T + np.diag(model.measurement_var(st.mean))
    expected = float(y @ np.linalg.solve(S, y))
    assert d2 == pytest.approx(expected, rel=1e-9)
    assert d2 > 0


def _scipy_update(state, det, model):
    """The measurement update through scipy's Cholesky factor and solve."""
    import scipy.linalg

    y = oracles._innovation(state, oracles.observation(det), model)
    S = oracles._innovation_cov(state, model)
    chol = scipy.linalg.cho_factor(S, lower=True)
    gain = scipy.linalg.cho_solve(chol, (state.cov @ model.H.T).T).T
    mean = state.mean + gain @ y
    cov = state.cov - gain @ S @ gain.T
    if model.heading_index is not None:
        mean[model.heading_index] = normalize_heading(mean[model.heading_index])
    return mean, 0.5 * (cov + cov.T)


def _scipy_mahalanobis_sq(state, det, model):
    import scipy.linalg

    y = oracles._innovation(state, oracles.observation(det), model)
    chol = np.linalg.cholesky(oracles._innovation_cov(state, model))
    z = scipy.linalg.solve_triangular(chol, y, lower=True)
    return float(z @ z)


@pytest.mark.parametrize("model, random_det", [
    (MotionModel2D(), _random_det2),
    (MotionModel3D(), _random_det3),
])
def test_update_and_mahalanobis_match_scipy_reference(model, random_det):
    rng = np.random.default_rng(17)
    for _ in range(200):
        first = random_det(rng)
        st = predict(init_track_state(first, model), model)
        for _ in range(int(rng.integers(0, 4))):
            st = predict(update(st, first, model), model)
        det = random_det(rng)
        mean, cov = _scipy_update(st, det, model)
        out = update(st, det, model)
        np.testing.assert_allclose(out.mean, mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.cov, cov, rtol=1e-12,
                                   atol=1e-12 * np.abs(cov).max())
        assert mahalanobis_sq(st, det, model) == pytest.approx(
            _scipy_mahalanobis_sq(st, det, model), rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_observations_stack_the_scalar_observations_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    model = MotionModel2D if dim == 2 else MotionModel3D
    if dim == 2:
        dets = [_random_det2(rng) for _ in range(40)] + [_det2(1, 2, 3, 7)]
    else:
        dets = [_random_det3(rng) for _ in range(40)] + [_det3(1, 2, 3, 1, 2, 3, 1)]
    expected = np.array([oracles.observation(d) for d in dets])
    assert np.array_equal(_bits(model.observations(dets)), _bits(expected))
    assert model.observations([]).shape == (0, model.dim_obs)


@pytest.mark.parametrize("model, det", [
    (MotionModel2D(), _det2()),
    (MotionModel3D(), _det3()),
])
def test_non_positive_definite_innovation_raises(model, det):
    st = init_track_state(det, model)
    st.cov[...] = -np.eye(model.dim_state) * 1e6
    with pytest.raises(NumericFailureError, match="singular innovation covariance"):
        update(st, det, model)
    with pytest.raises(NumericFailureError, match="singular innovation covariance"):
        mahalanobis_sq(st, det, model)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, det", [
    (MotionModel2D(), _det2()),
    (MotionModel3D(), _det3()),
])
def test_state_without_cholesky_factor_fails_alone_and_quietly(model, det):
    """A huge non-positive-definite covariance fails its own row only, and
    the batch finishes without a floating-point warning."""
    good = init_track_state(det, model)
    bad = State(good.mean, -1e300 * np.eye(model.dim_state))
    out = _results(*update_batch(*_stack([good, bad, good]),
                                 model.observations([det, det, det]), model))
    assert [type(o) for o in out] == [State, NumericFailureError, State]
    assert str(out[1]) == "singular innovation covariance: Matrix is not positive definite"
    _assert_same(out[0], oracles.update, good, det, model)
    rows = np.array([0, 1, 2, 1])
    d2, failures = mahalanobis_sq_pairs(*_stack([good, bad, good]), model.observations([det]),
                                        rows, np.zeros(4, int), model)
    assert d2[0] == d2[2] == mahalanobis_sq(good, det, model)
    assert d2[1] == d2[3] == math.inf
    assert list(failures) == [1]


# ---------------------------------------------------------------------------
# batched forms against the scalar oracles


def _stack(states):
    """Stacked means (N, d) and filter rows (N, 2d - k) of ``states``."""
    return np.array([s.mean for s in states]), pack_covs(np.array([s.cov for s in states]))


def _results(means, covs, failures):
    """Each row of a batched filter step: its state, or its failure."""
    return [failures.get(i) or State(mean, cov)
            for i, (mean, cov) in enumerate(zip(means, unpack_covs(covs)))]


def _pattern_state(rng, model):
    """A finite state with a random positive definite covariance of the
    filter's pattern, its variances of any scale from 1e-6 to 1e6; 3D
    headings run past [-pi, pi) so the wrap paths are taken."""
    d, k = model.dim_state, model.dim_obs
    if d == 8:
        mean = np.concatenate([rng.uniform(0, 1900, 2), [rng.uniform(0.2, 3.0)],
                               [rng.uniform(10, 300)], rng.normal(0, 3, 4)])
    else:
        mean = np.concatenate([rng.uniform(-80, 80, 3), rng.uniform(0.5, 5, 3),
                               [rng.uniform(-4, 4)], rng.normal(0, 1, 3)])
    var = 10.0 ** rng.uniform(-6, 6, d)
    cross = rng.uniform(-1, 1, d - k) * np.sqrt(var[:d - k] * var[k:])
    return State(mean, unpack_covs(np.concatenate([var, cross])[None])[0])


def _break(rng, state, model):
    """The same state made to fail: a box extent that predict drives
    non-positive, a mean that predict overflows, or a covariance that leaves
    the innovation covariance without a Cholesky factor."""
    mean, cov = state.mean.copy(), state.cov.copy()
    kind = rng.integers(3)
    if kind == 0:
        if model.dim_state == 8:
            mean[7] = -2.0 * mean[3]  # h + vh < 0 after predict
        else:
            mean[4] = -mean[4]
    elif kind == 1:
        mean[0] = mean[model.dim_obs if model.dim_state == 8 else 7] = 1.5e308
    else:
        cov = -1e6 * np.eye(model.dim_state)
    return State(mean, cov)


def _tracked_state(rng, model, random_det):
    """A state as the tracker makes them: a new track's, then random rounds
    of predict and update, so the observed block of its covariance stays
    diagonal. Some get a diagonal variance that is zero or negative."""
    state = init_track_state(random_det(rng), model)
    for _ in range(int(rng.integers(0, 6))):
        try:
            state = predict(state, model)
            if rng.random() < 0.7:
                state = update(state, random_det(rng), model)
        except NumericFailureError:
            break
    if rng.random() < 0.2:
        j = rng.integers(model.dim_state)
        state.cov[j, j] *= rng.choice([0.0, -0.5, -1e6])
    return state


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the NumericFailureError it raises."""
    try:
        return fn(*args)
    except NumericFailureError as exc:
        return exc


def _assert_same(out, oracle, *args):
    """``out`` is the state ``oracle(*args)`` returns, bit for bit, or the
    NumericFailureError it raises, with the same message."""
    expected = _outcome(oracle, *args)
    if isinstance(expected, NumericFailureError):
        assert isinstance(out, NumericFailureError)
        assert str(out) == str(expected)
        return
    assert isinstance(out, State)
    assert np.array_equal(_bits(out.mean), _bits(expected.mean))
    assert np.array_equal(_bits(out.cov), _bits(expected.cov))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       zero_noise=st.booleans(), tracked=st.booleans())
def test_batched_filter_matches_scalar_oracles(dim, n, seed, zero_noise, tracked):
    """The batched functions and the one-row scalar API against the dense
    scalar step in ``oracles``, bit for bit, on states of the filter's
    pattern: random ones and ones as the tracker makes them, with headings
    past [-pi, pi), innovation variances that are zero, negative or
    subnormal, and rows that fail. A covariance outside the pattern is a
    ValidationError of the scalar API."""
    rng = np.random.default_rng(seed)
    noise_cls = Noise2D if dim == 2 else Noise3D
    noise = noise_cls(**{f: 0.0 for f in noise_cls.__dataclass_fields__}) if zero_noise else None
    model = MotionModel2D(noise) if dim == 2 else MotionModel3D(noise)
    random_det = _random_det2 if dim == 2 else _random_det3
    states = [_tracked_state(rng, model, random_det) if tracked else _pattern_state(rng, model)
              for _ in range(n)]
    for i in rng.choice(n, size=int(rng.integers(0, min(n, 4) + 1)), replace=False):
        states[i] = _break(rng, states[i], model)
    if zero_noise and n > 2:
        d = model.dim_state
        states[0] = State(states[0].mean, np.zeros((d, d)))  # S = 0
        states[1] = State(states[1].mean, np.diag(np.full(d, 1e-320)))  # no finite 1 / S

    predicted = _results(*predict_batch(*_stack(states), model))
    assert len(predicted) == n
    for state, out in zip(states, predicted):
        _assert_same(out, oracles.predict, state, model)
        _assert_same(_outcome(predict, state, model), oracles.predict, state, model)

    live = [s for s in predicted if isinstance(s, State)] + states
    dets = [random_det(rng) for _ in live]
    updated = _results(*update_batch(*_stack(live), model.observations(dets), model))
    assert len(updated) == len(live)
    for state, det, out in zip(live, dets, updated):
        _assert_same(out, oracles.update, state, det, model)
        _assert_same(_outcome(update, state, det, model), oracles.update, state, det, model)

    rows, cols = np.nonzero(rng.random((len(live), len(dets))) < 0.2)
    d2s, _ = mahalanobis_sq_pairs(*_stack(live), model.observations(dets), rows, cols, model)
    for r, c, d2 in zip(rows, cols, d2s):
        expected = _outcome(oracles.mahalanobis_sq, live[r], dets[c], model)
        one = _outcome(mahalanobis_sq, live[r], dets[c], model)
        if isinstance(expected, NumericFailureError):
            assert d2 == math.inf
            assert isinstance(one, NumericFailureError) and str(one) == str(expected)
        else:
            assert _bits(d2) == _bits(expected) == _bits(one)

    cov = states[-1].cov.copy()
    i, j = rng.choice(model.dim_state, size=2, replace=False)
    if abs(i - j) == model.dim_obs and min(i, j) < model.dim_state - model.dim_obs:
        cov[i, j] += 1.0  # a position-velocity term, made asymmetric
    else:
        cov[i, j] = cov[j, i] = 1.0
    outside = State(states[-1].mean, cov)
    for fn, args in ((predict, ()), (update, (dets[0],)), (mahalanobis_sq, (dets[0],))):
        with pytest.raises(ValidationError, match="^state covariance must be zero off its "):
            fn(outside, *args, model)


def _diagonal_batch(rng, model, random_det, n):
    """``n`` tracker-made states, the first two failing: one innovation
    variance negative, one zero; their stacked arrays and detections."""
    states = [init_track_state(random_det(rng), model) for _ in range(n)]
    states = [predict(s, model) for s in states]
    states[0].cov[1, 1] = -1e6
    states[1].cov[0, 0] = -model.measurement_var(states[1].mean)[0]
    dets = [random_det(rng) for _ in states]
    return states, dets


@pytest.mark.parametrize("full_row", [None, 5])
@pytest.mark.parametrize("dim", [2, 3])
def test_diagonal_innovation_covariances_need_no_lapack(monkeypatch, dim, full_row):
    """A batch of tracker-made states, failing rows included, is updated
    without a Cholesky factor, a solve or an inverse; so is one with a
    random covariance of the filter's pattern among them. Either way every
    row equals the oracle's, bit for bit."""
    rng = np.random.default_rng(dim)
    model = MotionModel2D() if dim == 2 else MotionModel3D()
    states, dets = _diagonal_batch(rng, model, _random_det2 if dim == 2 else _random_det3, 12)
    if full_row is not None:
        states[full_row] = _pattern_state(rng, model)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called by the batched update")

    for name in ("cholesky", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    out = _results(*update_batch(*_stack(states), model.observations(dets), model))
    monkeypatch.undo()
    assert [i for i, o in enumerate(out) if isinstance(o, NumericFailureError)] == [0, 1]
    for state, det, o in zip(states, dets, out):
        _assert_same(o, oracles.update, state, det, model)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_innovation_variance_without_finite_reciprocal_fails_quietly():
    """A diagonal S with a subnormal variance has a Cholesky factor but no
    finite gain: its row fails as non-finite, as the oracle's solve makes
    it, and the batch finishes without a floating-point warning."""
    model = MotionModel3D(Noise3D(**{f: 0.0 for f in Noise3D.__dataclass_fields__}))
    det = _det3()
    good = init_track_state(det, MotionModel3D())
    tiny = State(good.mean, np.diag(np.full(10, 1e-320)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _results(*update_batch(*_stack([good, tiny]), model.observations([det, det]),
                                     model))
    assert str(out[1]) == "update produced non-finite values"
    for state, o in zip([good, tiny], out):
        _assert_same(o, oracles.update, state, det, model)


def test_batched_filter_of_no_states():
    model = MotionModel3D()
    means, covs, obs = np.empty((0, 10)), pack_covs(np.empty((0, 10, 10))), model.observations([])
    assert _results(*predict_batch(means, covs, model)) == []
    assert _results(*update_batch(means, covs, obs, model)) == []
    assert mahalanobis_sq_pairs(means, covs, obs, np.empty(0, int), np.empty(0, int),
                                model)[0].size == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([2, 3]), sizes=st.lists(st.integers(0, 40), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), broken=st.integers(0, 6))
def test_one_batch_over_blocks_equals_one_batch_per_block(dim, sizes, seed, broken):
    """One filter call over row blocks stacked one after another, as the
    classes of a tracker's store are, gives every block's rows bit for bit
    as one call per block, and each block's failures with their keys
    shifted by the block's first row; failing rows included."""
    rng = np.random.default_rng(seed)
    model = MotionModel2D() if dim == 2 else MotionModel3D()
    random_det = _random_det2 if dim == 2 else _random_det3
    n = sum(sizes)
    states = [_pattern_state(rng, model) for _ in range(n)]
    for i in rng.choice(n, size=min(n, broken), replace=False):
        states[i] = _break(rng, states[i], model)
    d = model.dim_state
    means = np.array([s.mean for s in states]).reshape(n, d)
    covs = pack_covs(np.array([s.cov for s in states]).reshape(n, d, d))
    obs = model.observations([random_det(rng) for _ in range(n)])
    starts = np.cumsum([0] + sizes)
    for batch, extra in ((predict_batch, ()), (update_batch, (obs,))):
        whole_means, whole_covs, whole_failures = batch(means, covs, *extra, model)
        blocks = [batch(means[a:b], covs[a:b], *(x[a:b] for x in extra), model)
                  for a, b in zip(starts, starts[1:])]
        assert np.array_equal(_bits(whole_means), _bits(np.concatenate([m for m, _, _ in blocks])))
        assert np.array_equal(_bits(whole_covs), _bits(np.concatenate([c for _, c, _ in blocks])))
        shifted = {a + k: (type(exc), str(exc)) for a, (_, _, failures) in zip(starts, blocks)
                   for k, exc in failures.items()}
        assert {k: (type(exc), str(exc)) for k, exc in whole_failures.items()} == shifted


def test_noise_and_extent_ceilings_keep_the_variances_finite():
    """With every noise parameter at NOISE_LIMIT and a 2D box of extents
    BOX2D_EXTENT_LIMIT, the initial, process and measurement variances and
    their squares are finite, without a warning; a parameter or an extent
    just above its ceiling is rejected."""
    top, big = NOISE_LIMIT, BOX2D_EXTENT_LIMIT
    cases = [
        (MotionModel2D(Noise2D(**{f: top for f in Noise2D.__dataclass_fields__})),
         Detection(Box2D(0.0, 0.0, big, big), 0.9, ObjectClass.PEDESTRIAN, Camera.FRONT)),
        (MotionModel3D(Noise3D(**{f: top for f in Noise3D.__dataclass_fields__})),
         Detection(Box3D(0.0, 0.0, 0.0, 1.8, 0.7, 0.9, 0.0), 0.9, ObjectClass.PEDESTRIAN)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, det in cases:
            state = init_track_state(det, model)
            for var in (np.diag(state.cov), model.process_var(state.mean),
                        model.measurement_var(state.mean)):
                assert np.isfinite(np.square(var)).all()
    with pytest.raises(ValidationError, match="w_p must be >= 0 and finite, at most 1e"):
        Noise2D(w_p=math.nextafter(top, math.inf))
    with pytest.raises(ValidationError, match="2D box extents must be <= 1e"):
        Detection(Box2D(0.0, 0.0, 1.0, math.nextafter(big, math.inf)), 0.9,
                  ObjectClass.PEDESTRIAN, Camera.FRONT)
