"""A stateful test of the tracks a caller holds from ``TrackerInstance.tracks``.

One tracker per machine, 3D or 2D with re-id, runs a random script of
steps, skips, holds, ``copy.copy`` calls and writes to held tracks. After
every rule a held live track is the tracker's own and reads its row, and a
deleted track or a copy keeps the values it had, but for its own writes.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from hmot.errors import ValidationError
from hmot.tracker import TrackerInstance
from hmot.types import (A_MAX_LIMIT, Box2D, Box3D, Camera, Detection, Mode, ObjectClass, State,
                        pack_covs)

LANES = 6
CLASSES = (ObjectClass.PEDESTRIAN, ObjectClass.VEHICLE, ObjectClass.CYCLIST)
EMBED_DIM = 8


def _values(track):
    state = track.state
    return (track.track_id, track.class_label, track.age_since_update, track.hits, track.score,
            state.mean.tolist(), state.cov.tolist(), id(track.gallery))


def _quietly(call, *args):
    """``call(*args)``, with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


def _store(inst):
    store = inst._store
    return [column.copy() for column in (store.ids, store.ages, store.hits, store.scores,
                                         store.means, store.covs)]


def _lane_embedding(lane, angle):
    e = np.zeros(EMBED_DIM)
    e[lane % EMBED_DIM], e[(lane + 1) % EMBED_DIM] = math.cos(angle), math.sin(angle)
    return e


class HeldTracks(RuleBasedStateMachine):
    """Subclasses set ``mode``."""

    mode = Mode.D3

    @initialize()
    def start(self):
        d2 = self.mode is Mode.D2
        self.inst = TrackerInstance(self.mode, camera_id=Camera.FRONT if d2 else None,
                                    use_reid=d2)
        self.held = {}  # track id -> the Track object first held
        self.dead = set()  # ids the tracker deleted
        self.frozen = {}  # id() of a deleted held track or a copy -> (track, its values)
        self.touched = set()  # ids of live tracks written since the last step
        self.last_id = 0

    def _objects(self):
        return list(self.held.values()) + [track for track, _ in self.frozen.values()]

    def _after_step(self, created, deleted):
        assert all(i > self.last_id for i in created) and created == sorted(created)
        self.last_id = max(created, default=self.last_id)
        assert not set(deleted) & self.dead and len(set(deleted)) == len(deleted)
        self.dead |= set(deleted)
        for i in deleted:
            if i in self.held:
                track = self.held[i]
                self.frozen[id(track)] = (track, _values(track))
        self.touched.clear()

    @rule(jitter=st.floats(-1.0, 1.0),
          lanes=st.lists(st.tuples(st.integers(0, LANES - 1),
                                   st.sampled_from([0.9, 0.6, 0.45, 0.2]),
                                   st.none() | st.floats(0.0, 0.3)), max_size=LANES,
                         unique_by=lambda lane: lane[0]))
    def step(self, jitter, lanes):
        """A frame of boxes in lanes, primary and secondary scores, with or
        without embeddings (2D)."""
        f = self.inst.frame_index
        dets = []
        for lane, score, angle in lanes:
            cls = CLASSES[lane % 3]
            if self.mode is Mode.D2:
                box = Box2D(100.0 + 150.0 * lane + 2.0 * f + jitter, 300.0, 40.0, 80.0)
                embedding = None if angle is None else _lane_embedding(lane, angle)
                dets.append(Detection(box, score, cls, camera_id=Camera.FRONT,
                                      embedding=embedding))
            else:
                box = Box3D(10.0 * lane + 0.3 * f + 0.1 * jitter, 5.0, 0.8, 1.7, 0.7, 0.9, 0.1)
                dets.append(Detection(box, score, cls))
        result = _quietly(self.inst.step, dets)
        assert all(math.isfinite(v) for row in result.emitted
                   for v in (*dataclasses.astuple(row.box), row.score))
        self._after_step(result.created_ids, result.deleted_ids)

    @rule(n=st.integers(0, 6))
    def skip(self, n):
        before = self.last_id
        deleted = _quietly(self.inst.skip, n)
        self._after_step([], deleted)
        assert self.last_id == before

    @precondition(lambda self: len(self.inst.tracks) > 0)
    @rule(data=st.data())
    def hold(self, data):
        track = data.draw(st.sampled_from(self.inst.tracks))
        self.held.setdefault(track.track_id, track)

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def copy_held(self, data):
        track = data.draw(st.sampled_from(self._objects()))
        snap = copy.copy(track)
        assert snap is not track and _values(snap)[:-1] == _values(track)[:-1]
        self.frozen[id(snap)] = (snap, _values(snap))

    @precondition(lambda self: self.held)
    @rule(data=st.data(), field=st.sampled_from(["age_since_update", "hits", "score", "state"]))
    def write(self, data, field):
        """A valid or invalid value for ``field`` of a held track or a copy."""
        track = data.draw(st.sampled_from(self._objects()))
        if field == "state":
            state, d = track.state, len(track.state.mean)
            value = data.draw(st.sampled_from([
                State(state.mean + 0.5, state.cov * 2.0),
                State(state.mean * -1.0, state.cov),  # extents <= 0: predict fails
                State(np.ones(18 - d), np.eye(18 - d)),  # the other mode's size
                State(state.mean, np.ones((d, d)) + np.eye(d)),  # not the filter's pattern
                State.trusted(np.full(d, math.nan), np.eye(d)),
                "state",
            ]))
        else:
            valid = {"age_since_update": st.integers(0, A_MAX_LIMIT + 1),
                     "hits": st.integers(1, 2**62), "score": st.floats(-1e6, 1e6)}[field]
            invalid = {"age_since_update": [-1, A_MAX_LIMIT + 2, True, 1.5, "1"],
                       "hits": [-1, 2**62 + 1, False, 2.0, None],
                       "score": [math.nan, math.inf, "0.5", None]}[field]
            value = data.draw(valid | st.sampled_from(invalid))
        store, before = _store(self.inst), [_values(t) for t in self._objects()]
        try:
            setattr(track, field, value)
        except ValidationError:
            assert all(np.array_equal(a, b) for a, b in zip(_store(self.inst), store))
            assert [_values(t) for t in self._objects()] == before
            return
        if field == "state":
            assert np.array_equal(track.state.mean, value.mean)
            assert np.array_equal(pack_covs(track.state.cov[None]), pack_covs(value.cov[None]))
        else:
            assert getattr(track, field) == value
        if id(track) in self.frozen:
            self.frozen[id(track)] = (track, _values(track))
        else:
            self.touched.add(track.track_id)

    @invariant()
    def held_tracks_are_the_trackers(self):
        if not hasattr(self, "inst"):
            return
        inst, store = self.inst, self.inst._store
        live = inst.tracks
        ids = [t.track_id for t in live]
        assert len(set(ids)) == len(ids) and not set(ids) & self.dead
        for cls in ObjectClass:
            of_class = [t.track_id for t in live if t.class_label is cls]
            assert of_class == sorted(of_class)
        rows = {i: row for row, i in enumerate(store.ids.tolist())}
        assert list(rows) == ids
        for track in live:
            if track.track_id in self.held:
                assert self.held[track.track_id] is track
            row = rows[track.track_id]
            state = track.state
            assert (track.age_since_update, track.hits, track.score) == (
                store.ages[row], store.hits[row], store.scores[row])
            assert np.array_equal(state.mean, store.means[row])
            assert np.array_equal(pack_covs(state.cov[None])[0], store.covs[row])
            if track.track_id not in self.touched:
                assert track.age_since_update <= inst.configs[track.class_label].a_max
        for i, track in self.held.items():
            assert (i in self.dead) == (track not in live)
        for track, values in self.frozen.values():
            assert _values(track) == values
        assert all(np.isfinite(column).all() for column in _store(inst))


class HeldTracks3D(HeldTracks):
    mode = Mode.D3


class HeldTracks2DReid(HeldTracks):
    mode = Mode.D2


@pytest.mark.parametrize("machine", [HeldTracks3D, HeldTracks2DReid])
def test_held_tracks_stay_bound_to_their_rows(machine):
    """A held live track is the tracker's own object and reads and writes
    its row; a deleted track and a copy never change
    but by their own writes; a write that raises changes nothing; ids are
    unique and increase; no live track outlives its a_max; every number is
    finite and no step warns."""
    machine.TestCase.settings = settings(max_examples=60, stateful_step_count=40,
                                         deadline=None)
    machine.TestCase().runTest()
