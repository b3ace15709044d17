"""Tests for the v2 zero-copy wire codec (:mod:`repro.serve.wire`)."""

import io
import pickle

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.simulator import SimulationResult
from repro.core import TwoBranchSoCNet, model_rollout
from repro.datasets.base import CycleRecord
from repro.serve import FleetEngine, ShardWorker, WorkerSpec, generate_fleet
from repro.serve import wire

FAST_FLEET = dict(
    ambient_temps_c=(25.0,),
    c_rates=(1.0, 2.0),
    protocols=("discharge",),
    max_time_s=1800.0,
)


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def small_fleet():
    return generate_fleet(12, seed=7, **FAST_FLEET)


def v2_body(kind, meta, arrays) -> bytes:
    """One encoded v2 frame body (the length prefix stripped)."""
    return b"".join(bytes(chunk) for chunk in wire.encode_v2(kind, meta, arrays))[4:]


def v2_body_with_meta(info, n_arrays: int, payload: bytes = b"") -> bytes:
    """A hand-built v2 body around an arbitrary meta block."""
    meta_b = json.dumps(info).encode("utf-8")
    return struct.pack(">BBIH", wire.V2_MAGIC, 2, len(meta_b), n_arrays) + meta_b + payload


def one_array(dtype, shape) -> dict:
    """Meta for a one-array frame with the given (possibly bad) spec."""
    return {"kind": "x", "meta": {}, "arrays": [{"dtype": dtype, "shape": shape}]}


VALID_BODY = v2_body(
    "estimate",
    {"n": 3, "now_s": None},
    [wire.encode_str_list(["a", "bb", "c"]), np.arange(3.0), np.arange(3, dtype=np.float32)],
)
META_END = 8 + struct.unpack_from(">I", VALID_BODY, 2)[0]


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
SPEC_DTYPES = ["<f8", "<f4", "|u1", "<i8", "|b1", ">f8", "<c16", "|S0", "<U2"]


def json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)


def decodes_or_value_error(body: bytes) -> None:
    """The decoder's contract: a :class:`V2Frame`, or a ``ValueError``."""
    try:
        frame = wire.decode_body(body)
    except ValueError:
        return
    assert isinstance(frame, wire.V2Frame)


def tiny_cycle(k: int) -> CycleRecord:
    """A two-sample cycle, distinct per ``k``."""
    channels = {name: np.array([k, k + 0.5]) for name in wire._CHANNELS}
    return CycleRecord(
        name=f"tiny{k}",
        split="test",
        ambient_c=25.0,
        sampling_period_s=1.0,
        capacity_ah=2.0,
        data=SimulationResult(**channels),
        tags={"k": k},
    )


def roundtrip_v2(kind, meta, arrays):
    buf = io.BytesIO()
    wire.write_v2(buf, kind, meta, arrays)
    buf.seek(0)
    return wire.read_frame(buf)


# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_v2_roundtrip_is_bit_for_bit(self):
        rng = np.random.default_rng(0)
        arrays = [
            rng.standard_normal(257),
            np.array([np.nan, np.inf, -np.inf, 0.0, -0.0]),
            np.arange(7, dtype=np.int64),
            rng.standard_normal(33).astype(np.float32),
            np.empty(0),
        ]
        frame = roundtrip_v2("estimate", {"cell_ids": ["a", "b"], "now_s": None}, arrays)
        assert isinstance(frame, wire.V2Frame)
        assert frame.kind == "estimate"
        assert frame.meta == {"cell_ids": ["a", "b"], "now_s": None}
        assert len(frame.arrays) == len(arrays)
        for got, sent in zip(frame.arrays, arrays):
            assert got.dtype == sent.dtype
            assert got.shape == sent.shape
            # bit-for-bit: compare raw bytes, so NaN payloads count too
            assert got.tobytes() == sent.tobytes()

    def test_non_v2_body_is_refused_before_unpickling(self, marker_pickle):
        """The decoder takes v2 bodies only: a pickle is a ``ValueError``
        and is never loaded, so its ``__reduce__`` never runs."""
        marker, body = marker_pickle
        with pytest.raises(ValueError, match="not a v2 frame"):
            wire.decode_body(body)
        buf = io.BytesIO(wire.frame_header(len(body)) + body)
        with pytest.raises(ValueError, match="not a v2 frame"):
            wire.read_frame(buf)
        assert not marker.exists()

    def test_decoded_arrays_are_views_not_copies(self):
        frame = roundtrip_v2("x", {}, [np.arange(16.0)])
        array = frame.arrays[0]
        assert array.base is not None  # frombuffer view over the frame body
        assert not array.flags.writeable

    def test_non_json_meta_raises_before_writing(self):
        buf = io.BytesIO()
        with pytest.raises(TypeError):
            wire.write_v2(buf, "x", {"bad": object()}, [])
        assert buf.getvalue() == b""  # nothing written: the stream is still framed

    def test_object_arrays_are_rejected(self):
        with pytest.raises(TypeError):
            wire.encode_v2("x", {}, [np.array([object()])])

    def test_too_many_arrays_raise_typeerror_for_pickle_fallback(self):
        """Past the 2-byte n_arrays limit the encoder must raise a typed
        TypeError (not struct.error) before anything is written."""
        one = np.zeros(1)
        with pytest.raises(TypeError, match="65535"):
            wire.encode_v2("rollout_fleet", {}, [one] * 65536)

    def test_newer_version_is_refused(self):
        chunks = wire.encode_v2("x", {}, [])
        body = b"".join(chunks)[4:]
        bumped = bytes([body[0], 99]) + body[2:]
        buf = io.BytesIO(len(bumped).to_bytes(4, "big") + bumped)
        with pytest.raises(ValueError, match="v99"):
            wire.read_frame(buf)


class TestMalformedFrames:
    """Every malformed v2 body is a ``ValueError``: over a socket anything
    else would escape the worker's serve loop as a traceback."""

    @pytest.mark.parametrize(
        "body",
        [
            b"",  # empty
            bytes([wire.V2_MAGIC]),  # magic only
            VALID_BODY[:7],  # shorter than the 8-byte header
            VALID_BODY[: META_END - 1],  # meta block cut short
            VALID_BODY[:-1],  # last payload cut short
            VALID_BODY + b"\x00",  # bytes beyond the declared payloads
        ],
        ids=["empty", "magic-only", "short-header", "short-meta", "short-payload", "trailing"],
    )
    def test_truncated_or_padded_bodies(self, body):
        with pytest.raises(ValueError):
            wire.decode_body(body)

    @pytest.mark.parametrize(
        "info, n_arrays, payload",
        [
            pytest.param({"kind": "x", "meta": {}}, 0, b"", id="no-arrays"),
            pytest.param([1, 2, 3], 0, b"", id="meta-not-object"),
            pytest.param({"kind": 7, "meta": {}, "arrays": []}, 0, b"", id="kind-not-str"),
            pytest.param({"kind": "x", "meta": [], "arrays": []}, 0, b"", id="meta-field-not-object"),
            pytest.param({"kind": "x", "meta": {}, "arrays": []}, 3, b"", id="count-mismatch"),
            pytest.param(one_array("<f8", [-1]), 1, bytes(64), id="negative-dim"),
            pytest.param(one_array("<f8", [4]), 1, bytes(8), id="payload-short"),
            pytest.param(one_array("<f8", [1]), 1, bytes(16), id="payload-long"),
            pytest.param(one_array("<f8", [True]), 1, bytes(8), id="bool-dim"),
            pytest.param(one_array("<f8", 3), 1, bytes(24), id="shape-not-list"),
            pytest.param(one_array("<f8", [0, 1 << 40]), 1, b"", id="zero-size-huge-dim"),
            pytest.param(one_array("|O8", [1]), 1, bytes(8), id="object-dtype"),
            pytest.param(one_array("f8,(", [1]), 1, bytes(8), id="unparsable-dtype"),
            pytest.param({"kind": "x", "meta": {}, "arrays": ["<f8"]}, 1, bytes(8), id="spec-not-object"),
        ],
    )
    def test_bad_meta_is_a_value_error(self, info, n_arrays, payload):
        with pytest.raises(ValueError):
            wire.decode_body(v2_body_with_meta(info, n_arrays, payload))

    def test_non_utf8_and_deeply_nested_meta(self):
        head = struct.pack(">BBIH", wire.V2_MAGIC, 2, 2, 0)
        with pytest.raises(ValueError):
            wire.decode_body(head + b"\xff\xfe")
        deep = b"[" * 100_000 + b"]" * 100_000
        with pytest.raises(ValueError):
            wire.decode_body(struct.pack(">BBIH", wire.V2_MAGIC, 2, len(deep), 0) + deep)

    def test_truncation_at_every_offset(self):
        for cut in range(len(VALID_BODY)):
            with pytest.raises(ValueError):
                wire.decode_body(VALID_BODY[:cut])
        assert isinstance(wire.decode_body(VALID_BODY), wire.V2Frame)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_header_and_meta_bytes(self, data):
        """Flip header and meta bytes (the magic byte stays, so the body
        keeps dispatching to the v2 decoder) and truncate anywhere."""
        body = bytearray(VALID_BODY)
        positions = st.integers(min_value=1, max_value=META_END - 1)
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            body[data.draw(positions)] = data.draw(st.integers(min_value=0, max_value=255))
        cut = data.draw(st.integers(min_value=0, max_value=len(body)))
        decodes_or_value_error(bytes(body[:cut]))
        decodes_or_value_error(bytes(body))

    @settings(max_examples=200, deadline=None)
    @given(
        info=st.recursive(JSON_SCALARS, json_containers, max_leaves=16),
        n_arrays=st.integers(min_value=0, max_value=3),
        payload=st.binary(max_size=64),
    )
    def test_arbitrary_json_meta(self, info, n_arrays, payload):
        decodes_or_value_error(v2_body_with_meta(info, n_arrays, payload))

    @settings(max_examples=200, deadline=None)
    @given(
        specs=st.lists(
            st.fixed_dictionaries(
                {
                    "dtype": st.sampled_from(SPEC_DTYPES),
                    "shape": st.lists(st.integers(min_value=-2, max_value=6), max_size=3),
                }
            ),
            max_size=3,
        ),
        payload=st.binary(max_size=128),
    )
    def test_arbitrary_array_specs(self, specs, payload):
        info = {"kind": "x", "meta": {}, "arrays": specs}
        decodes_or_value_error(v2_body_with_meta(info, len(specs), payload))


class TestDtypeFidelity:
    """float32 payloads must cross the wire without a float64 upcast."""

    def test_wire_col_preserves_float32(self):
        from repro.serve.workers import _wire_col

        col = np.linspace(0.0, 1.0, 17, dtype=np.float32)
        out = _wire_col(col)
        assert out.dtype == np.float32
        assert out.tobytes() == col.tobytes()

    def test_wire_col_upcasts_everything_else_to_float64(self):
        from repro.serve.workers import _wire_col

        assert _wire_col([1, 2, 3]).dtype == np.float64
        assert _wire_col(np.arange(3, dtype=np.int32)).dtype == np.float64
        assert _wire_col(3.7).dtype == np.float64
        assert _wire_col(np.float32(3.7)).dtype == np.float32

    def test_float32_frame_roundtrip_is_bit_for_bit(self):
        col = np.random.default_rng(3).standard_normal(129).astype(np.float32)
        frame = roundtrip_v2("estimate", {"n": 129}, [col])
        assert frame.arrays[0].dtype == np.float32
        assert frame.arrays[0].tobytes() == col.tobytes()

    @pytest.mark.parametrize("url", [None, "pipe://"], ids=["inproc", "pipe"])
    def test_float32_worker_replies_stay_float32(self, model, url, resolve_shard):
        local = FleetEngine(default_model=model, dtype=np.float32)
        rng = np.random.default_rng(5)
        ids = [f"c{k}" for k in range(48)]
        v = rng.uniform(2.8, 4.2, 48).astype(np.float32)
        i = rng.uniform(-5, 5, 48).astype(np.float32)
        t = rng.uniform(0, 45, 48).astype(np.float32)
        worker = resolve_shard(WorkerSpec(url=url, model=model, dtype="float32", name="f32"))
        for cid in ids:
            local.register_cell(cid)
            worker.register_cell(cid)
        out = worker.estimate(ids, v, i, t)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, local.estimate(ids, v, i, t))
        pred = worker.predict(ids, i, t, 60.0)
        assert pred.dtype == np.float32
        np.testing.assert_array_equal(pred, local.predict(ids, i, t, 60.0))


class TestRolloutCodec:
    def test_request_roundtrip_preserves_cycle_sharing(self, small_fleet):
        cycle = small_fleet.members[0].cycle
        pairs = [("a", cycle), ("b", cycle), ("c", small_fleet.members[1].cycle)]
        meta, arrays = wire.encode_rollout_request(pairs, 60.0)
        assert len(meta["cycles"]) == 2  # deduplicated by identity
        frame = roundtrip_v2("rollout_fleet", meta, arrays)
        decoded, step_s = wire.decode_rollout_request(frame.meta, frame.arrays)
        assert step_s == 60.0
        assert [cid for cid, _ in decoded] == ["a", "b", "c"]
        assert decoded[0][1] is decoded[1][1]  # sharing rebuilt
        got = decoded[0][1]
        assert got.name == cycle.name and got.tags == cycle.tags
        np.testing.assert_array_equal(got.data.voltage, cycle.data.voltage)
        np.testing.assert_array_equal(got.data.soc, cycle.data.soc)

    def test_results_roundtrip_bit_for_bit(self, model, small_fleet):
        engine = FleetEngine(default_model=model)
        results = engine.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        meta, arrays = wire.encode_rollout_results(results)
        frame = roundtrip_v2("ok", meta, arrays)
        decoded = wire.decode_rollout_results(frame.meta, frame.arrays)
        assert list(decoded) == list(results)
        for cell_id, ref in results.items():
            got = decoded[cell_id]
            np.testing.assert_array_equal(got.soc_pred, ref.soc_pred)
            np.testing.assert_array_equal(got.time_s, ref.time_s)
            np.testing.assert_array_equal(got.soc_true, ref.soc_true)
            assert got.initial_soc == ref.initial_soc
            assert got.step_s == ref.step_s and got.tail_s == ref.tail_s

    def test_request_with_many_unique_cycles_roundtrips(self):
        """Channels stack across cycles, so 9,000 unique cycles still fit
        one frame (per-cycle arrays would pass the 65,535-array limit)."""
        cycles = [tiny_cycle(k) for k in range(9000)]
        meta, arrays = wire.encode_rollout_request([(f"c{k}", c) for k, c in enumerate(cycles)], 1.0)
        frame = roundtrip_v2("rollout_fleet", meta, arrays)
        decoded, _ = wire.decode_rollout_request(frame.meta, frame.arrays)
        assert len(frame.arrays) == len(arrays) < 16
        for k in (0, 4567, 8999):
            cell_id, got = decoded[k]
            assert cell_id == f"c{k}" and got.name == f"tiny{k}" and got.tags == {"k": k}
            for name in wire._CHANNELS:
                np.testing.assert_array_equal(getattr(got.data, name), [k, k + 0.5])

    def test_in_repo_cycle_tags_are_json(self, small_sandia, small_lg, small_fleet):
        """Every in-repo cycle source tags its cycles with JSON values, so
        every in-repo workload can cross a worker link."""
        cycles = [*small_sandia.cycles, *small_lg.cycles, *(m.cycle for m in small_fleet.members)]
        for cycle in cycles:
            assert json.loads(json.dumps(cycle.tags)) == cycle.tags

    def test_empty_results_roundtrip(self):
        meta, arrays = wire.encode_rollout_results({})
        frame = roundtrip_v2("ok", meta, arrays)
        assert wire.decode_rollout_results(frame.meta, frame.arrays) == {}


class TestWorkerInterop:
    def test_v2_worker_estimate_is_bit_for_bit(self, model):
        local = FleetEngine(default_model=model)
        rng = np.random.default_rng(1)
        ids = [f"c{k}" for k in range(64)]
        v = rng.uniform(2.8, 4.2, 64)
        i = rng.uniform(-5, 5, 64)
        t = rng.uniform(0, 45, 64)
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="v2")) as worker:
            for cid in ids:
                local.register_cell(cid)
                worker.register_cell(cid)
            np.testing.assert_array_equal(worker.estimate(ids, v, i, t), local.estimate(ids, v, i, t))
            np.testing.assert_array_equal(
                worker.predict(ids, i, t, 60.0, commit=True),
                local.predict(ids, i, t, 60.0, commit=True),
            )
            assert worker.cell("c0").soc == local.cell("c0").soc

    def test_v2_worker_rollout_is_bit_for_bit(self, model, small_fleet):
        local = FleetEngine(default_model=model)
        ref = local.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="v2roll")) as worker:
            got = worker.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        for cell_id in ref:
            np.testing.assert_array_equal(got[cell_id].soc_pred, ref[cell_id].soc_pred)
            np.testing.assert_array_equal(got[cell_id].time_s, ref[cell_id].time_s)

    def test_non_json_tags_raise_before_any_byte_is_written(self, model, small_fleet):
        """A cycle whose tags are not JSON is a ``TypeError`` at the
        client; nothing reached the link, so the worker keeps serving."""
        import dataclasses as dc

        cycle = small_fleet.members[0].cycle
        poisoned = dc.replace(cycle, tags={**cycle.tags, "blob": np.arange(3)})
        ref = model_rollout(model, cycle, 120.0)
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="nonjson")) as worker:
            with pytest.raises(TypeError):
                worker.rollout_fleet([("a", poisoned)], step_s=120.0)
            assert worker.alive
            got = worker.rollout_fleet([("a", cycle)], step_s=120.0)
        np.testing.assert_allclose(got["a"].soc_pred, ref.soc_pred, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("url", [None, "pipe://"], ids=["inproc", "pipe"])
    def test_cell_ids_with_nul_are_refused_at_registration(self, model, url, resolve_shard):
        """Ids cross the wire NUL-joined, so no topology registers one
        containing NUL; the engine stays usable."""
        engine = resolve_shard(WorkerSpec(url=url, model=model, name="nul"))
        with pytest.raises(ValueError, match="NUL"):
            engine.register_cell("bad\x00id")
        engine.register_cell("good")
        assert "bad\x00id" not in engine and len(engine) == 1

    def test_scalar_broadcast_ships_one_element_and_results_are_writable(self, model, small_fleet):
        """Fleet-wide scalars cross the pipe once, and every returned
        array is writable — the same contract as an in-process engine."""
        local = FleetEngine(default_model=model)
        ids = [f"c{k}" for k in range(32)]
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="scalar")) as worker:
            for cid in ids:
                local.register_cell(cid)
                worker.register_cell(cid)
            out = worker.estimate(ids, 3.7, 1.0, 25.0)
            np.testing.assert_array_equal(out, local.estimate(ids, 3.7, 1.0, 25.0))
            out *= 2.0  # writable
            rolled = worker.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        first = next(iter(rolled.values()))
        first.soc_pred[-1] = 0.0  # writable

    def test_v2_frames_beat_pickle_on_size(self):
        """The frame encoding of a bulk estimate is leaner than its pickle."""
        n = 512
        rng = np.random.default_rng(2)
        cols = [rng.uniform(2.8, 4.2, n), rng.uniform(-5, 5, n), rng.uniform(0, 45, n)]
        ids = [f"cell-{k}" for k in range(n)]
        chunks = wire.encode_v2("estimate", {"n": n, "now_s": None}, [wire.encode_str_list(ids), *cols])
        v2_bytes = sum(len(c) for c in chunks)
        v1_bytes = len(
            pickle.dumps(("estimate", (ids, *cols), {"now_s": None}), protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert v2_bytes < v1_bytes

    def test_str_list_roundtrip(self):
        ids = ["a", "cell-1", "日本語", ""]
        blob = wire.encode_str_list(ids)
        assert blob.dtype == np.uint8
        assert wire.decode_str_list(blob, len(ids)) == ids
        assert wire.decode_str_list(wire.encode_str_list([]), 0) == []
        with pytest.raises(TypeError, match="NUL"):
            wire.encode_str_list(["bad\x00id"])
