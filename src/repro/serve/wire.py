"""Worker wire codec: length-prefixed v2 frames, JSON meta plus raw arrays.

Every message between a :class:`~repro.serve.workers.ShardWorker` and
its worker, control ops and bulk inference alike, is one frame: a
4-byte big-endian length plus a **v2 body**::

    body    := magic=0xB2 (1B) | version (1B) | meta_len (>I) | n_arrays (>H)
               | meta (UTF-8 JSON, meta_len bytes)
               | array payloads (raw C-order bytes, back to back)

    meta    := {"kind": <message kind>,
                "meta":   <kind-specific JSON object>,
                "arrays": [{"dtype": "<f8", "shape": [n, ...]}, ...]}

Control ops (``init``, registration, state migration, ``ping``, ...)
carry their fields in the kind-specific JSON object and usually no
arrays; the per-op schemas live in :mod:`repro.serve.workers`.  Bulk
ops (``estimate`` / ``predict`` / ``rollout_fleet`` /
``resume_rollout_fleet`` and their replies) ship everything O(cells)
as raw arrays: the sender writes each array's buffer straight from
its memory, and the receiver decodes each payload with
:func:`numpy.frombuffer` over the received body, a *view* rather than
a copy.  A 1,000-cell estimate batch or a fleet's rollout
trajectories cross the link with no per-element Python work.  Decoded
arrays are read-only (they alias the frame buffer); engine code
treats inputs as immutable, results are copied out at the worker API
boundary, and float64 payloads round-trip **bit-for-bit**, the
property the worker equivalence suite pins.

:func:`decode_body` accepts v2 bodies only.  Any other first byte
raises ``ValueError`` before the rest of the body is looked at, so
nothing a worker receives can execute code on it: the worker never
unpickles.  :func:`pickle_body` remains as the encoder of the one
link still pickled, the daemon's client link
(:class:`~repro.serve.client.SocClient` to
:class:`~repro.serve.daemon.SocDaemon`), which decodes its own
frames (:func:`repro.serve.client.read_payload`).

**Trace context.**  The kind-specific ``meta`` block is free-form
JSON, so distributed-tracing context rides as one optional meta key
(:data:`TRACE_META_KEY`): the compact ``[trace_id, span_id, flags]``
triple from :func:`pack_trace_context`.  Replies from a
trace-enabled worker may carry the sibling key ``"spans"`` — span
dicts recorded in the child, re-joined to the parent's trace via
:meth:`repro.monitor.tracing.SpanTracer.absorb`.  Decoders ignore
both keys.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import re
import struct
from typing import Iterable, Sequence

import numpy as np

from ..battery.simulator import SimulationResult
from ..core.rollout import RolloutResult
from ..datasets.base import CycleRecord

__all__ = [
    "LENGTH_PREFIX_SIZE",
    "TRACE_META_KEY",
    "V2Frame",
    "pack_trace_context",
    "read_frame",
    "read_exact",
    "frame_header",
    "frame_length",
    "pickle_body",
    "decode_body",
    "write_v2",
    "encode_v2",
    "encode_str_list",
    "decode_str_list",
    "encode_rollout_request",
    "decode_rollout_request",
    "encode_rollout_results",
    "decode_rollout_results",
]

V2_MAGIC = 0xB2
V2_VERSION = 2
_LENGTH = struct.Struct(">I")
_V2_HEAD = struct.Struct(">BBIH")

# v2 arrays are plain numbers: bool, (unsigned) integer, float, complex
_V2_KINDS = "biufc"
_V2_DTYPE = re.compile(rf"[<>|][{_V2_KINDS}][0-9]{{1,2}}")  # what ``dtype.str`` gives for those
# a frame body is under 4 GiB, so no array with a payload has a
# dimension past 2**32; the bound keeps numpy's shape math in range
_MAX_DIM = 1 << 32

# built once: every worker op pays the JSON meta twice per round trip
_JSON_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_JSON_DECODE = json.JSONDecoder().decode

# Optional meta key carrying trace context across the process boundary.
TRACE_META_KEY = "tc"


def pack_trace_context(ctx) -> list[int]:
    """``[trace_id, span_id, flags]`` for the :data:`TRACE_META_KEY` meta slot.

    Duck-typed on :class:`~repro.monitor.tracing.TraceContext` so this
    module keeps zero monitor imports; bit 0 of ``flags`` is the
    head-sampled bit.
    """
    return [int(ctx.trace_id), int(ctx.span_id), 1 if ctx.sampled else 0]


@dataclasses.dataclass
class V2Frame:
    """One decoded v2 message: a kind tag, JSON-safe meta, raw arrays."""

    kind: str
    meta: dict
    arrays: list[np.ndarray]


# -- transport ---------------------------------------------------------
LENGTH_PREFIX_SIZE = _LENGTH.size


def read_exact(stream, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on EOF (possibly mid-read)."""
    chunks = []
    while n:
        chunk = stream.read(n)
        if not chunk:
            return None  # EOF (possibly mid-frame: the peer died)
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def frame_header(body_length: int) -> bytes:
    """The 4-byte length prefix for a ``body_length``-byte frame body."""
    return _LENGTH.pack(body_length)


def frame_length(header: bytes) -> int:
    """Decode a length prefix read with :func:`read_exact`."""
    (length,) = _LENGTH.unpack(header)
    return length


def pickle_body(payload) -> bytes:
    """A pickled frame body, for the daemon's client link only (never a worker)."""
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def decode_body(body: bytes) -> V2Frame:
    """Decode one v2 frame body into a :class:`V2Frame`.

    Transports that read bodies themselves (for torn-stream detection)
    decode through this.  A body that is not v2 (any other first
    byte: a pickle, say) raises ``ValueError`` before anything in it
    is interpreted, as do an empty body and a malformed v2 body
    (truncated, inconsistent header and meta, negative dimensions,
    payload sizes that disagree with the body length).
    """
    if body[:1] != bytes([V2_MAGIC]):
        raise ValueError(f"not a v2 frame body (first byte {body[:1].hex() or 'missing'})")
    return _decode_v2(body)


def read_frame(stream) -> V2Frame | None:
    """Read one frame from a binary stream; ``None`` on EOF."""
    header = read_exact(stream, _LENGTH.size)
    if header is None:
        return None
    body = read_exact(stream, frame_length(header))
    if body is None:
        return None
    return decode_body(body)


def encode_v2(kind: str, meta: dict, arrays: Sequence[np.ndarray]) -> list:
    """Serialize a v2 message into write-ready buffers.

    Fully serializes (including the JSON meta block) **before**
    returning, so a ``TypeError`` from non-JSON meta or arrays surfaces
    while the stream is still clean and the caller sees a typed error
    instead of a torn link.  Returns ``[header+meta bytes, array
    buffer, ...]``; array buffers are memoryviews of the (C-contiguous)
    array memory — no copy.
    """
    if len(arrays) > 0xFFFF:
        # n_arrays is a 2-byte field
        raise TypeError(f"{len(arrays)} arrays exceed the v2 frame limit of 65535")
    blocks: list = []
    specs = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        if array.dtype.kind not in _V2_KINDS:
            raise TypeError(f"v2 frames carry raw numeric arrays, not {array.dtype}")
        specs.append({"dtype": array.dtype.str, "shape": list(array.shape)})
        if array.size:  # empty views cannot be byte-cast; they carry no payload
            blocks.append(memoryview(array).cast("B"))
    meta_b = _JSON_ENCODE({"kind": kind, "meta": meta, "arrays": specs}).encode("utf-8")
    head = _V2_HEAD.pack(V2_MAGIC, V2_VERSION, len(meta_b), len(arrays))
    length = _V2_HEAD.size + len(meta_b) + sum(len(b) for b in blocks)
    return [_LENGTH.pack(length) + head + meta_b, *blocks]


def write_v2(stream, kind: str, meta: dict, arrays: Sequence[np.ndarray]) -> None:
    """Write one v2 frame, streaming array payloads from their buffers."""
    for chunk in encode_v2(kind, meta, arrays):
        stream.write(chunk)
    stream.flush()


def _decode_v2(body: bytes) -> V2Frame:
    """Decode a v2 body; every malformed input raises ``ValueError``."""
    if len(body) < _V2_HEAD.size:
        raise ValueError(f"v2 body is {len(body)} bytes, shorter than its {_V2_HEAD.size}-byte header")
    magic, version, meta_len, n_arrays = _V2_HEAD.unpack_from(body, 0)
    if version > V2_VERSION:
        raise ValueError(f"frame format v{version} is newer than this build (v{V2_VERSION})")
    offset = _V2_HEAD.size
    if offset + meta_len > len(body):
        raise ValueError(f"v2 meta block of {meta_len} bytes runs past the {len(body)}-byte body")
    try:
        info = _JSON_DECODE(body[offset : offset + meta_len].decode("utf-8"))
    except RecursionError as exc:
        raise ValueError("v2 meta nests too deeply") from exc
    offset += meta_len
    if not isinstance(info, dict):
        raise ValueError("v2 meta must be a JSON object")
    kind, meta, specs = info.get("kind"), info.get("meta"), info.get("arrays")
    if not isinstance(kind, str) or not isinstance(meta, dict) or not isinstance(specs, list):
        raise ValueError("v2 meta needs a string 'kind', an object 'meta' and an 'arrays' list")
    if len(specs) != n_arrays:
        raise ValueError(f"frame header promises {n_arrays} arrays, meta lists {len(specs)}")
    arrays = []
    for spec in specs:
        dtype, shape = _array_spec(spec)
        count = math.prod(shape)
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(body):
            raise ValueError(f"v2 array payloads run past the {len(body)}-byte body")
        arrays.append(np.frombuffer(body, dtype=dtype, count=count, offset=offset).reshape(shape))
        offset += nbytes
    if offset != len(body):
        raise ValueError(f"v2 body has {len(body) - offset} bytes beyond its declared payloads")
    return V2Frame(kind=kind, meta=meta, arrays=arrays)


def _array_spec(spec) -> tuple[np.dtype, tuple[int, ...]]:
    """Validate one ``{"dtype", "shape"}`` array spec from v2 meta."""
    if not isinstance(spec, dict):
        raise ValueError(f"malformed v2 array spec {spec!r}")
    dtype, shape = spec.get("dtype"), spec.get("shape")
    if not isinstance(dtype, str) or not _V2_DTYPE.fullmatch(dtype):
        raise ValueError(f"v2 arrays carry plain numeric dtypes, not {dtype!r}")
    if not isinstance(shape, list) or not all(type(dim) is int and 0 <= dim < _MAX_DIM for dim in shape):
        raise ValueError(f"malformed v2 array shape {shape!r}")
    try:
        return np.dtype(dtype), tuple(shape)
    except TypeError as exc:
        raise ValueError(f"unknown v2 array dtype {dtype!r}") from exc


# -- bulk-message payload codecs ---------------------------------------
def encode_str_list(items: Sequence[str]) -> np.ndarray:
    """Pack a list of strings into one raw uint8 payload (NUL-joined).

    Cell-id lists are the one non-numeric bulk payload; shipping them
    inside the JSON meta would put an O(n) string-encode/parse back on
    the hot path, so they ride as a raw byte block instead.  Pair with
    :func:`decode_str_list` (which needs the count, carried in the
    frame meta).

    Raises
    ------
    TypeError
        When an item contains the NUL separator.  No registered cell
        id does (:meth:`FleetEngine.register_cell
        <repro.serve.engine.FleetEngine.register_cell>` refuses them).
    """
    joined = "\x00".join(items)
    if joined.count("\x00") != max(len(items) - 1, 0):
        raise TypeError("strings containing NUL are not v2-expressible")
    return np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)


def decode_str_list(array: np.ndarray, count: int) -> list[str]:
    """Unpack :func:`encode_str_list` output back into ``count`` strings."""
    if count == 0:
        return []
    items = array.tobytes().decode("utf-8").split("\x00")
    if len(items) != count:
        raise ValueError(f"string block holds {len(items)} items, frame meta promises {count}")
    return items


_CHANNELS = (
    "time_s",
    "voltage",
    "current",
    "temp_c",
    "soc",
    "voltage_true",
    "current_true",
    "temp_true",
)


def encode_rollout_request(
    pairs: Iterable[tuple[str, CycleRecord]], step_s: float
) -> tuple[dict, list[np.ndarray]]:
    """Flatten rollout assignments into v2 meta + raw array blocks.

    Cycles are deduplicated by object identity — a fleet where many
    cells follow one recorded trace ships that trace **once**, and the
    decoder rebuilds the sharing (so the engine's per-trace plan cache
    works in the child exactly as in-process).  Only the per-*cycle*
    scalars and tags ride in the JSON meta; the O(cells) pair list is
    two raw blocks (an id blob and a cycle-index array), and each
    recorded channel is one array stacked across cycles, split by a
    ``(cycles, channels)`` lengths array.  The array count is constant,
    however many unique cycles a request carries.
    """
    cycle_index: dict[int, int] = {}
    cycles: list[CycleRecord] = []
    cell_ids: list[str] = []
    cycle_of: list[int] = []
    for cell_id, cycle in pairs:
        u = cycle_index.setdefault(id(cycle), len(cycles))
        if u == len(cycles):
            cycles.append(cycle)
        cell_ids.append(cell_id)
        cycle_of.append(u)
    specs = [
        {
            "name": cycle.name,
            "split": cycle.split,
            "ambient_c": cycle.ambient_c,
            "sampling_period_s": cycle.sampling_period_s,
            "capacity_ah": cycle.capacity_ah,
            "tags": cycle.tags,
            "stopped_early": bool(cycle.data.stopped_early),
            "stop_reason": cycle.data.stop_reason,
        }
        for cycle in cycles
    ]
    channels = [[np.asarray(getattr(cycle.data, name)) for cycle in cycles] for name in _CHANNELS]
    lengths = np.array([[len(c) for c in per_cycle] for per_cycle in channels], dtype=np.int64).T
    arrays = [
        encode_str_list(cell_ids),
        np.asarray(cycle_of, dtype=np.int64),
        lengths,
        *(np.concatenate(per_cycle) if per_cycle else np.empty(0) for per_cycle in channels),
    ]
    return {"step_s": float(step_s), "n_pairs": len(cell_ids), "cycles": specs}, arrays


def decode_rollout_request(meta: dict, arrays: Sequence[np.ndarray]) -> tuple[list, float]:
    """Rebuild ``(cell_id, cycle)`` assignments from a v2 rollout frame."""
    cell_ids = decode_str_list(arrays[0], int(meta["n_pairs"]))
    cycle_of, lengths, stacked = arrays[1], arrays[2], arrays[3:]
    n_cycles = len(meta["cycles"])
    if (
        len(stacked) != len(_CHANNELS)
        or lengths.shape != (n_cycles, len(_CHANNELS))
        or (lengths < 0).any()
        or [int(n) for n in lengths.sum(axis=0)] != [len(channel) for channel in stacked]
    ):
        raise ValueError("rollout frame's channel lengths disagree with its payloads")
    bounds = np.cumsum(lengths, axis=0)[:-1]
    split = [np.split(channel, bounds[:, c]) for c, channel in enumerate(stacked)]
    cycles = []
    for k, spec in enumerate(meta["cycles"]):
        data = SimulationResult(
            stopped_early=spec["stopped_early"],
            stop_reason=spec["stop_reason"],
            **{name: split[c][k] for c, name in enumerate(_CHANNELS)},
        )
        cycles.append(
            CycleRecord(
                name=spec["name"],
                split=spec["split"],
                ambient_c=spec["ambient_c"],
                sampling_period_s=spec["sampling_period_s"],
                capacity_ah=spec["capacity_ah"],
                data=data,
                tags=spec["tags"],
            )
        )
    pairs = [(cell_id, cycles[u]) for cell_id, u in zip(cell_ids, cycle_of)]
    return pairs, float(meta["step_s"])


def encode_rollout_results(results: dict[str, RolloutResult]) -> tuple[dict, list[np.ndarray]]:
    """Flatten per-cell trajectories into v2 meta + stacked raw arrays.

    Everything O(cells) is a raw block: the id blob, the per-cell
    lengths/scalars, and the three concatenated trajectory channels.
    """
    cell_ids = list(results)
    lengths = np.array([len(r.time_s) for r in results.values()], dtype=np.int64)
    scalars = np.array(
        [[r.initial_soc, r.step_s, r.tail_s] for r in results.values()], dtype=np.float64
    ).reshape(len(results), 3)
    empty = np.empty(0)
    stacked = [
        np.concatenate(parts) if parts else empty
        for parts in (
            [r.time_s for r in results.values()],
            [r.soc_pred for r in results.values()],
            [r.soc_true for r in results.values()],
        )
    ]
    arrays = [encode_str_list(cell_ids), lengths, scalars, *stacked]
    return {"n_cells": len(cell_ids)}, arrays


def decode_rollout_results(meta: dict, arrays: Sequence[np.ndarray]) -> dict[str, RolloutResult]:
    """Rebuild the ``{cell_id: RolloutResult}`` mapping from a v2 reply.

    Trajectories are copied out of the frame body so callers receive
    writable arrays — the same contract as an in-process engine — and
    the frame buffer can be released.
    """
    cell_ids = decode_str_list(arrays[0], int(meta["n_cells"]))
    lengths, scalars, time_all, pred_all, true_all = arrays[1:]
    results: dict[str, RolloutResult] = {}
    offset = 0
    for k, cell_id in enumerate(cell_ids):
        n = int(lengths[k])
        results[cell_id] = RolloutResult(
            time_s=time_all[offset : offset + n].copy(),
            soc_pred=pred_all[offset : offset + n].copy(),
            soc_true=true_all[offset : offset + n].copy(),
            initial_soc=float(scalars[k, 0]),
            step_s=float(scalars[k, 1]),
            tail_s=float(scalars[k, 2]),
        )
        offset += n
    return results
