"""Self-describing binary model artifact.

Layout: 4-byte magic, little-endian uint32 format version, uint64 header
length, UTF-8 JSON header (metadata plus array names/shapes in payload
order), then the arrays as raw little-endian float64. Round-trips are
bit-exact; truncation, corruption and version mismatches fail with
explicit errors.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .data import NormStats
from .errors import ArtifactError, ConfigError
from .localizer import LocalizerModel, SourceStats
from .networks import FeatureExtractor, Localizer, Regressor
from .nn import ParamSet

MAGIC = b"RFLM"
FORMAT_VERSION = 1

_STATS_ARRAYS = ("stats.pred_mean", "stats.pred_var", "stats.feat_cov")


def save_model(model: LocalizerModel, path) -> None:
    arrays: list[tuple[str, np.ndarray]] = [
        ("norm.mean", model.norm.mean),
        ("norm.std", model.norm.std),
    ]
    arrays += [(f"param.{name}", p.value) for name, p in model.net.params.items()]
    if model.source_stats is not None:
        s = model.source_stats
        arrays += [
            ("stats.pred_mean", s.pred_mean),
            ("stats.pred_var", s.pred_var),
            ("stats.feat_cov", s.feat_cov),
        ]
    header = {
        "format_version": FORMAT_VERSION,
        "meta": model.meta,
        "has_source_stats": model.source_stats is not None,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "payload_bytes": int(sum(a.size for _, a in arrays)) * 8,
    }
    try:
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    except TypeError as e:
        raise ConfigError(f"model metadata is not JSON-serializable: {e}") from e
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _array_specs(header, path) -> list[tuple[str, tuple[int, ...]]]:
    """Validate the header schema; returns (name, shape) in payload order."""
    if not isinstance(header, dict):
        raise ArtifactError(f"{path}: artifact header is not a JSON object")
    if not isinstance(header.get("meta", {}), dict):
        raise ArtifactError(f"{path}: artifact metadata is not a JSON object")
    entries = header.get("arrays")
    if not isinstance(entries, list):
        raise ArtifactError(f"{path}: artifact header lacks an array list")
    specs = []
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in entry["shape"])
        ):
            raise ArtifactError(f"{path}: malformed array entry {entry!r} in artifact header")
        specs.append((entry["name"], tuple(entry["shape"])))
    if len({name for name, _ in specs}) != len(specs):
        raise ArtifactError(f"{path}: artifact header repeats an array name")
    payload_bytes = header.get("payload_bytes")
    if type(payload_bytes) is not int:
        raise ArtifactError(f"{path}: artifact header lacks an integer payload size")
    if payload_bytes != 8 * sum(math.prod(shape) for _, shape in specs):
        raise ArtifactError(f"{path}: artifact header arrays disagree with its payload size")
    return specs


def _read_arrays(blob: bytes, offset: int, specs, path) -> dict[str, np.ndarray]:
    """Copy each array out of the payload, which starts at blob[offset].

    The arrays are read in place from blob, not from a slice of it, which
    would copy the whole payload; no view into blob outlives the call.
    """
    arrays = {}
    for name, shape in specs:
        size = math.prod(shape)
        view = np.frombuffer(blob, dtype="<f8", count=size, offset=offset)
        if not np.isfinite(view).all():
            raise ArtifactError(f"{path}: array {name!r} holds non-finite values")
        arrays[name] = view.astype(np.float64).reshape(shape)
        offset += size * 8
    return arrays


def load_model(path) -> LocalizerModel:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ArtifactError(f"cannot open model artifact {path}: {e}") from e
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise ArtifactError(f"{path}: not a model artifact (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unsupported artifact version {version}, expected {FORMAT_VERSION}"
        )
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    if len(blob) < header_end:
        raise ArtifactError(f"{path}: truncated artifact header")
    try:
        header = json.loads(blob[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ArtifactError(f"{path}: corrupted artifact header: {e}") from e
    specs = _array_specs(header, path)
    if len(blob) - header_end != header["payload_bytes"]:
        raise ArtifactError(
            f"{path}: truncated artifact payload "
            f"({len(blob) - header_end} bytes, expected {header['payload_bytes']})"
        )
    arrays = _read_arrays(blob, header_end, specs, path)
    # The arrays are copies; drop the file's bytes before validating them.
    del blob

    def take(name: str) -> np.ndarray:
        if name not in arrays:
            raise ArtifactError(f"{path}: artifact is missing array {name!r}")
        return arrays[name]

    try:
        norm = NormStats(take("norm.mean"), take("norm.std"))
        ext_params, reg_params = ParamSet(), ParamSet()
        for name in FeatureExtractor.SHAPES:
            ext_params.add(name, take(f"param.{name}"))
        for name in Regressor.SHAPES:
            reg_params.add(name, take(f"param.{name}"))
        net = Localizer(FeatureExtractor(ext_params), Regressor(reg_params))
        stats = None
        if header.get("has_source_stats"):
            stats = SourceStats(*(take(n) for n in _STATS_ARRAYS))
    except ConfigError as e:
        raise ArtifactError(f"{path}: invalid artifact contents: {e}") from e
    return LocalizerModel(net, norm, stats, header.get("meta", {}))
