"""Self-describing binary model artifact, format version 2.

Layout: 4-byte magic, little-endian uint32 format version, uint64 header
length, UTF-8 JSON header (metadata plus array names/shapes in payload
order), the arrays as raw little-endian float64, then a 32-byte sha256 of
everything before it. Every artifact carries the model's source
statistics ("stats.pred_mean", "stats.pred_var", "stats.feat_cov_triu");
a file without one of them is refused, naming it. The feature covariance
is stored as its row-major upper triangle and mirrored back at load, so a
loaded covariance is symmetric by construction. Round-trips are bit-exact;
a changed byte, truncation, corruption and other format versions
(version 1 stored the full covariance and no checksum) fail with
explicit errors.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import struct

import numpy as np

from .data import NormStats
from .errors import ArtifactError, ConfigError
from .localizer import LocalizerModel, SourceStats
from .networks import FEATURE_DIM, FeatureExtractor, Localizer, Regressor
from .nn.params import Param

MAGIC = b"RFLM"
FORMAT_VERSION = 2
DIGEST_BYTES = 32  # the sha256 trailer
_TRIU_SIZE = FEATURE_DIM * (FEATURE_DIM + 1) // 2


def _upper() -> np.ndarray:
    # A boolean mask, not np.triu_indices: index arrays of the triangle's
    # size would take 4.7 MB.
    return np.triu(np.ones((FEATURE_DIM, FEATURE_DIM), dtype=bool))


def _mirrored(triu: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose row-major upper triangle is triu."""
    if triu.shape != (_TRIU_SIZE,):
        raise ConfigError(
            f"feature covariance triangle must hold {_TRIU_SIZE} values, got {triu.size}"
        )
    upper = _upper()
    cov = np.empty((FEATURE_DIM, FEATURE_DIM))
    cov[upper] = triu
    cov.T[upper] = triu
    return cov


def save_model(model: LocalizerModel, path) -> None:
    arrays = [("norm.mean", model.norm.mean), ("norm.std", model.norm.std)]
    arrays += [(f"param.{name}", p.value) for name, p in model.net.params.items()]
    s = model.source_stats
    arrays += [
        ("stats.pred_mean", s.pred_mean),
        ("stats.pred_var", s.pred_var),
        ("stats.feat_cov_triu", s.feat_cov[_upper()]),
    ]
    header = {
        "format_version": FORMAT_VERSION,
        "meta": model.meta,
        # Always true: every model carries its source statistics. The key
        # stays so that files keep their bytes.
        "has_source_stats": True,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "payload_bytes": int(sum(a.size for _, a in arrays)) * 8,
    }
    try:
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    except TypeError as e:
        raise ConfigError(f"model metadata is not JSON-serializable: {e}") from e
    prefix = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header_bytes))
    payload = (np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in itertools.chain((prefix, header_bytes), payload):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


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
            f"{path}: artifact format version {version} is not supported; this rfloc"
            f" reads version {FORMAT_VERSION} only"
        )
    # Every byte before the trailer is checked before any is parsed.
    payload_end = max(16, len(blob) - DIGEST_BYTES)
    if hashlib.sha256(memoryview(blob)[:payload_end]).digest() != blob[payload_end:]:
        raise ArtifactError(f"{path}: artifact checksum mismatch (truncated or corrupted file)")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    if payload_end < header_end:
        raise ArtifactError(f"{path}: truncated artifact header")
    try:
        header = json.loads(blob[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ArtifactError(f"{path}: corrupted artifact header: {e}") from e
    specs = _array_specs(header, path)
    if payload_end - header_end != header["payload_bytes"]:
        raise ArtifactError(
            f"{path}: truncated artifact payload "
            f"({payload_end - header_end} bytes, expected {header['payload_bytes']})"
        )
    arrays = _read_arrays(blob, header_end, specs, path)
    # The arrays are copies; drop the file's bytes before validating them.
    del blob

    def take(name: str) -> np.ndarray:
        # Popped, so the triangle is freed once its full matrix is built.
        if name not in arrays:
            raise ArtifactError(f"{path}: artifact is missing array {name!r}")
        return arrays.pop(name)

    try:
        norm = NormStats(take("norm.mean"), take("norm.std"))
        net = Localizer(*(cls({name: Param(take(f"param.{name}")) for name in cls.SHAPES})
                          for cls in (FeatureExtractor, Regressor)))
        stats = SourceStats(take("stats.pred_mean"), take("stats.pred_var"),
                            _mirrored(take("stats.feat_cov_triu")))
    except ConfigError as e:
        raise ArtifactError(f"{path}: invalid artifact contents: {e}") from e
    return LocalizerModel(net, norm, stats, header.get("meta", {}))
