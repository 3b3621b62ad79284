"""Durable sketch storage: versioned save/load with integrity checks.

A persistent sketch is meant to outlive the process that built it — the
paper's audit scenario queries a summary "months later".  Raw ``pickle``
works but fails ungracefully (wrong file, truncation, version skew all
surface as cryptic unpickling errors deep in a stack).  This module wraps
pickle in a small framed format:

* an 8-byte magic, a format version, the sketch's class path;
* the pickled payload length and a SHA-256 digest of the payload.

``load`` verifies all of it before unpickling and raises
:class:`SketchFileError` with a precise message otherwise.

:func:`save_sketch` is crash-safe in the strong sense: the bytes go to a
temporary sibling file which is fsynced, atomically renamed over the target,
and the parent directory is fsynced — so after ``save_sketch`` returns, the
file survives power loss, and a crash mid-save leaves the old file intact.
The :mod:`repro.durability` subsystem builds its snapshots on the same
format via :func:`encode_sketch` / :func:`decode_sketch`.  A frame carries
its own length, so frames can also be appended back to back to an
append-only log; :func:`decode_frames` reads such a log, verifying every
frame — the durable store keeps sealed checkpoints this way.

SECURITY: the payload is still a pickle — load sketch files only from
sources you trust, exactly as you would a pickle.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
from pathlib import Path
from typing import Any

MAGIC = b"REPROSK1"
FORMAT_VERSION = 1

_HEADER = struct.Struct(">8sHI")  # magic, format version, class-path length
_PAYLOAD = struct.Struct(">Q32s")  # payload length, sha256 digest


class SketchFileError(RuntimeError):
    """The file is not a valid sketch file (or is corrupt / mismatched)."""


def class_path(obj: Any) -> str:
    """Importable dotted path of a class, or of an object's class."""
    cls = obj if isinstance(obj, type) else type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def fsync_directory(directory) -> None:
    """fsync a directory so renames/creates/removals inside it are durable.

    Best-effort on platforms whose filesystems reject directory fsync
    (some network mounts, Windows): those errors are swallowed — there is
    nothing more a user-space program can do there.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def encode_sketch(sketch: Any) -> bytes:
    """Serialise ``sketch`` to the framed byte format (no I/O)."""
    payload = pickle.dumps(sketch, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).digest()
    encoded_class = class_path(sketch).encode("utf-8")
    buffer = io.BytesIO()
    buffer.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(encoded_class)))
    buffer.write(encoded_class)
    buffer.write(_PAYLOAD.pack(len(payload), digest))
    buffer.write(payload)
    return buffer.getvalue()


def _parse_frame(data, origin: str, start: int = 0, whole: bool = True) -> dict:
    """Validate the frame at ``data[start:]`` and return its metadata.

    ``origin`` names the source (a path, "<memory>") for error messages.
    With ``whole`` the frame must end exactly at the end of ``data``;
    otherwise it may be followed by more frames (``meta['end']`` is where
    the next one starts).  Does not verify the payload digest — callers
    that intend to unpickle go through :func:`_decode_payload`.
    """
    if len(data) < start + _HEADER.size:
        raise SketchFileError(f"{origin}: too short to be a sketch file")
    magic, version, class_length = _HEADER.unpack_from(data, start)
    if magic != MAGIC:
        raise SketchFileError(f"{origin}: not a sketch file (bad magic)")
    if version != FORMAT_VERSION:
        raise SketchFileError(
            f"{origin}: format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    offset = start + _HEADER.size
    if len(data) < offset + class_length + _PAYLOAD.size:
        raise SketchFileError(f"{origin}: truncated header")
    stored_class = bytes(data[offset : offset + class_length]).decode("utf-8")
    offset += class_length
    payload_length, digest = _PAYLOAD.unpack_from(data, offset)
    offset += _PAYLOAD.size
    end = offset + payload_length
    if len(data) < end or (whole and len(data) != end):
        raise SketchFileError(
            f"{origin}: payload length mismatch "
            f"(header says {payload_length}, file has {len(data) - offset})"
        )
    return {
        "class": stored_class,
        "payload_bytes": payload_length,
        "digest": digest,
        "payload_offset": offset,
        "end": end,
    }


def _decode_payload(data, meta: dict, origin: str, expected_class: Any) -> Any:
    """Check the class pin and the digest of a parsed frame, then unpickle.

    ``expected_class`` is a class, a dotted path, or a tuple of either.
    """
    if expected_class is not None:
        expected = expected_class if isinstance(expected_class, tuple) else (expected_class,)
        paths = [c if isinstance(c, str) else class_path(c) for c in expected]
        if meta["class"] not in paths:
            raise SketchFileError(
                f"{origin}: holds a {meta['class']}, expected {' or '.join(paths)}"
            )
    payload = memoryview(data)[meta["payload_offset"] : meta["end"]]
    if hashlib.sha256(payload).digest() != meta["digest"]:
        raise SketchFileError(f"{origin}: payload digest mismatch (corrupt file)")
    return pickle.loads(payload)


def decode_sketch(data: bytes, origin: str = "<memory>", expected_class: Any = None) -> Any:
    """Decode framed bytes produced by :func:`encode_sketch`, verifying them.

    ``expected_class`` (a class or dotted path string, or a tuple of them)
    additionally pins the stored type — pass it whenever the caller knows
    what it expects, so a mixed-up file fails before any state is used.
    """
    return _decode_payload(data, _parse_frame(data, origin), origin, expected_class)


def decode_frames(data: bytes, origin: str = "<memory>", expected_class: Any = None) -> list:
    """Decode back-to-back :func:`encode_sketch` frames, verifying each one.

    An append-only log of frames (the durable store's ``sealed.log``) is
    read this way: every frame's length, class pin and digest are checked
    before it is unpickled, and any damage raises :class:`SketchFileError`
    naming the byte offset of the bad frame.
    """
    decoded, offset = [], 0
    while offset < len(data):
        where = f"{origin}@{offset}"
        meta = _parse_frame(data, where, offset, whole=False)
        decoded.append(_decode_payload(data, meta, where, expected_class))
        offset = meta["end"]
    return decoded


def save_sketch(sketch: Any, path) -> int:
    """Serialise ``sketch`` to ``path``; returns the bytes written.

    The write goes through a temporary sibling file (fsynced), an atomic
    rename, and a parent-directory fsync — a crash at any point leaves either
    the previous file or the complete new one, and a completed save survives
    power loss.
    """
    path = Path(path)
    data = encode_sketch(sketch)
    temporary = path.with_suffix(path.suffix + ".tmp")
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    temporary.replace(path)
    fsync_directory(path.parent)
    return len(data)


def inspect_sketch_file(path) -> dict:
    """Read a sketch file's metadata without unpickling the payload."""
    path = Path(path)
    return _parse_frame(path.read_bytes(), str(path))


def load_sketch(path, expected_class: Any = None) -> Any:
    """Load a sketch saved by :func:`save_sketch`, verifying integrity.

    The file is read exactly once; header, class pin, and payload digest are
    all verified against that same buffer (no re-read window).
    """
    path = Path(path)
    return decode_sketch(path.read_bytes(), str(path), expected_class)
