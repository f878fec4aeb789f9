"""The on-disk artifact entry format: detect *everything*, trust nothing.

An entry file is::

    magic (8 bytes, b"RPROSTOR")
    header length (4 bytes, big-endian)
    header (JSON, UTF-8): format version, cache key + its derivation
        text, profile label, payload sha256 + length, creation time
    payload (pickle of the CompiledProgram)

Every field exists so a *mismatch is detectable*: the magic rejects
foreign files, the format version rejects entries written by an
incompatible layout, the header digest/length reject truncation and bit
flips anywhere in the payload, and the key text — the exact derivation
of the cache key, including the full ``SoftBoundConfig`` repr and a
format-version salt — rejects entries whose instrumentation semantics
have drifted (a stale policy registry changes the config repr, which
changes the key, which orphans the old entry instead of serving it).

Decoding raises a typed :class:`StoreFormatError` naming what failed;
callers (the store) quarantine and recompile — corruption is never a
crash and never a wrong program.
"""

import hashlib
import json
import pickle
import struct
import time

MAGIC = b"RPROSTOR"
FORMAT_VERSION = 1
_HEADER_LEN = struct.Struct(">I")

#: Sanity ceiling for the header length field: a corrupted length must
#: not make a reader allocate gigabytes.
MAX_HEADER_BYTES = 1 << 20


class StoreFormatError(ValueError):
    """An entry failed validation; ``reason`` is a short machine-usable
    tag (``"magic"``, ``"version"``, ``"truncated"``, ``"digest"``,
    ``"header"``, ``"key"``, ``"payload"``)."""

    def __init__(self, reason, detail):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}")


def cache_key_text(profile, optimize):
    """The exact derivation of an entry's identity.

    The compiled module is a pure function of (source, instrumentation
    config, optimization level); the VM engine is chosen at
    instantiation time and never baked into the artifact, so it is
    deliberately *not* part of the key — one entry serves both engines.
    Observer-based profiles (config ``None``) all share the
    uninstrumented build, exactly like the in-process cache.
    ``FORMAT_VERSION`` salts the key so a layout bump orphans old
    entries wholesale.
    """
    return (f"format={FORMAT_VERSION}|config={profile.config!r}|"
            f"optimize={_opt_token(optimize)}")


def _opt_token(optimize):
    """Key token for the optimize spelling.  The historical bool levels
    keep their exact token (existing store entries stay addressable);
    -O2 spellings (``2`` / a ``ProveConfig``) get a distinct token so a
    proved build never aliases an -O1 artifact."""
    if optimize in (True, False, None, 0, 1):
        return str(bool(optimize))
    return f"O2:{optimize!r}"


def compute_key(source, profile, optimize):
    """Content address of one compile: sha256 hex over the key text and
    the source."""
    text = cache_key_text(profile, optimize)
    digest = hashlib.sha256()
    digest.update(text.encode())
    digest.update(b"\x00")
    digest.update(source.encode())
    return digest.hexdigest()


def encode_entry(key, key_text, label, payload):
    """Serialize ``payload`` bytes (an already-pickled program) into a
    self-verifying entry blob."""
    header = {
        "format": FORMAT_VERSION,
        "key": key,
        "key_text": key_text,
        "label": label,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_len": len(payload),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    return (MAGIC + _HEADER_LEN.pack(len(header_bytes)) + header_bytes
            + payload)


def decode_entry(blob, expected_key=None, expected_key_text=None):
    """Validate ``blob`` and return ``(header, payload_bytes)``.

    Raises :class:`StoreFormatError` on any mismatch: wrong magic, wrong
    format version, truncation anywhere, payload digest mismatch (bit
    flips), or — when the caller supplies expectations — an entry whose
    key or key derivation does not match the request (a hash collision
    or a stale/renamed entry file).
    """
    if len(blob) < len(MAGIC) + _HEADER_LEN.size:
        raise StoreFormatError("truncated",
                               f"{len(blob)} bytes is shorter than the "
                               f"fixed preamble")
    if blob[:len(MAGIC)] != MAGIC:
        raise StoreFormatError("magic",
                               f"leading bytes {blob[:len(MAGIC)]!r} are "
                               f"not {MAGIC!r}")
    (header_len,) = _HEADER_LEN.unpack(
        blob[len(MAGIC):len(MAGIC) + _HEADER_LEN.size])
    if header_len > MAX_HEADER_BYTES:
        raise StoreFormatError("header",
                               f"header length {header_len} exceeds the "
                               f"{MAX_HEADER_BYTES}-byte ceiling")
    header_start = len(MAGIC) + _HEADER_LEN.size
    header_end = header_start + header_len
    if len(blob) < header_end:
        raise StoreFormatError("truncated",
                               f"header runs past the end of the entry "
                               f"({header_end} > {len(blob)})")
    try:
        header = json.loads(blob[header_start:header_end].decode())
    except (ValueError, RecursionError) as error:
        raise StoreFormatError("header", f"unreadable header: {error}") \
            from None
    if not isinstance(header, dict):
        raise StoreFormatError("header",
                               f"header is {type(header).__name__}, "
                               f"not an object")
    if header.get("format") != FORMAT_VERSION:
        raise StoreFormatError("version",
                               f"entry format {header.get('format')!r}, "
                               f"this build reads {FORMAT_VERSION}")
    payload = blob[header_end:]
    if len(payload) != header.get("payload_len"):
        raise StoreFormatError("truncated",
                               f"payload is {len(payload)} bytes, header "
                               f"promises {header.get('payload_len')}")
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise StoreFormatError("digest",
                               "payload sha256 does not match the header")
    if expected_key is not None and header.get("key") != expected_key:
        raise StoreFormatError("key",
                               f"entry holds key {header.get('key')!r}, "
                               f"caller asked for {expected_key!r}")
    if expected_key_text is not None \
            and header.get("key_text") != expected_key_text:
        raise StoreFormatError("key",
                               "entry key derivation does not match this "
                               "build (stale policy registry or config "
                               "drift)")
    return header, payload


def dumps_program(compiled):
    """Pickle a :class:`~repro.api.toolchain.CompiledProgram`."""
    return pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)


def loads_program(payload):
    """Unpickle a stored program; any failure — even with a valid
    digest, e.g. a class renamed between releases — is a typed format
    error the store quarantines rather than a crash."""
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise StoreFormatError("payload",
                               f"payload does not unpickle: "
                               f"{type(error).__name__}: {error}") from None
