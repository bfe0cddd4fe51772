"""Mini object store: transforms on the write path, blobs across OSDs.

The IO application of this package.  `put` optionally compresses the
object or erasure-codes it into k+m shards before writing to simulated
OSD targets.  `get` calls a function only to undo a transform:
DECOMPRESS for a compressed object, and EC_DECODE for an EC object
when a data blob is lost.  Every other read, of a `none` object or of
an EC object whose k data blobs are all readable, joins the data
blobs; the code is systematic, so they are the object.  A blob whose
length differs from the one its manifest records counts as lost.
`submit_put` sends the transform call and leaves the put pending until
its caller finishes it, so one thread can keep many puts in flight on
one client.  Every transform runs through the client SDK — either an
in-process client (the default) or a caller-supplied remote client —
so the store behaves identically regardless of where the function
executes, and stored bytes are identical either way.

One rule places every object.  An object is n blobs: one for `none` and
`compress`, k+m for EC, and any k of them rebuild it (k = 1 unless EC).
Blob i of a put with generation g is stored under the key `name/g/i` on
the (crc32(name) + i)-th live OSD, counting modulo the live set in id
order.  CRC-32 rather than Python's hash() because the latter is
randomized per process and placement must be reproducible.

Each put takes a generation that no other put of the store uses, so it
never writes over a blob a manifest names.  The generation is greater
than the one of the manifest current when the put was planned, so puts
of one name finished in submit order commit rising generations.  A put
writes its blobs, commits by replacing the manifest (on disk, then in
memory, both under the store lock), makes the disk rename durable, and
only then deletes the blobs of the manifest it replaced.  Hence:

- a put that fails before its commit deletes what it wrote, and the
  previous version stays whole;
- a put whose manifest rename is done but not yet durable, because the
  fsync of the manifest directory failed, is committed and raises; it
  keeps the replaced version's blobs, which a crash may bring back;
- of two pending puts of one name (`submit_put`), the last to finish
  wins, whatever the order they were submitted in;
- after any put that returns, each live OSD holds exactly the blobs
  the current manifests name; an OSD that is down during the put keeps
  its stale copies;
- a get that races a put of the same name may find its blobs deleted;
  it then reads the version that put committed, and raises rather than
  return other bytes if a further put deleted those too.

Each object's manifest records everything `get` needs (transform, raw
length, padding, generation, per-blob placement); there is no other
metadata.  Manifests serialize to compact canonical JSON — sorted
keys, no whitespace — so equal manifests have equal encodings.

OSD targets hold an in-memory map by default, or a directory of files
(keys percent-encoded) when the store is rooted on disk; a `.down`
marker keeps the alive flag persistent for the CLI.  One `ObjectStore`
owns a root at a time: a store caches the manifests it has read or
written and the last generation it used, so a second instance on the
same root reads stale manifests and may reuse generations.  On disk,
every blob and manifest is written to a temporary file, fsynced,
renamed over its path, and its directory fsynced, so the blobs a
manifest names are durable before that manifest is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import urllib.parse
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from . import codec as codec_mod
from .client import Client, ClientConfig, ClientError
from .gfec import code_fits
from .protocol import (
    CompressParams,
    DecompressParams,
    EcDecodeParams,
    EcEncodeParams,
    FunctionId,
)
from .server import parse_address

MANIFEST_VERSION = 1

TRANSFORM_NONE = "none"
TRANSFORM_COMPRESS = "compress"
TRANSFORM_EC = "ec"
TRANSFORMS = (TRANSFORM_NONE, TRANSFORM_COMPRESS, TRANSFORM_EC)

# The codecs compress takes.  The stored form is what it falls back to
# when a codec does not shrink a block, not a codec to ask for.
_CODECS = (codec_mod.CODEC_RLE0, codec_mod.CODEC_LZ)


class StoreError(Exception):
    """Base class for object-store errors."""


class PlacementError(StoreError):
    """Not enough live OSDs to place the object."""


class NotFound(StoreError):
    """Unknown object, OSD id, or unreadable blob."""


class Unrecoverable(NotFound):
    """Fewer than k of an object's blobs are readable (k = 1 unless EC)."""


@dataclass(frozen=True)
class ObjectPolicy:
    """What to do to an object on the way in, and where that code runs.

    `client` is None for in-process execution or a connected remote
    Client; it never enters the manifest.
    """

    transform: str = TRANSFORM_NONE
    codec_id: int = codec_mod.CODEC_RLE0
    k: int = 0
    m: int = 0
    client: Client | None = None

    def __post_init__(self) -> None:
        if self.transform not in TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.transform == TRANSFORM_COMPRESS and self.codec_id not in _CODECS:
            raise ValueError(f"cannot compress with codec id {self.codec_id}")
        if self.transform == TRANSFORM_EC and not code_fits(self.k, self.m):
            raise ValueError(f"invalid ec parameters k={self.k} m={self.m}")

    @staticmethod
    def none() -> "ObjectPolicy":
        return ObjectPolicy(transform=TRANSFORM_NONE)

    @staticmethod
    def compress(
        codec_id: int = codec_mod.CODEC_RLE0, client: Client | None = None
    ) -> "ObjectPolicy":
        return ObjectPolicy(
            transform=TRANSFORM_COMPRESS, codec_id=codec_id, client=client
        )

    @staticmethod
    def ec(k: int, m: int, client: Client | None = None) -> "ObjectPolicy":
        return ObjectPolicy(transform=TRANSFORM_EC, k=k, m=m, client=client)


# The JSON type of each field of a v1 manifest record, of each of its
# placements, and of each transform's parameters.
_RECORD_FIELDS = {
    "name": str,
    "raw_len": int,
    "transform": dict,
    "shard_size": int,
    "padding": int,
    "generation": int,
    "placements": list,
}
_PLACEMENT_FIELDS = {"osd": int, "key": str, "len": int}
_TRANSFORM_FIELDS = {
    TRANSFORM_NONE: {},
    TRANSFORM_COMPRESS: {"codec_id": int},
    TRANSFORM_EC: {"k": int, "m": int},
}


def _check_fields(record: object, fields: dict[str, type], what: str) -> None:
    """Raise StoreError unless `record` is a dict with `fields` of their types."""
    if not isinstance(record, dict):
        raise StoreError(f"{what} is not a JSON object")
    for field, kind in fields.items():
        if not isinstance(record.get(field), kind):
            raise StoreError(f"{what} has no {kind.__name__} field {field!r}")


@dataclass(frozen=True)
class Placement:
    osd: int
    key: str
    length: int


@dataclass(frozen=True)
class ObjectManifest:
    """Everything needed to read an object back: no hidden state."""

    name: str
    raw_len: int
    transform: dict
    placements: tuple[Placement, ...]
    shard_size: int = 0
    padding: int = 0
    generation: int = 0

    def to_json(self) -> str:
        record = {
            "version": MANIFEST_VERSION,
            "name": self.name,
            "raw_len": self.raw_len,
            "transform": self.transform,
            "shard_size": self.shard_size,
            "padding": self.padding,
            "generation": self.generation,
            "placements": [
                {"osd": p.osd, "key": p.key, "len": p.length}
                for p in self.placements
            ],
        }
        return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "ObjectManifest":
        """Parse a v1 record, as `to_json` writes it.

        Raises:
            StoreError: `text` is not a v1 record; the message says why.
        """
        try:
            record = json.loads(text)
        except ValueError as exc:  # not JSON, or bytes that are not UTF-8
            raise StoreError(f"manifest is not JSON: {exc}") from None
        _check_fields(record, {}, "manifest")
        if record.get("version") != MANIFEST_VERSION:
            raise StoreError(f"unsupported manifest version {record.get('version')}")
        record.setdefault("generation", 0)  # absent from the oldest records
        _check_fields(record, _RECORD_FIELDS, "manifest")
        for placement in record["placements"]:
            _check_fields(placement, _PLACEMENT_FIELDS, "manifest placement")
        transform = record["transform"]
        params = _TRANSFORM_FIELDS.get(transform.get("kind"))
        if params is None or set(transform) != {"kind", *params}:
            raise StoreError(f"manifest transform {transform} is not one put writes")
        _check_fields(transform, params, "manifest transform")
        try:
            ObjectPolicy(transform["kind"], **{p: transform[p] for p in params})
        except ValueError as exc:
            raise StoreError(f"manifest transform: {exc}") from None
        if transform["kind"] != TRANSFORM_COMPRESS:
            # `get` cuts the joined data blobs to raw_len.
            held = sum(p["len"] for p in record["placements"][: transform.get("k", 1)])
            if held != record["raw_len"] + record["padding"]:
                raise StoreError("manifest raw_len and padding disagree with its blobs")
        return cls(
            name=record["name"],
            raw_len=record["raw_len"],
            transform=record["transform"],
            placements=tuple(
                Placement(p["osd"], p["key"], p["len"]) for p in record["placements"]
            ),
            shard_size=record["shard_size"],
            padding=record["padding"],
            generation=record["generation"],
        )


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _replace_file(path: Path, write: Callable[[Path], object]) -> None:
    """Have `write` fill a temporary file, fsync it, then move it over `path`.

    The rename survives a crash once the caller has fsynced `path.parent`.
    If a step fails, the temporary file is removed and `path` keeps its
    previous contents.  The temporary name carries the thread id, so two
    threads writing the same path never share one.
    """
    tmp = path.with_name(f"{path.name}.{threading.get_ident()}.tmp")
    try:
        write(tmp)
        _fsync(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_block(block: bytes, raw_len: int) -> None:
    """Raise StoreError unless `block`'s header declares `raw_len` bytes.

    The body is not decoded: a block of the right length that decodes
    to other bytes passes.
    """
    try:
        declared = codec_mod.read_header(block)[1]
    except codec_mod.CodecError as exc:
        raise StoreError(f"compress output is not a block: {exc}") from None
    if declared != raw_len:
        raise StoreError(
            f"compress output declares {declared} bytes, the object has {raw_len}"
        )


class OsdTarget:
    """One simulated storage daemon: a keyed blob map, possibly on disk."""

    def __init__(self, osd_id: int, directory: Path | None = None):
        self.id = osd_id
        self._dir = directory
        self._blobs: dict[str, bytes] = {}
        self._alive = True
        self._lock = threading.Lock()
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)

    @property
    def alive(self) -> bool:
        if self._dir is not None:
            return not (self._dir / ".down").exists()
        return self._alive

    def set_alive(self, alive: bool) -> None:
        if self._dir is not None:
            marker = self._dir / ".down"
            if alive:
                marker.unlink(missing_ok=True)
            else:
                marker.touch()
        else:
            self._alive = alive

    def _path(self, key: str) -> Path:
        assert self._dir is not None
        return self._dir / urllib.parse.quote(key, safe="")

    def write(self, key: str, data: bytes) -> None:
        if not self.alive:
            raise NotFound(f"osd {self.id} is down")
        with self._lock:
            if self._dir is not None:
                _replace_file(self._path(key), lambda tmp: tmp.write_bytes(data))
                _fsync(self._dir)
            else:
                self._blobs[key] = data

    def read(self, key: str) -> bytes:
        if not self.alive:
            raise NotFound(f"osd {self.id} is down")
        with self._lock:
            if self._dir is not None:
                path = self._path(key)
                if not path.exists():
                    raise NotFound(f"osd {self.id} has no blob {key!r}")
                return path.read_bytes()
            if key not in self._blobs:
                raise NotFound(f"osd {self.id} has no blob {key!r}")
            return self._blobs[key]

    def delete(self, key: str) -> None:
        """Remove a blob; a key the OSD does not hold is no error."""
        if not self.alive:
            raise NotFound(f"osd {self.id} is down")
        with self._lock:
            if self._dir is not None:
                self._path(key).unlink(missing_ok=True)
            else:
                self._blobs.pop(key, None)


@dataclass
class StoreStats:
    raw_bytes: int = 0
    stored_bytes: int = 0


class ObjectStore:
    """Object namespace over a fixed set of OSD targets."""

    def __init__(self, osd_count: int = 6, root: Path | str | None = None):
        if osd_count < 1:
            raise ValueError("need at least one OSD")
        self._root = Path(root) if root is not None else None
        self.osds = [
            OsdTarget(i, self._root / f"osd-{i:03d}" if self._root else None)
            for i in range(osd_count)
        ]
        self._manifests: dict[str, ObjectManifest] = {}
        self._generation = 0
        self._local = Client(ClientConfig(mode="in-process"))
        self.stats = StoreStats()
        self._lock = threading.Lock()
        if self._root is not None:
            (self._root / "manifests").mkdir(parents=True, exist_ok=True)

    # --- OSD administration -------------------------------------------------

    def _osd(self, osd_id: int) -> OsdTarget:
        if not 0 <= osd_id < len(self.osds):
            raise NotFound(f"no osd with id {osd_id}")
        return self.osds[osd_id]

    def kill_osd(self, osd_id: int) -> None:
        self._osd(osd_id).set_alive(False)

    def revive_osd(self, osd_id: int) -> None:
        self._osd(osd_id).set_alive(True)

    def live_osds(self) -> list[OsdTarget]:
        return [osd for osd in self.osds if osd.alive]

    # --- manifest persistence --------------------------------------------------

    def _manifest_path(self, name: str) -> Path:
        assert self._root is not None
        return self._root / "manifests" / (urllib.parse.quote(name, safe="") + ".json")

    def manifest(self, name: str) -> ObjectManifest:
        with self._lock:
            if name in self._manifests:
                return self._manifests[name]
        if self._root is not None:
            path = self._manifest_path(name)
            if path.exists():
                try:
                    return ObjectManifest.from_json(path.read_bytes())
                except StoreError as exc:
                    raise StoreError(f"{path}: {exc}") from None
        raise NotFound(f"no object named {name!r}")

    def _commit(
        self, manifest: ObjectManifest, previous: ObjectManifest | None
    ) -> ObjectManifest | None:
        """Make `manifest` current on disk, then in memory.

        Returns the manifest it replaced: the one in memory, or else
        `previous`, which the put looked up before it wrote (a store that
        has not loaded a name finds it only on disk).  A failed disk write
        leaves the old manifest current in both.  The rename is durable
        once the caller has fsynced the manifest directory.
        """
        with self._lock:
            if self._root is not None:
                text = manifest.to_json()
                _replace_file(
                    self._manifest_path(manifest.name),
                    lambda tmp: tmp.write_text(text),
                )
            replaced = self._manifests.get(manifest.name, previous)
            self._manifests[manifest.name] = manifest
        return replaced

    def _discard(self, placements: Iterable[Placement]) -> None:
        """Delete blobs; an OSD that is down keeps its copy."""
        for placement in placements:
            try:
                self._osd(placement.osd).delete(placement.key)
            except NotFound:
                pass

    # --- data path ------------------------------------------------------------

    def put(self, name: str, data: bytes, policy: ObjectPolicy) -> ObjectManifest:
        """Transform and store one object, replacing any previous version.

        This is `submit_put` with its finisher called at once.

        Plans first: the n target OSDs (one blob, or k+m for EC) and a
        fresh generation g.  Then runs the transform, writes blob i under
        `name/g/i`, commits the new manifest, and deletes the blobs of
        the manifest it replaced, except on OSDs that are down.  If any
        step before the commit fails, the put deletes the blobs it wrote
        and raises, and the previous version stays readable.  If the
        fsync that makes a disk commit durable fails, the put raises
        after its commit and keeps the replaced blobs too.

        Raises:
            PlacementError: Fewer live OSDs than the object has blobs;
                raised before any transform call.
            ClientError subtypes: The transform itself failed.
            StoreError: The transform answered output of the wrong
                shape: EC output that is not k+m shards, or a block whose
                header declares other than the object's length.  Nothing
                is written.  Also raised, before the transform call, when
                the name's manifest file is not a v1 record.
            NotFound: A target OSD went down during the put.
            OSError: A disk-backed blob or manifest write failed.
        """
        return self.submit_put(name, data, policy)()

    def submit_put(
        self, name: str, data: bytes, policy: ObjectPolicy
    ) -> Callable[[], ObjectManifest]:
        """Plan a put and submit its transform call; return its finisher.

        The put is pending until the returned function is called: that
        awaits the transform, then writes, commits and deletes as `put`
        describes, and returns the manifest.  Many puts may be pending on
        one client at once.  Of two pending puts of one name, the last to
        finish wins, even if it was submitted first: its manifest becomes
        current and the other's blobs are deleted.

        Raises:
            PlacementError: Fewer live OSDs than the object has blobs;
                raised before the transform call is submitted.
            ClientError subtypes: The call could not be submitted.  The
                finisher raises what `put` raises after its transform call.
        """
        if not name:
            raise ValueError("object name must be nonempty")
        k, m = policy.k, policy.m
        count = k + m if policy.transform == TRANSFORM_EC else 1
        live = self.live_osds()
        if len(live) < count:
            raise PlacementError(
                f"{policy.transform} object needs {count} live OSDs, have {len(live)}"
            )
        offset = zlib.crc32(name.encode("utf-8"))
        targets = [live[(offset + i) % len(live)] for i in range(count)]
        try:
            previous = self.manifest(name)
        except NotFound:
            previous = None
        floor = previous.generation if previous else 0
        with self._lock:
            self._generation = generation = max(self._generation, floor) + 1

        transform: dict = {"kind": policy.transform}
        shard_size = padding = 0
        request = None
        if policy.transform == TRANSFORM_EC:
            transform.update(k=k, m=m)
            shard_size = max(1, -(-len(data) // k))
            padded = data.ljust(k * shard_size, b"\x00")
            padding = len(padded) - len(data)
            request = (FunctionId.EC_ENCODE, EcEncodeParams(k, m), padded)
        elif policy.transform == TRANSFORM_COMPRESS:
            transform["codec_id"] = policy.codec_id
            request = (FunctionId.COMPRESS, CompressParams(policy.codec_id), data)

        def complete(output: bytes) -> ObjectManifest:
            # A transform output of the wrong shape is never stored.
            if policy.transform == TRANSFORM_EC and len(output) != count * shard_size:
                raise StoreError(
                    f"ec output is {len(output)} bytes, not {count} shards "
                    f"of {shard_size}"
                )
            if policy.transform == TRANSFORM_COMPRESS:
                _check_block(output, len(data))
            # EC output is k+m shards back to back; other output is one blob.
            size = shard_size or len(output)
            blobs = [output[i * size : (i + 1) * size] for i in range(count)]
            placements = tuple(
                Placement(target.id, f"{name}/{generation}/{i}", len(blob))
                for i, (target, blob) in enumerate(zip(targets, blobs))
            )
            manifest = ObjectManifest(
                name, len(data), transform, placements, shard_size, padding, generation
            )
            try:
                for target, placement, blob in zip(targets, placements, blobs):
                    target.write(placement.key, blob)
                replaced = self._commit(manifest, previous)
            except BaseException:
                # No other put uses this generation's keys, so deleting all
                # of them, written or not, leaves every other version whole.
                self._discard(placements)
                raise
            if self._root is not None:
                # Committed, but a crash may bring back the replaced
                # manifest until this succeeds: if it fails, its blobs stay.
                _fsync(self._root / "manifests")
            if replaced is not None:
                kept = {p.key for p in placements}
                self._discard(p for p in replaced.placements if p.key not in kept)
            with self._lock:
                self.stats.raw_bytes += len(data)
                self.stats.stored_bytes += sum(p.length for p in placements)
            return manifest

        if request is None:
            return lambda: complete(data)
        instance = (policy.client or self._local).submit(*request)
        return lambda: complete(instance.await_result())

    def get(self, name: str, client: Client | None = None) -> bytes:
        """Read an object back, calling a function only to undo a transform.

        Reads the manifest's blobs in index order until k are in hand
        (k = 1 unless EC), skipping any whose OSD is down or lost it, or
        whose length is not the one the manifest records.  If fewer than
        k are readable and a put has committed a new manifest since the
        lookup, reads that manifest's blobs instead, once.

        A compressed object is decompressed by a DECOMPRESS call.  An EC
        object with a data blob skipped is rebuilt by one EC_DECODE
        call.  Any other object, a `none` object or an EC object whose k
        data blobs were all read, is those blobs joined: no call.

        Args:
            name: Object name from a previous put.
            client: Optional remote client to run the reverse transform
                on, when there is one to run; defaults to in-process
                execution (the bytes are identical either way).

        Raises:
            NotFound: Unknown name.
            StoreError: The name's manifest file is not a v1 record.
            Unrecoverable: Fewer than k blobs readable.  It subclasses
                NotFound, so a none or compress object whose one holder
                is down or lost the blob raises NotFound.
        """
        manifest = self.manifest(name)
        client = client or self._local
        blobs, present = self._read_blobs(manifest)
        if len(blobs) < manifest.transform.get("k", 1):
            # A put that committed since the lookup deletes the blobs it
            # replaced; the version it wrote is the one to read.
            latest = self.manifest(name)
            if latest.generation != manifest.generation:
                manifest = latest
                blobs, present = self._read_blobs(manifest)
        transform = manifest.transform
        k = transform.get("k", 1)
        if len(blobs) < k:
            raise Unrecoverable(f"{name!r}: {len(blobs)} blobs readable, need {k}")
        if transform["kind"] == TRANSFORM_COMPRESS:
            params = DecompressParams(transform["codec_id"])
            return client.call(FunctionId.DECOMPRESS, params, blobs[0])
        # Blobs are read in index order, so the data blobs are all in
        # hand exactly when `present` is blobs 0 to k-1.
        if present != (1 << k) - 1:
            params = EcDecodeParams(k, transform["m"], manifest.shard_size, present)
            blobs = [client.call(FunctionId.EC_DECODE, params, b"".join(blobs))]
        return b"".join(blobs)[: manifest.raw_len]

    def _read_blobs(self, manifest: ObjectManifest) -> tuple[list[bytes], int]:
        """The first k readable blobs of `manifest`, and a bitmap of their indices.

        A blob of another length than its placement records is skipped.
        """
        k = manifest.transform.get("k", 1)
        blobs: list[bytes] = []
        present = 0
        for i, placement in enumerate(manifest.placements):
            try:
                blob = self._osd(placement.osd).read(placement.key)
            except NotFound:
                continue
            if len(blob) != placement.length:
                continue
            blobs.append(blob)
            present |= 1 << i
            if len(blobs) == k:
                break  # any k blobs suffice
        return blobs, present


def _object_name(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("object name must be nonempty")
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="msfm-obj", description="Poke at a directory-backed object store."
    )
    parser.add_argument(
        "--root", required=True, metavar="DIR", help="store root directory"
    )
    parser.add_argument(
        "--osds", type=int, default=6, metavar="N", help="OSD count (default 6)"
    )
    parser.add_argument(
        "--server",
        type=parse_address,
        metavar="ADDR:PORT",
        help="run transforms on this server instead of in-process",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_put = sub.add_parser("put", help="store a file as an object")
    p_put.add_argument("name", type=_object_name)
    p_put.add_argument("file", help="input path, or - for stdin")
    p_put.add_argument(
        "--transform",
        default="none",
        choices=["none", "rle0", "lz", "ec"],
        help="write-path transform (default none)",
    )
    p_put.add_argument("--k", type=int, default=4)
    p_put.add_argument("--m", type=int, default=2)

    p_get = sub.add_parser("get", help="read an object back")
    p_get.add_argument("name", type=_object_name)
    p_get.add_argument("out", help="output path, or - for stdout")

    p_kill = sub.add_parser("kill-osd", help="mark an OSD dead")
    p_kill.add_argument("id", type=int)
    p_rev = sub.add_parser("revive-osd", help="mark an OSD alive")
    p_rev.add_argument("id", type=int)

    args = parser.parse_args(argv)
    client = None
    try:
        # Arguments are checked, and the server connected, before the
        # store creates any directory.
        try:
            policy = ObjectPolicy.none()
            if args.command == "put" and args.transform == "ec":
                policy = ObjectPolicy.ec(args.k, args.m)
            elif args.command == "put" and args.transform != "none":
                policy = ObjectPolicy.compress(codec_mod.CODEC_NAMES[args.transform])
            if args.server:
                client = Client(ClientConfig(mode="remote", address=args.server))
                policy = replace(policy, client=client)
            store = ObjectStore(osd_count=args.osds, root=args.root)
        except ValueError as exc:
            parser.error(str(exc))
        if args.command == "put":
            data = (
                sys.stdin.buffer.read()
                if args.file == "-"
                else Path(args.file).read_bytes()
            )
            manifest = store.put(args.name, data, policy)
            stored = sum(p.length for p in manifest.placements)
            print(
                f"stored {args.name!r}: {manifest.raw_len} raw -> {stored} bytes "
                f"on OSDs {[p.osd for p in manifest.placements]}"
            )
        elif args.command == "get":
            data = store.get(args.name, client)
            if args.out == "-":
                sys.stdout.buffer.write(data)
            else:
                Path(args.out).write_bytes(data)
                print(f"read {args.name!r}: {len(data)} bytes")
        elif args.command == "kill-osd":
            store.kill_osd(args.id)
            print(f"osd {args.id} is down")
        else:
            store.revive_osd(args.id)
            print(f"osd {args.id} is up")
    except (StoreError, ClientError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if client is not None:
            client.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
