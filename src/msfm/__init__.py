"""Storage function offload toolkit.

Compression and erasure coding as callable storage functions, runnable
in-process or behind a small framed TCP protocol, plus the object
store that uses them and a benchmark driver that compares the two
execution modes.

The names below are imported from their modules on first use (PEP
562), so that `python -m msfm.server` and the other module entry points
do not run a module that importing the package had already loaded.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "BenchReport": "bench",
    "BenchSpec": "bench",
    "CODEC_LZ": "codec",
    "CODEC_RLE0": "codec",
    "CODEC_STORED": "codec",
    "Client": "client",
    "ClientConfig": "client",
    "EcProfile": "gfec",
    "Frame": "protocol",
    "ObjectPolicy": "miniobj",
    "ObjectStore": "miniobj",
    "Server": "server",
    "ServerConfig": "server",
    "ShardSet": "gfec",
    "compress": "codec",
    "decode_frame": "protocol",
    "decompress": "codec",
    "default_registry": "server",
    "ec_decode": "gfec",
    "ec_encode": "gfec",
    "encode_frame": "protocol",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
