"""Storage function offload toolkit.

Compression and erasure coding as callable storage functions, runnable
in-process or behind a small framed TCP protocol, plus the object
store that uses them and a benchmark driver that compares the two
execution modes.

The package exports what a library user needs: the client, the object
store and its policy, and the server with its function registry.  The
codec, erasure-coding, wire-format and benchmark names are imported
from their own modules (`msfm.codec`, `msfm.gfec`, `msfm.protocol`,
`msfm.bench`).

The exported names are imported from their modules on first use (PEP
562), so that `python -m msfm.server` and the other module entry points
do not run a module that importing the package had already loaded.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "Client": "client",
    "ClientConfig": "client",
    "ObjectPolicy": "miniobj",
    "ObjectStore": "miniobj",
    "Server": "server",
    "ServerConfig": "server",
    "default_registry": "server",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
