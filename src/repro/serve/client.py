"""Socket client for :class:`~repro.serve.server.VMServer`.

:class:`SocketVMClient` speaks the server's unix-domain-socket protocol:
4-byte little-endian length-prefixed JSON frames, one request/response
pair per frame, many frames per connection.  In-process callers use
``VMServer.call`` / ``VMServer.submit`` directly.

Like ``VMServer.call``, it raises
:class:`~repro.serve.server.ServeError` on server-reported failures, so
callers handle in-process and remote errors uniformly.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Optional, Sequence

from .server import ServeError, _FRAME, _read_frame


class SocketVMClient:
    """Blocking client for the unix-domain-socket transport.

    One client owns one connection (one request stream); it is not
    thread-safe — give each requesting thread its own client, which is
    also how the server's per-stream ordering is defined.
    """

    def __init__(self, path: Any):
        self.path = str(path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.connect(self.path)

    def call(self, function: str, args: Sequence[Any] = (),
             tenant: Optional[str] = None) -> Any:
        payload = json.dumps({
            "function": function,
            "args": list(args),
            "tenant": tenant,
        }).encode()
        self._sock.sendall(_FRAME.pack(len(payload)) + payload)
        frame = _read_frame(self._sock)
        if frame is None:
            raise ServeError("server closed the connection")
        response = json.loads(frame)
        if not response.get("ok"):
            raise ServeError(response.get("error") or "request failed")
        return response.get("value")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "SocketVMClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
