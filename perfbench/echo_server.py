"""A trivial asyncio HTTP server: the serve workload's host-speed reference.

Usage::

    python3 perfbench/echo_server.py

It prints the port it listens on (127.0.0.1), then answers every request
with the same small JSON body until it is terminated.  The serve workload
times round trips to it from its own client between chunks of requests to
``repro serve``: both paths are two Python processes exchanging HTTP over
loopback, so the round trip slows with the host the same way, while no
change to the program can move it.
"""

from __future__ import annotations

import asyncio

BODY = b'{"ok": true}'
RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(BODY), BODY)
)


async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            await reader.readexactly(length)
            writer.write(RESPONSE)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(main())
