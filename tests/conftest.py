"""Fixtures shared by the serving tests."""

import socket
import threading

import pytest


@pytest.fixture
def hung_peer():
    """A listener that accepts connections and never answers on them.

    Yields ``(url, accepted)``; ``accepted`` lists the connections it has
    taken, all held open until the test ends."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    accepted: "list[socket.socket]" = []
    stop = threading.Event()

    def accept() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            accepted.append(conn)

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    host, port = listener.getsockname()[:2]
    try:
        yield f"http://{host}:{port}", accepted
    finally:
        stop.set()
        thread.join(timeout=5.0)
        listener.close()
        for conn in accepted:
            conn.close()
