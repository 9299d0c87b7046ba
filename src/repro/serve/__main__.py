"""``python -m repro.serve`` - the standalone HTTP serving CLI.

Serves registry models over HTTP/1.1 (JSON and the binary tensor wire
of :mod:`repro.serve.wire`), with backend selection (``--backend
--shards``; the thread backend runs one worker per usable core, and
every shard loads every model) and admission control
(``--max-inflight --max-queued-mb``).

Delegates to :func:`repro.serve.httpd.main` (this entry avoids the
runpy double-import warning that ``python -m repro.serve.httpd`` prints
because the package's ``__init__`` already imports that module).  The
``__main__`` guard matters: shard worker processes re-import the parent
main module under ``__mp_main__`` and must not start a second server.
"""

from repro.serve.httpd import main

if __name__ == "__main__":
    main()
