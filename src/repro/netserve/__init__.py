"""repro.netserve — network serving over the PostgreSQL wire protocol.

The paper's OpenMLDB serves online feature requests to external
processes over SQL connections; this package is that boundary for the
reproduction.  :class:`NetServer` is a TCP frontend on plain sockets,
one thread per connection (a write runs on its own connection's
thread), speaking the PostgreSQL v3 protocol (simple and extended query
cycles), so any PostgreSQL driver — psycopg, JDBC, or the bundled
dependency-free :class:`NetClient` — can execute deployed feature
scripts as prepared statements:

    >>> server = NetServer(frontend, obs=obs)          # doctest: +SKIP
    >>> host, port = server.start()                    # doctest: +SKIP
    >>> client = NetClient(host, port)                 # doctest: +SKIP
    >>> client.prepare("s0", "EXECUTE fraud_features") # doctest: +SKIP
    >>> client.execute("s0", [1001, 42.5, 1700000000000]).rows
    ...                                                # doctest: +SKIP

Layering: :mod:`~repro.netserve.protocol` is pure wire framing,
:mod:`~repro.netserve.statements` classifies the accepted SQL surface,
:mod:`~repro.netserve.server` owns sockets and the request lifecycle,
:mod:`~repro.netserve.client` is the bundled test/bench client.  The
server composes with :class:`~repro.serving.FrontendServer` — admission
control, micro-batching, deadlines, and load shedding all apply to
network traffic unchanged, surfacing as SQLSTATE 53xxx/57014 errors.

See ``docs/network_protocol.md`` for message flows and the full
SQLSTATE mapping.
"""

from .client import NetClient, Result, ServerError
from .protocol import TYPE_OIDS, sqlstate_for
from .server import NetServer
from .statements import classify, parse_timeout_ms, split_statements

__all__ = ["NetServer", "NetClient", "Result", "ServerError",
           "TYPE_OIDS", "sqlstate_for", "classify",
           "parse_timeout_ms", "split_statements"]
