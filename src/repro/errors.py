"""Exception hierarchy for the OpenMLDB reproduction.

Every error raised by the library derives from :class:`OpenMLDBError` so
applications can catch a single base class.  Sub-classes mirror the major
subsystems of the paper: SQL front end, plan generation, execution, storage,
and memory governance.
"""

from __future__ import annotations


class OpenMLDBError(Exception):
    """Base class for all errors raised by this library."""


class SQLError(OpenMLDBError):
    """Base class for errors in the SQL front end."""


class LexError(SQLError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SQLError):
    """Raised when the parser cannot build an AST from the token stream."""


class PlanError(OpenMLDBError):
    """Raised when a logical or physical plan cannot be constructed."""


class CompileError(OpenMLDBError):
    """Raised when plan compilation to executable closures fails."""


class ExecutionError(OpenMLDBError):
    """Raised when a compiled plan fails at run time."""


class SchemaError(OpenMLDBError):
    """Raised for schema definition or validation problems."""


class TypeMismatchError(SchemaError):
    """Raised when a value does not match its declared column type."""


class StorageError(OpenMLDBError):
    """Base class for storage-engine errors."""


class EncodingError(StorageError):
    """Raised when a row cannot be encoded or decoded."""


class TableNotFoundError(StorageError):
    """Raised when a referenced table does not exist."""

    def __init__(self, name: str) -> None:
        super().__init__(f"table not found: {name!r}")
        self.table_name = name


class TableExistsError(StorageError):
    """Raised when creating a table whose name is already taken."""

    def __init__(self, name: str) -> None:
        super().__init__(f"table already exists: {name!r}")
        self.table_name = name


class IndexNotFoundError(StorageError):
    """Raised when no index matches a requested (key, ts) access path."""


class RpcTimeoutError(StorageError):
    """Raised when a simulated cluster RPC exceeds its per-call timeout.

    Produced by the fault injector (partitioned or slowed tablets); the
    nameserver's retry layer treats it like any other tablet failure and
    re-routes after failover.
    """


class ShardMovedError(StorageError):
    """Raised when a routed call lands on a retired partition.

    The control plane (``repro.ctlplane``) splits, merges, and migrates
    partitions online; a caller that resolved a partition id just before
    the routing table changed may still address the old shard.  The
    error is a *redirect*, not a failure: routing layers catch it,
    re-resolve the key against the fresh routing table, and retry — an
    in-flight request is never dropped by a topology change.
    """


class DeploymentError(OpenMLDBError):
    """Raised for invalid deployment operations (deploy/undeploy/request)."""


class DeploymentNotFoundError(DeploymentError):
    """Raised when a referenced deployment does not exist."""

    def __init__(self, name: str) -> None:
        super().__init__(f"deployment not found: {name!r}")
        self.deployment_name = name


class MemoryLimitExceededError(OpenMLDBError):
    """Raised when a write would push a tablet past ``max_memory_mb``.

    Mirrors the paper's memory-isolation behaviour (Section 8.2): writes
    fail but reads continue to be served.
    """


class ConsistencyError(OpenMLDBError):
    """Raised when online and offline feature results diverge."""


class ServingError(OpenMLDBError):
    """Base class for request-path serving-frontend errors.

    Deliberately *not* a :class:`StorageError`: the cluster's retry layer
    treats storage errors as tablet failures (suspect + re-route), while
    serving errors describe the request's own lifecycle — shed by
    admission control or out of deadline budget — and must surface to
    the caller immediately instead of triggering failover.
    """


class OverloadError(ServingError):
    """Raised when admission control sheds a request (Section 8.2's
    graceful-degradation contract applied to the request path).

    A shed request was never executed; the caller may retry later or
    degrade.  ``reason`` says which bound rejected it: ``"queue_full"``,
    ``"inflight"`` (concurrency limiter), or ``"draining"``/``"closed"``.
    """

    def __init__(self, message: str, deployment: str = "",
                 reason: str = "queue_full") -> None:
        super().__init__(message)
        self.deployment = deployment
        self.reason = reason


class TenantBudgetError(OverloadError):
    """Raised when a tenant exceeds its rate or memory budget.

    The control plane's tenant registry (``repro.ctlplane.registry``)
    gives each tenant a request-rate token bucket and a memory budget;
    admission control sheds the *offending tenant's* traffic with this
    error while other tenants keep their latency budgets.  ``reason``
    is ``"tenant_rate"`` (token bucket empty) or ``"tenant_memory"``
    (write would exceed the memory budget).  As an
    :class:`OverloadError` it crosses the network frontend as a
    retryable class-53 SQLSTATE (``53400``).
    """

    def __init__(self, message: str, tenant: str = "",
                 deployment: str = "", reason: str = "tenant_rate"
                 ) -> None:
        super().__init__(message, deployment=deployment, reason=reason)
        self.tenant = tenant


class DeadlineExceededError(ServingError):
    """Raised when a request's deadline budget is exhausted.

    The deadline propagates from the serving frontend down into every
    routed RPC's per-call timeout, so a request never retries past its
    own budget — it fails here instead of holding a worker hostage.
    """


class ProtocolError(OpenMLDBError):
    """Raised when a network peer violates the wire protocol.

    Used by :mod:`repro.netserve` for malformed, truncated, or
    oversized PostgreSQL-protocol frames.  Maps to SQLSTATE ``08P01``
    (protocol_violation); the server reports it once and then closes
    the connection, because a framing error leaves no safe
    resynchronisation point mid-stream.
    """
