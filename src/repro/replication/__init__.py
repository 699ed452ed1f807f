"""repro.replication — fault-tolerant read replicas over WAL streaming.

The durability layer already writes every committed block to a CRC-framed
WAL; this package turns that log into a replication stream. The writer's
:class:`WalStreamer` tails its own WAL and ships each record over TCP to
any number of :class:`Replica` followers, which *re-execute* every block
and assert bit-identity of the resulting state root against the one
the writer sealed into the header — a diverged replica raises a typed
:class:`ReplicaDivergenceError` and resyncs itself from the writer's
newest snapshot rather than ever serving a wrong answer. Followers
reconnect through torn streams with jittered exponential backoff and
catch up from a snapshot when too far behind; a :class:`ReadProxy`
round-robins reads across healthy replicas (probed via the ``health``
RPC) and fails over to the writer so reads never stop.

``python -m repro.drill replication`` is the chaos drill: SIGKILL a
follower mid-stream under write load, restart it, and require digest
bit-identical reconvergence while the proxy answers every read.
"""

from .config import BackoffPolicy, ReplicationConfig
from .errors import (
    ReplicaDivergenceError,
    ReplicationError,
    StreamProtocolError,
)
from .proxy import ReadProxy
from .replica import Replica
from .streamer import WalStreamer

__all__ = [
    "BackoffPolicy",
    "ReadProxy",
    "Replica",
    "ReplicaDivergenceError",
    "ReplicationConfig",
    "ReplicationError",
    "StreamProtocolError",
    "WalStreamer",
]
