//! # kosr-transport
//!
//! The wire layer that takes `kosr-shard` past one process: a
//! length-prefixed binary [`protocol`] (request/response + update-publish
//! frames, one version stamped on every frame) behind the
//! [`ShardTransport`] trait,
//! with two implementations and a replica-fleet abstraction on top:
//!
//! | piece | role |
//! |---|---|
//! | [`protocol`] | the frames: queries, §IV-C updates, heartbeats, member counts, snapshots |
//! | [`InProcTransport`] | loopback through the full encode/decode path, plus a kill switch for fault tests |
//! | [`TcpTransport`] / [`TcpServer`] | each replica behind a socket, one multiplexed connection in front: frames written by whoever has them ready, no thread per request |
//! | [`ReplicaSet`] | N replicas per shard: health state, heartbeats, retry-on-next-replica failover |
//!
//! ## Consistency model
//!
//! Failover may only retry on **faults** (connection/protocol trouble —
//! [`TransportError::is_fault`]); deterministic service rejections
//! propagate, because every consistent replica would repeat them. Queries
//! are served exclusively by replicas marked [`ReplicaHealth::Healthy`]; a
//! replica that misses an update (or dies) is marked `Down` and must be
//! brought back through snapshot + update replay (the shard layer's
//! update-bus recovery) before serving again — so a stale replica can
//! never contaminate a merged top-k answer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod host;
mod inproc;
pub mod mux;
pub mod protocol;
mod replica;
mod tcp;

use crate::protocol::{Heartbeat, MemberCounts, RemoteResponse, SnapshotBlob};
pub use error::TransportError;
pub use host::{handle_request, member_counts};
pub use inproc::{InProcTransport, KillSwitch};
pub use replica::{ReplicaHealth, ReplicaSet, ReplicaSetSnapshot};
pub use tcp::{TcpServer, TcpTransport};

// Re-exported so transport users don't need direct sibling dependencies
// for the common types.
pub use kosr_core::Query;
pub use kosr_service::{ServiceError, TraceContext, Update, UpdateError, UpdateReceipt};

/// A pending remote response: redeem with [`TransportTicket::wait`].
///
/// Submissions return immediately so a router can fan a query out to many
/// shards before blocking on any of them.
#[must_use = "a transport ticket must be waited on to observe the response"]
pub struct TransportTicket(Box<dyn FnOnce() -> Result<RemoteResponse, TransportError> + Send>);

impl TransportTicket {
    /// Wraps the blocking tail of a submission.
    pub fn new(
        wait: impl FnOnce() -> Result<RemoteResponse, TransportError> + Send + 'static,
    ) -> TransportTicket {
        TransportTicket(Box::new(wait))
    }

    /// A ticket already resolved (e.g. the frame was refused up front).
    pub fn ready(result: Result<RemoteResponse, TransportError>) -> TransportTicket {
        TransportTicket(Box::new(move || result))
    }

    /// Blocks until the replica answers (or the channel faults).
    pub fn wait(self) -> Result<RemoteResponse, TransportError> {
        (self.0)()
    }
}

impl std::fmt::Debug for TransportTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TransportTicket(..)")
    }
}

/// One shard replica's wire surface: everything `kosr-shard`'s router and
/// update bus need, abstracted over *where* the replica runs.
///
/// All methods map 1:1 onto [`protocol`] frames; implementations must
/// route through the codec so in-process and remote deployments exercise
/// identical bytes.
pub trait ShardTransport: Send + Sync {
    /// Sends a query frame; the ticket blocks for the response frame.
    fn submit(&self, query: Query) -> TransportTicket {
        self.submit_traced(query, None)
    }

    /// Sends a query frame carrying `ctx` when it is present and sampled;
    /// the response then returns the replica-side spans.
    fn submit_traced(&self, query: Query, ctx: Option<TraceContext>) -> TransportTicket;

    /// Sends an update-publish frame and waits for the receipt.
    fn apply_update(&self, update: &Update) -> Result<UpdateReceipt, TransportError>;

    /// Heartbeat: liveness + the replica's index epoch.
    fn ping(&self) -> Result<Heartbeat, TransportError>;

    /// Member counts per category (fan-out planning reads these).
    fn member_counts(&self) -> Result<MemberCounts, TransportError>;

    /// Pulls an index snapshot (cold-replica join).
    fn snapshot(&self) -> Result<SnapshotBlob, TransportError>;

    /// Pushes a snapshot *into* the replica, replacing its served index —
    /// the supervisor's refresh path for replicas too far behind the
    /// update log to replay. A refused blob is a typed
    /// [`TransportError::Snapshot`] and leaves the old index serving.
    fn install_snapshot(&self, blob: &SnapshotBlob) -> Result<Heartbeat, TransportError>;

    /// Tells the replica the upstream update log was compacted below
    /// `through`; returns the replica's recorded (monotone) head. A
    /// `through` behind the recorded head is the typed
    /// [`TransportError::CursorTooOld`].
    fn compact(&self, through: u64) -> Result<u64, TransportError>;

    /// Heartbeat that also drains the replica's local lifecycle journal
    /// from `since_seq`: returns the liveness report, the journal's next
    /// sequence (the cursor for the following probe) and the drained
    /// events.
    fn ping_events(
        &self,
        since_seq: u64,
    ) -> Result<(Heartbeat, u64, Vec<kosr_service::Event>), TransportError>;
}
