//! Shared router/bus state: the epoch-scoped fan-out cache and the update
//! log that replica recovery replays from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use kosr_service::Update;
use kosr_transport::protocol::MemberCounts;
use kosr_transport::{ReplicaSet, TransportError};

/// Per-shard cache of the member-count reports fan-out planning consumes.
///
/// A report is valid for the index epoch it was read at; the update bus
/// drops every entry when a membership update lands (edge updates leave
/// counts untouched, so cached entries survive them). Between updates, any
/// number of queries plan against the cached counts without touching a
/// transport — the regression suite counts the reads.
pub(crate) struct FanoutCache {
    /// `Arc` so the hot path hands out a pointer clone, not a copy of the
    /// whole per-category count vector.
    entries: Vec<Mutex<Option<Arc<MemberCounts>>>>,
    reads: AtomicU64,
}

impl FanoutCache {
    pub(crate) fn new(num_shards: usize) -> FanoutCache {
        FanoutCache {
            entries: (0..num_shards).map(|_| Mutex::new(None)).collect(),
            reads: AtomicU64::new(0),
        }
    }

    /// Shard `j`'s counts, from cache or (on miss) read through the
    /// replica set with failover.
    pub(crate) fn get(
        &self,
        j: usize,
        set: &ReplicaSet,
    ) -> Result<Arc<MemberCounts>, TransportError> {
        let mut slot = self.entries[j].lock().unwrap();
        if let Some(mc) = slot.as_ref() {
            return Ok(Arc::clone(mc));
        }
        let mc = Arc::new(set.call_with_failover(|t| t.member_counts())?);
        self.reads.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&mc));
        Ok(mc)
    }

    /// Drops every cached report (membership counts changed somewhere).
    pub(crate) fn invalidate_all(&self) {
        for e in &self.entries {
            *e.lock().unwrap() = None;
        }
    }

    /// Transport reads performed so far (cache misses).
    pub(crate) fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

/// The bus's ordered update history plus, per replica, how much of it that
/// replica has applied. A replica whose cursor is behind is inconsistent
/// and must not serve; recovery replays the missing suffix.
///
/// Two mutexes, two jobs:
///
/// * **publisher ordering** ([`UpdateLog::publisher`]) is held **across**
///   the replica calls of a publish / recover / compact (and around the
///   cursor writes of a refresh or a cold install), so log order, cursor
///   advances and marking replicas healthy never interleave between two
///   writers of the log;
/// * **cursor/tail state** ([`UpdateLog::state`]) guards the data itself
///   and is only ever held for a few loads and stores — never across a
///   transport call — so the query path, `log_len` and the supervisor read
///   it without waiting for a publish.
///
/// While a publish is in flight a reader therefore sees `cursor < tail`
/// for every replica whose apply has not been accounted yet (the entry is
/// pushed before the first replica call; cursors advance once the fan-out
/// has returned). Lock order is publisher → state; the state lock is
/// never held while taking the publisher's.
///
/// The log is **compacting**: sequence numbers are absolute (the `seq`th
/// publish keeps seq number `seq` forever), but the supervisor drops the
/// prefix below the fleet's minimum replayable cursor once the live
/// portion exceeds its watermark. A replica whose cursor predates the
/// head can no longer be replayed — recovery reports the typed
/// `CursorTooOld` and the supervisor refreshes it by snapshot instead.
/// The invariant every path preserves: **head ≤ min cursor of every
/// replica that will ever be replayed** (stranded cursors are allowed,
/// but only for replicas the refresh path can still reach through a
/// healthy sibling).
pub(crate) struct UpdateLog {
    publishing: Mutex<()>,
    state: Mutex<LogInner>,
}

pub(crate) struct LogInner {
    /// Absolute sequence number of `entries[0]`: everything below it has
    /// been compacted away.
    head: usize,
    /// The live suffix of the published updates (base form), in publish
    /// order. Validated no-ops are logged too: replaying them is harmless
    /// and keeps cursors dense.
    entries: Vec<Update>,
    /// `cursors[shard][replica]`: absolute applied prefix length.
    pub cursors: Vec<Vec<usize>>,
}

impl LogInner {
    /// The absolute sequence number one past the newest entry.
    pub(crate) fn tail(&self) -> usize {
        self.head + self.entries.len()
    }

    /// The oldest absolute sequence still replayable.
    pub(crate) fn head(&self) -> usize {
        self.head
    }

    /// Entries currently held live (tail − head).
    pub(crate) fn live_len(&self) -> usize {
        self.entries.len()
    }

    /// Appends an update; returns the tail after the append (the cursor a
    /// replica holds once it has applied this entry).
    pub(crate) fn push(&mut self, update: Update) -> usize {
        self.entries.push(update);
        self.tail()
    }

    /// Drops the newest entry — the unlog path for a publish every
    /// consistent replica deterministically refused.
    pub(crate) fn pop_newest(&mut self) {
        self.entries.pop();
    }

    /// The live entries from absolute sequence `from` (clamped to head).
    pub(crate) fn suffix(&self, from: usize) -> &[Update] {
        &self.entries[from.saturating_sub(self.head).min(self.entries.len())..]
    }

    /// Advances the head to `target` (absolute), dropping everything
    /// below; returns how many entries were dropped. A target at or below
    /// the current head is a no-op.
    pub(crate) fn compact_to(&mut self, target: usize) -> usize {
        let drop = target.saturating_sub(self.head).min(self.entries.len());
        if drop > 0 {
            self.entries.drain(..drop);
            self.head += drop;
        }
        drop
    }
}

impl UpdateLog {
    pub(crate) fn new(replicas_per_shard: &[usize]) -> UpdateLog {
        UpdateLog {
            publishing: Mutex::new(()),
            state: Mutex::new(LogInner {
                head: 0,
                entries: Vec::new(),
                cursors: replicas_per_shard.iter().map(|&n| vec![0; n]).collect(),
            }),
        }
    }

    /// Enters the publisher critical section (see the type docs): hold
    /// the guard across the replica calls whose cursor effects must not
    /// interleave with another writer's.
    pub(crate) fn publisher(&self) -> MutexGuard<'_, ()> {
        self.publishing.lock().expect("update log poisoned")
    }

    /// The cursor/tail state. Short-held by contract: never keep the
    /// guard across a transport call.
    pub(crate) fn state(&self) -> MutexGuard<'_, LogInner> {
        self.state.lock().expect("update log poisoned")
    }

    /// The tail once no publish is in flight: every healthy replica has
    /// applied at least this prefix, which is what makes it a safe cursor
    /// for a snapshot pulled from one of them afterwards. Waits for the
    /// publisher section — control plane only.
    pub(crate) fn settled_tail(&self) -> usize {
        let _publishing = self.publisher();
        self.state().tail()
    }
}
