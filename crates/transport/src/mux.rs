//! The demultiplexing core of a multiplexed connection: per-request
//! **completion slots** keyed by frame id.
//!
//! A connection stamps every outgoing request with a fresh monotone id and
//! registers a slot; the reader thread routes each incoming response to
//! the slot with the matching id. The table enforces the three properties
//! the mux acceptance suite hammers:
//!
//! * **no misdelivery** — a response completes exactly the slot whose id
//!   it carries; ids that are unknown (stray), already completed
//!   (duplicate) or already abandoned (deadline passed) are dropped on the
//!   floor, never delivered to another caller;
//! * **no convoy** — one wedged request (slot never completed) does not
//!   block any other slot: waits are independent, and a per-request
//!   deadline turns the wedge into a connection *fault* for that request
//!   alone, so failover can route around the replica while unrelated
//!   in-flight queries keep streaming on the same connection;
//! * **no leak past death** — when the connection dies, `fail_all` fails
//!   every pending slot with the fatal error and poisons the table so
//!   later registrations fail fast instead of hanging.

use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::Response;
use crate::TransportError;

type Slot = mpsc::Sender<Result<Response, TransportError>>;

struct Inner {
    slots: HashMap<u64, Slot>,
    /// Set once the connection is dead; registrations after that fail
    /// immediately with a clone of the fatal error.
    dead: Option<TransportError>,
}

/// The completion-slot table of one multiplexed connection.
pub struct DemuxTable {
    inner: Mutex<Inner>,
}

impl Default for DemuxTable {
    fn default() -> DemuxTable {
        DemuxTable::new()
    }
}

impl DemuxTable {
    /// An empty, live table.
    pub fn new() -> DemuxTable {
        DemuxTable {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                dead: None,
            }),
        }
    }

    /// Registers a slot for frame id `id` and returns its completion
    /// handle. On a dead table the handle is already failed.
    ///
    /// Ids are chosen by the connection's monotone counter, so a live
    /// duplicate registration is a caller bug; the newer slot wins and the
    /// abandoned one reports a connection fault.
    pub fn register(self: &Arc<Self>, id: u64) -> Completion {
        let (tx, rx) = mpsc::channel();
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(err) = &inner.dead {
                let _ = tx.send(Err(err.clone()));
            } else {
                inner.slots.insert(id, tx);
            }
        }
        Completion {
            id,
            rx,
            table: Arc::clone(self),
            registered: Instant::now(),
        }
    }

    /// Routes `result` to the slot registered under `id`. Returns `false`
    /// when no such slot exists (stray, duplicate or abandoned id) — the
    /// response is discarded rather than misdelivered.
    pub fn complete(&self, id: u64, result: Result<Response, TransportError>) -> bool {
        let slot = self.inner.lock().unwrap().slots.remove(&id);
        match slot {
            // A send can only fail when the waiter gave up (deadline) in
            // the window between our remove and its drop — equivalent to a
            // dropped response, and still not a misdelivery.
            Some(tx) => tx.send(result).is_ok(),
            None => false,
        }
    }

    /// Fails every pending slot with `err` and poisons the table: the
    /// connection is dead, and every registration from now on fails fast.
    pub fn fail_all(&self, err: TransportError) {
        let slots = {
            let mut inner = self.inner.lock().unwrap();
            inner.dead = Some(err.clone());
            std::mem::take(&mut inner.slots)
        };
        for (_, tx) in slots {
            let _ = tx.send(Err(err.clone()));
        }
    }

    /// `true` once [`DemuxTable::fail_all`] has run.
    pub fn is_dead(&self) -> bool {
        self.inner.lock().unwrap().dead.is_some()
    }

    /// Number of registered, uncompleted slots.
    pub fn pending(&self) -> usize {
        self.inner.lock().unwrap().slots.len()
    }
}

/// One request's pending response on a multiplexed connection.
#[must_use = "a completion must be waited on to observe the response"]
pub struct Completion {
    id: u64,
    rx: mpsc::Receiver<Result<Response, TransportError>>,
    table: Arc<DemuxTable>,
    registered: Instant,
}

impl Completion {
    /// The frame id this completion waits for.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives or `deadline` (measured from
    /// registration) passes. A deadline expiry abandons the slot and
    /// reports a *connection fault* — the caller's failover path treats
    /// the wedged replica like a dead one — without touching any other
    /// slot on the connection.
    pub fn wait(self, deadline: Duration) -> Result<Response, TransportError> {
        let remaining = deadline.saturating_sub(self.registered.elapsed());
        match self.rx.recv_timeout(remaining) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Deregister so a late response is discarded, not leaked.
                self.table.inner.lock().unwrap().slots.remove(&self.id);
                Err(TransportError::Connection(format!(
                    "request {} exceeded its {deadline:?} deadline",
                    self.id
                )))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(TransportError::Connection(
                "connection closed before the response frame".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Heartbeat;

    fn pong(epoch: u64) -> Response {
        Response::Pong {
            heartbeat: Heartbeat { epoch },
            next_seq: 0,
            events: Vec::new(),
        }
    }

    fn epoch_of(resp: Response) -> u64 {
        match resp {
            Response::Pong { heartbeat, .. } => heartbeat.epoch,
            other => panic!("not a pong: {other:?}"),
        }
    }

    #[test]
    fn out_of_order_completion_reaches_the_right_slots() {
        let table = Arc::new(DemuxTable::new());
        let a = table.register(1);
        let b = table.register(2);
        let c = table.register(3);
        assert!(table.complete(2, Ok(pong(22))));
        assert!(table.complete(3, Ok(pong(33))));
        assert!(table.complete(1, Ok(pong(11))));
        assert_eq!(epoch_of(c.wait(Duration::from_secs(1)).unwrap()), 33);
        assert_eq!(epoch_of(a.wait(Duration::from_secs(1)).unwrap()), 11);
        assert_eq!(epoch_of(b.wait(Duration::from_secs(1)).unwrap()), 22);
        assert_eq!(table.pending(), 0);
    }

    #[test]
    fn strays_and_duplicates_are_discarded_not_misdelivered() {
        let table = Arc::new(DemuxTable::new());
        let a = table.register(1);
        assert!(!table.complete(99, Ok(pong(0))), "stray id");
        assert!(table.complete(1, Ok(pong(1))));
        assert!(!table.complete(1, Ok(pong(2))), "duplicate id");
        assert_eq!(epoch_of(a.wait(Duration::from_secs(1)).unwrap()), 1);
    }

    #[test]
    fn wedged_slot_times_out_without_stalling_others() {
        let table = Arc::new(DemuxTable::new());
        let wedged = table.register(1);
        let fine = table.register(2);
        assert!(table.complete(2, Ok(pong(2))));
        // The unwedged slot answers immediately…
        assert_eq!(epoch_of(fine.wait(Duration::from_secs(1)).unwrap()), 2);
        // …while the wedged one faults at its own deadline.
        let err = wedged.wait(Duration::from_millis(5)).unwrap_err();
        assert!(err.is_fault(), "{err:?}");
        assert_eq!(table.pending(), 0, "abandoned slot deregistered");
        // A late response for the abandoned id is discarded.
        assert!(!table.complete(1, Ok(pong(1))));
    }

    #[test]
    fn fail_all_fails_pending_and_poisons_later_registrations() {
        let table = Arc::new(DemuxTable::new());
        let a = table.register(1);
        table.fail_all(TransportError::Connection("died".into()));
        assert!(a.wait(Duration::from_secs(1)).unwrap_err().is_fault());
        assert!(table.is_dead());
        let late = table.register(2);
        assert!(late.wait(Duration::from_secs(1)).unwrap_err().is_fault());
        assert_eq!(table.pending(), 0);
    }
}
