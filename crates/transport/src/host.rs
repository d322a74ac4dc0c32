//! Server-side dispatch: one function mapping a decoded [`Request`] onto a
//! [`KosrService`] and blocking for its [`Response`], shared by the
//! in-process loopback and the TCP server (for every kind but queries,
//! which the TCP server completes without a waiting thread) so both speak
//! byte-for-byte the same protocol.

use std::sync::Arc;

use kosr_core::IndexedGraph;
use kosr_service::KosrService;

use crate::protocol::{Heartbeat, MemberCounts, RemoteResponse, Request, Response, SnapshotBlob};

/// Answers one request against `service`. Query requests block until the
/// service responds, so callers that overlap queries go around this arm:
/// the in-process transport keeps the service's own ticket asynchrony, the
/// TCP server hands the service a completion that writes the response
/// frame (`KosrService::submit_with`).
pub fn handle_request(service: &Arc<KosrService>, req: Request) -> Response {
    let query = |q, ctx| {
        Response::Query(
            service
                .submit_traced(q, ctx)
                .and_then(|t| t.wait())
                .map(RemoteResponse::from),
        )
    };
    match req {
        Request::Query(q) => query(q, None),
        Request::QueryTraced(q, ctx) => query(q, Some(ctx)),
        Request::Update(u) => Response::Update(service.apply_update(&u)),
        Request::Ping { since_seq } => {
            let journal = service.events();
            Response::Pong {
                heartbeat: Heartbeat {
                    epoch: service.index_epoch(),
                },
                next_seq: journal.next_seq(),
                events: since_seq
                    .map_or_else(Vec::new, |seq| journal.events_since(seq, None, None)),
            }
        }
        Request::MemberCounts => Response::MemberCounts(member_counts(service)),
        Request::Snapshot => {
            let (epoch, ig) = service.epoch_and_index();
            Response::Snapshot(SnapshotBlob {
                epoch,
                bytes: ig.encode_snapshot(),
            })
        }
        Request::Compact { through } => match service.advance_log_head(through) {
            Ok(head) => Response::Compacted { head },
            Err(head) => Response::CursorTooOld {
                cursor: through,
                head,
            },
        },
        Request::InstallSnapshot(blob) => match IndexedGraph::decode_snapshot(&blob.bytes) {
            Ok(ig) => {
                service.install_index(Arc::new(ig));
                Response::Install(Ok(Heartbeat {
                    epoch: service.index_epoch(),
                }))
            }
            // A refused blob leaves the replica serving its old index; the
            // typed rejection travels back so the supervisor can tell a
            // codec mismatch from channel trouble.
            Err(e) => Response::Install(Err(e)),
        },
    }
}

/// The member-count report fan-out planning consumes: epoch-stamped member
/// counts for every category the replica's inverted indexes know.
pub fn member_counts(service: &Arc<KosrService>) -> MemberCounts {
    let (epoch, ig) = service.epoch_and_index();
    let counts = (0..ig.inverted.num_categories())
        .map(|c| ig.inverted.members_of(kosr_graph::CategoryId(c as u32)) as u32)
        .collect();
    MemberCounts {
        epoch,
        num_vertices: ig.graph.num_vertices() as u32,
        counts,
    }
}
