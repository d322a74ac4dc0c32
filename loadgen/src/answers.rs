//! Correctness: every answer the fleet gives is compared — costs and
//! vertex tuples — with the unsharded canonical top-k of the same query
//! at the same world state.

use std::collections::HashMap;

use kosr_core::{IndexedGraph, Method, Query};
use kosr_gateway::json::{self, Json};

use crate::world::Template;

/// One route of an answer: cost and witness vertex tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Route cost.
    pub cost: u64,
    /// Witness vertices ⟨s, v1 … vj, t⟩.
    pub vertices: Vec<u32>,
}

/// The unsharded canonical top-k of `q` on `ig` — the oracle. Any method
/// yields the same canonical list; StarKOSR is the cheapest way there.
pub fn oracle(ig: &IndexedGraph, q: &Query) -> Vec<Route> {
    ig.run_canonical(q, Method::Sk, u64::MAX)
        .witnesses
        .into_iter()
        .map(|w| Route {
            cost: w.cost,
            vertices: w.vertices.iter().map(|v| v.0).collect(),
        })
        .collect()
}

fn route_of(v: &Json) -> Option<Route> {
    Some(Route {
        cost: v.get("cost")?.as_u64()?,
        vertices: v
            .get("vertices")?
            .as_array()?
            .iter()
            .map(|x| x.as_u64().and_then(|n| u32::try_from(n).ok()))
            .collect::<Option<Vec<u32>>>()?,
    })
}

/// The `routes` array of a `/v1/route`, `/v1/subscribe` or resync body.
pub fn routes_of(v: &Json) -> Option<Vec<Route>> {
    v.get("routes")?.as_array()?.iter().map(route_of).collect()
}

/// Parses a `/v1/route` response body down to its routes.
pub fn parse_routes(body: &[u8]) -> Option<Vec<Route>> {
    routes_of(&json::parse(body).ok()?)
}

/// One positional top-k diff, as the poll endpoint renders it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delta {
    /// The publish epoch the post-delta list is current at.
    pub epoch: u64,
    /// Length of the new list; ranks at or past it are removed.
    pub new_len: usize,
    /// `(rank, new route)` pairs in increasing rank order.
    pub changed: Vec<(usize, Route)>,
}

/// One drained `/v1/subscribe/{id}/poll` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Polled {
    /// Deltas to apply in order.
    Deltas(Vec<Delta>),
    /// Discard the replayed state and restart from this list.
    Resync { epoch: u64, routes: Vec<Route> },
}

/// Parses a poll response body.
pub fn parse_poll(body: &[u8]) -> Option<Polled> {
    let v = json::parse(body).ok()?;
    if v.get("resync")?.as_bool()? {
        return Some(Polled::Resync {
            epoch: v.get("epoch")?.as_u64()?,
            routes: routes_of(&v)?,
        });
    }
    let deltas = v
        .get("deltas")?
        .as_array()?
        .iter()
        .map(|d| {
            let changed = d
                .get("changed")?
                .as_array()?
                .iter()
                .map(|c| {
                    Some((
                        c.get("rank")?.as_u64()? as usize,
                        route_of(c.get("route")?)?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?;
            Some(Delta {
                epoch: d.get("epoch")?.as_u64()?,
                new_len: d.get("new_len")?.as_u64()? as usize,
                changed,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Polled::Deltas(deltas))
}

impl Polled {
    /// Replays this response onto a client's copy of the session's
    /// top-k: rank-wise replacement, appends past the end, truncation —
    /// or wholesale replacement on a resync.
    pub fn apply(&self, routes: &mut Vec<Route>) {
        match self {
            Polled::Resync { routes: fresh, .. } => *routes = fresh.clone(),
            Polled::Deltas(deltas) => {
                for delta in deltas {
                    for (rank, route) in &delta.changed {
                        if *rank < routes.len() {
                            routes[*rank] = route.clone();
                        } else {
                            routes.push(route.clone());
                        }
                    }
                    routes.truncate(delta.new_len);
                }
            }
        }
    }

    /// True when this response proves the session has seen publish
    /// `epoch`: a delta tagged with it, or a resync at or past it.
    pub fn carries(&self, epoch: u64) -> bool {
        match self {
            Polled::Resync { epoch: e, .. } => *e >= epoch,
            Polled::Deltas(deltas) => deltas.iter().any(|d| d.epoch == epoch),
        }
    }

    /// True when the long-poll timed out with nothing to deliver.
    pub fn is_empty(&self) -> bool {
        matches!(self, Polled::Deltas(d) if d.is_empty())
    }
}

/// Oracle answers memoised per distinct template, valid for one world
/// state: the owner clears it whenever the reference index changes.
#[derive(Default)]
pub struct OracleMemo {
    answers: HashMap<u32, Vec<Route>>,
    /// Seconds spent computing oracle answers (untimed work).
    pub spent_s: f64,
}

impl OracleMemo {
    /// Forgets every memoised answer (the world moved on).
    pub fn clear(&mut self) {
        self.answers.clear();
    }

    /// Makes sure every template in `wanted` has its oracle answer,
    /// computing the missing ones on two threads.
    pub fn fill(&mut self, ig: &IndexedGraph, templates: &[Template], wanted: &[u32]) {
        let started = std::time::Instant::now();
        let mut missing: Vec<u32> = wanted
            .iter()
            .copied()
            .filter(|t| !self.answers.contains_key(t))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        let halves = missing.split_at(missing.len() / 2);
        let solve = |ids: &[u32]| -> Vec<(u32, Vec<Route>)> {
            ids.iter()
                .map(|&t| (t, oracle(ig, &templates[t as usize].query)))
                .collect()
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(|| solve(halves.1));
            let mine = solve(halves.0);
            (mine, other.join().expect("oracle thread panicked"))
        });
        self.answers.extend(a.into_iter().chain(b));
        self.spent_s += started.elapsed().as_secs_f64();
    }

    /// The memoised answer for template `t` (after [`OracleMemo::fill`]).
    pub fn get(&self, t: u32) -> Option<&Vec<Route>> {
        self.answers.get(&t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(cost: u64, mid: u32) -> Route {
        Route {
            cost,
            vertices: vec![0, mid, 9],
        }
    }

    #[test]
    fn route_bodies_parse_to_costs_and_vertices() {
        let body = br#"{"k":2,"routes":[{"cost":7,"vertices":[0,4,9],"stops":[{"vertex":4,"category":1}]},{"cost":8,"vertices":[0,5,9],"stops":[]}],"shards":[0,1],"cached_shards":0,"latency_us":12}"#;
        assert_eq!(parse_routes(body), Some(vec![r(7, 4), r(8, 5)]));
        assert_eq!(parse_routes(br#"{"error":{"kind":"queue_full"}}"#), None);
        assert_eq!(parse_routes(b"not json"), None);
    }

    #[test]
    fn deltas_replay_like_the_server_side_apply() {
        let body = br#"{"resync":false,"deltas":[{"epoch":5,"new_len":3,"changed":[{"rank":0,"route":{"cost":1,"vertices":[0,1,9],"stops":[]}},{"rank":2,"route":{"cost":9,"vertices":[0,3,9],"stops":[]}}]},{"epoch":6,"new_len":1,"changed":[]}]}"#;
        let polled = parse_poll(body).expect("parses");
        assert!(polled.carries(5) && polled.carries(6) && !polled.carries(7));
        let mut routes = vec![r(4, 4), r(5, 5)];
        polled.apply(&mut routes);
        assert_eq!(routes, vec![r(1, 1)], "replace, append, then truncate to 1");
    }

    #[test]
    fn resync_replaces_and_covers_earlier_epochs() {
        let body =
            br#"{"resync":true,"epoch":12,"routes":[{"cost":3,"vertices":[0,2,9],"stops":[]}]}"#;
        let polled = parse_poll(body).expect("parses");
        assert!(polled.carries(12) && polled.carries(3) && !polled.carries(13));
        let mut routes = vec![r(4, 4), r(5, 5)];
        polled.apply(&mut routes);
        assert_eq!(routes, vec![r(3, 2)]);
        let idle = parse_poll(br#"{"resync":false,"deltas":[]}"#).unwrap();
        assert!(idle.is_empty());
    }
}
