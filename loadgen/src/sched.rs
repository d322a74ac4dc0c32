//! The open-loop scheduler: requests are *due* on a fixed timetable and
//! every latency is measured from the due time, so a stall charges the
//! requests queued behind it (no coordinated omission). The clock is a
//! trait so the accounting is unit-tested on a simulated one.

use std::time::{Duration, Instant};

/// Time as the scheduler sees it: microseconds since the phase began.
pub trait Clock {
    /// Microseconds since the phase began.
    fn now_us(&self) -> f64;
    /// Blocks until `t_us` (returns at once when already past).
    fn wait_until(&mut self, t_us: f64);
}

/// Wall clock: sleeps to just short of the target, then spins the rest —
/// a bare `sleep` overshoots by the timer slack, which would read as
/// generator lag.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose zero is `origin`.
    pub fn starting_at(origin: Instant) -> WallClock {
        WallClock { origin }
    }
}

const SPIN_US: f64 = 80.0;

impl Clock for WallClock {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn wait_until(&mut self, t_us: f64) {
        let ahead = t_us - self.now_us();
        if ahead > SPIN_US {
            std::thread::sleep(Duration::from_secs_f64((ahead - SPIN_US) / 1e6));
        }
        while self.now_us() < t_us {
            std::hint::spin_loop();
        }
    }
}

/// A fixed timetable: request `i` is due at `i * interval`.
#[derive(Clone, Copy, Debug)]
pub struct Timetable {
    /// Gap between consecutive due times, µs.
    pub interval_us: f64,
    /// Requests to send.
    pub count: usize,
}

impl Timetable {
    /// `rate_per_s` requests a second for `seconds`.
    pub fn at_rate(rate_per_s: f64, seconds: f64) -> Timetable {
        Timetable {
            interval_us: 1e6 / rate_per_s,
            count: (rate_per_s * seconds).floor() as usize,
        }
    }

    /// Due time of request `i`, µs into the phase.
    pub fn due_us(&self, i: usize) -> f64 {
        self.interval_us * i as f64
    }
}

/// One request's timing, µs into the phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the timetable wanted it sent.
    pub due_us: f64,
    /// When it was actually handed to the connection.
    pub sent_us: f64,
    /// When its response was complete.
    pub done_us: f64,
    /// How late the *generator* was: the send time past the later of the
    /// due time and the previous response — waiting for the previous
    /// response is the system's backlog, not the generator's lag.
    pub lag_us: f64,
    /// Whether the request succeeded.
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time — the open-loop latency.
    pub fn since_due_us(&self) -> f64 {
        self.done_us - self.due_us
    }
}

/// Drives one connection through `table`. `claim` hands out the next
/// unsent request (senders sharing a timetable share the counter behind
/// it, so a connection stuck on a slow answer does not hold up requests
/// another connection could carry); the sender waits for the request's
/// due time, calls `send(i)` (which blocks until the response and reports
/// success), and records the sample. A request whose due time is already
/// past goes out immediately — the backlog drains at the system's pace
/// and every queued request keeps its original due time.
pub fn run_open_loop(
    clock: &mut impl Clock,
    table: Timetable,
    mut claim: impl FnMut() -> usize,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<(usize, Sample)> {
    let mut samples = Vec::new();
    let mut free_at = 0.0f64;
    loop {
        let i = claim();
        if i >= table.count {
            return samples;
        }
        let due_us = table.due_us(i);
        clock.wait_until(due_us);
        let sent_us = clock.now_us();
        let ok = send(i);
        let done_us = clock.now_us();
        samples.push((
            i,
            Sample {
                due_us,
                sent_us,
                done_us,
                lag_us: sent_us - due_us.max(free_at),
                ok,
            },
        ));
        free_at = done_us;
    }
}

/// A `claim` for a sender that has the timetable to itself.
pub fn in_order() -> impl FnMut() -> usize {
    let mut next = 0;
    move || {
        next += 1;
        next - 1
    }
}

/// True when the backlog grew across a phase of `phase_us`: the last
/// third of the requests (in due order) went out later past their due
/// times than the first third did, by more than a twentieth of the phase.
/// Under overload the wait climbs for as long as the phase lasts; a
/// single slow answer, however slow, moves a third's mean far less.
pub fn backlog_grew(samples: &[Sample], phase_us: f64) -> bool {
    let third = samples.len() / 3;
    if third == 0 {
        return false;
    }
    let wait = |s: &[Sample]| s.iter().map(|x| x.sent_us - x.due_us).sum::<f64>() / s.len() as f64;
    wait(&samples[samples.len() - third..]) - wait(&samples[..third]) > phase_us / 20.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to; the send closure advances
    /// the same cell the scheduler reads.
    struct SimClock<'a>(&'a Cell<f64>);

    impl Clock for SimClock<'_> {
        fn now_us(&self) -> f64 {
            self.0.get()
        }
        fn wait_until(&mut self, t_us: f64) {
            self.0.set(self.0.get().max(t_us));
        }
    }

    /// Runs the scheduler against a simulated server whose request `i`
    /// takes `service(i)` µs.
    fn simulate(table: Timetable, service: impl Fn(usize) -> f64) -> Vec<Sample> {
        let now = Cell::new(0.0);
        run_open_loop(&mut SimClock(&now), table, in_order(), |i| {
            now.set(now.get() + service(i));
            true
        })
        .into_iter()
        .map(|(_, s)| s)
        .collect()
    }

    fn every_ms(count: usize) -> Timetable {
        Timetable {
            interval_us: 1000.0,
            count,
        }
    }

    #[test]
    fn timetable_spaces_requests_evenly() {
        let t = Timetable::at_rate(1000.0, 1.5);
        assert_eq!(t.count, 1500);
        assert_eq!(t.due_us(0), 0.0);
        assert_eq!(t.due_us(3), 3000.0);
        assert_eq!(
            Timetable::at_rate(3.0, 0.9).count,
            2,
            "partial requests are dropped"
        );
    }

    #[test]
    fn fast_server_is_timed_from_the_due_time() {
        let samples = simulate(every_ms(5), |_| 300.0);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.due_us, 1000.0 * i as f64);
            assert_eq!(s.sent_us, s.due_us, "never late");
            assert_eq!(s.since_due_us(), 300.0);
            assert_eq!(s.lag_us, 0.0);
        }
        assert!(!backlog_grew(&samples, 5000.0));
    }

    #[test]
    fn a_stall_charges_the_requests_queued_behind_it() {
        // Request 1 stalls for 3.5 intervals; the rest take 100 µs.
        let samples = simulate(every_ms(6), |i| if i == 1 { 3500.0 } else { 100.0 });
        // Request 1: due 1000, done 4500.
        assert_eq!(samples[1].since_due_us(), 3500.0);
        // Request 2 was due at 2000 but could only go at 4500: a closed
        // loop would report 100 µs; from the due time it is 2600.
        assert_eq!(samples[2].sent_us, 4500.0);
        assert_eq!(samples[2].since_due_us(), 2600.0);
        // Request 3 (due 3000) goes at 4600, request 4 (due 4000) at 4700.
        assert_eq!(samples[3].since_due_us(), 1700.0);
        assert_eq!(samples[4].since_due_us(), 800.0);
        // Request 5 (due 5000) is back on schedule.
        assert_eq!(samples[5].sent_us, 5000.0);
        assert_eq!(samples[5].since_due_us(), 100.0);
        // The late sends waited on the previous response, not on the
        // generator: lag stays zero throughout.
        assert!(samples.iter().all(|s| s.lag_us == 0.0));
    }

    #[test]
    fn senders_sharing_a_timetable_send_every_request_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let table = Timetable {
            interval_us: 50.0,
            count: 200,
        };
        let next = AtomicUsize::new(0);
        let origin = Instant::now();
        let sender = || {
            run_open_loop(
                &mut WallClock::starting_at(origin),
                table,
                || next.fetch_add(1, Ordering::Relaxed),
                |_| true,
            )
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(sender);
            (sender(), other.join().unwrap())
        });
        let mut seen: Vec<usize> = a.iter().chain(&b).map(|x| x.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
        for (i, s) in a.iter().chain(&b) {
            assert_eq!(s.due_us, table.due_us(*i));
            assert!(s.sent_us >= s.due_us, "never early");
        }
    }

    #[test]
    fn generator_lag_is_the_send_delay_the_system_did_not_cause() {
        // A clock that overshoots every wait by 40 µs, like timer slack.
        struct Sloppy(f64);
        impl Clock for Sloppy {
            fn now_us(&self) -> f64 {
                self.0
            }
            fn wait_until(&mut self, t_us: f64) {
                if t_us > self.0 {
                    self.0 = t_us + 40.0;
                }
            }
        }
        let table = Timetable {
            interval_us: 500.0,
            count: 4,
        };
        let samples = run_open_loop(&mut Sloppy(-1.0), table, in_order(), |_| true);
        assert!(samples.iter().all(|(_, s)| s.lag_us == 40.0), "{samples:?}");
    }

    #[test]
    fn overload_shows_as_a_growing_backlog() {
        let table = Timetable {
            interval_us: 100.0,
            count: 200,
        };
        // Service takes 1.5 intervals: every request falls further behind.
        let samples = simulate(table, |_| 150.0);
        assert!(backlog_grew(&samples, 20_000.0));
        assert!(samples.last().unwrap().since_due_us() > 9_000.0);
        // One 3 ms stall in an otherwise idle 20 ms phase is not overload.
        let stalled = simulate(table, |i| if i == 150 { 3000.0 } else { 10.0 });
        assert!(!backlog_grew(&stalled, 20_000.0));
    }
}
