//! A single-threaded open-loop query generator.
//!
//! Query `i` is due at `start + i / rate`, whatever happened to query
//! `i - 1`. The generator waits for the due time, issues the query, and times
//! it from the due time, not from when it was issued: a slow answer delays
//! the queries behind it, and that wait counts against them. This is what
//! keeps a stall from hiding itself (coordinated omission). The generator also
//! records how late it issued each query that found it idle — the
//! generator's own lateness, with no queueing in it.
//!
//! Each answer is also timed on the generator thread's CPU clock, so that
//! [`PhaseOutcome::queue_latencies`] can replay the same schedule as a
//! queue whose answers take that CPU time, in reference seconds (see
//! `cpu.rs`). That latency keeps the wait behind earlier answers but leaves
//! out how the host's load slowed or stopped the thread. The generator
//! calibrates in its idle gaps, so each answer is converted at the host's
//! speed of the moment.

use std::time::{Duration, Instant};

use crate::cpu;

/// What one open-loop phase measured.
#[derive(Debug, Default, Clone)]
pub struct PhaseOutcome {
    /// Latency of every issued query from its due time, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// CPU time of the generator thread in `serve(i)`, nanoseconds.
    pub service_ns: Vec<u64>,
    /// The offered rate, queries per second.
    pub rate: f64,
    /// The generator thread's factor from CPU time to reference seconds
    /// (`cpu::speed`) when `serve(i)` ran: the latest calibration.
    pub speeds: Vec<f64>,
    /// Issue lateness of the queries that found the generator idle, ns.
    pub idle_late_ns: Vec<u64>,
    /// Queries the service refused (answered `None`).
    pub refused: u64,
    /// Queries refused or slower than the latency limit.
    pub missed: u64,
    /// How far behind schedule each query was issued, ns.
    pub backlog_ns: Vec<u64>,
}

impl PhaseOutcome {
    /// Queries issued.
    pub fn issued(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Every query's latency from its due time, replayed on the CPU clock
    /// in reference seconds: query `i`, due at `i / rate`, ends at
    /// `max(due_i, end_{i-1}) + speed_i * service_i`. Nanoseconds.
    pub fn queue_latencies(&self) -> Vec<u64> {
        let interval_ns = 1e9 / self.rate;
        let mut end = 0.0f64;
        self.service_ns
            .iter()
            .zip(&self.speeds)
            .enumerate()
            .map(|(index, (&service, &speed))| {
                let due = index as f64 * interval_ns;
                end = end.max(due) + speed * service as f64;
                (end - due) as u64
            })
            .collect()
    }
}

/// Spins until `offset` after `start`. The generator never sleeps: a sleeping
/// thread wakes up late by however long the host takes to schedule it, and
/// that lateness would be charged to the service.
pub fn wait_until(start: Instant, offset: Duration) {
    while start.elapsed() < offset {
        std::hint::spin_loop();
    }
}

/// The generator calibrates when the next query is due at least this far
/// off and its last calibration is at least `RECALIBRATE` old.
const CALIBRATION_GAP: Duration = Duration::from_millis(5);
const RECALIBRATE: Duration = Duration::from_millis(50);

/// Drives queries `0, 1, 2, …` at `rate` per second until `stop(i)` says
/// query `i` is not to be issued. `serve(i)` answers query `i` and returns
/// `None` if the service refused it; `keep(i, answer)` receives each answer
/// after its latency has been taken, for bookkeeping that must not count
/// against the service.
pub fn drive<T>(
    rate: f64,
    limit: Duration,
    mut stop: impl FnMut(u64, Duration) -> bool,
    mut serve: impl FnMut(u64) -> Option<T>,
    mut keep: impl FnMut(u64, T),
) -> PhaseOutcome {
    let interval = 1.0 / rate;
    let limit_ns = limit.as_nanos() as u64;
    let mut outcome = PhaseOutcome {
        rate,
        ..PhaseOutcome::default()
    };
    let mut speed = cpu::speed();
    let start = Instant::now();
    let mut calibrated = Duration::ZERO;
    let mut previous_done = Duration::ZERO;
    let mut index = 0u64;
    loop {
        let due = Duration::from_secs_f64(index as f64 * interval);
        if stop(index, due) {
            break;
        }
        let now = start.elapsed();
        if now + CALIBRATION_GAP <= due && now >= calibrated + RECALIBRATE {
            speed = cpu::speed();
            calibrated = start.elapsed();
        }
        wait_until(start, due);
        let issued = start.elapsed();
        if previous_done <= due {
            outcome.idle_late_ns.push((issued - due).as_nanos() as u64);
        }
        outcome.backlog_ns.push((issued - due).as_nanos() as u64);
        let (answer, service) = cpu::timed(|| serve(index));
        let done = start.elapsed();
        let latency = (done - due).as_nanos() as u64;
        outcome.latencies_ns.push(latency);
        outcome.service_ns.push(service.as_nanos() as u64);
        outcome.speeds.push(speed);
        match answer {
            Some(answer) => {
                if latency > limit_ns {
                    outcome.missed += 1;
                }
                keep(index, answer);
            }
            None => {
                outcome.refused += 1;
                outcome.missed += 1;
            }
        }
        previous_done = done;
        index += 1;
    }
    outcome
}

/// Whether an open-loop probe at some rate kept up: at most 1% of its
/// queries missed the limit (its p99 met it) and the backlog did not grow —
/// over the probe's last tenth of queries, the generator was on average less
/// than half the limit behind schedule.
pub fn kept_up(outcome: &PhaseOutcome, limit: Duration) -> bool {
    let limit_ns = limit.as_nanos() as u64;
    let tail = &outcome.backlog_ns[outcome.backlog_ns.len() * 9 / 10..];
    let tail_backlog = tail.iter().sum::<u64>() / tail.len().max(1) as u64;
    outcome.refused == 0 && outcome.missed * 100 <= outcome.issued() && tail_backlog <= limit_ns / 2
}

/// The highest offered rate at which `probe(rate)` keeps up: a geometric
/// walk from `guess` to bracket the answer, then bisection in log space.
pub fn max_rate(guess: f64, steps: usize, mut probe: impl FnMut(f64) -> bool) -> f64 {
    const FACTOR: f64 = 1.25;
    let guess = guess.max(1.0);
    let (mut lo, mut hi);
    if probe(guess) {
        lo = guess;
        hi = guess * FACTOR;
        while probe(hi) {
            lo = hi;
            hi *= FACTOR;
            if hi > 1e7 {
                return lo;
            }
        }
    } else {
        hi = guess;
        lo = guess / FACTOR;
        while !probe(lo) {
            hi = lo;
            lo /= FACTOR;
            if lo < 1.0 {
                return lo;
            }
        }
    }
    for _ in 0..steps {
        let mid = (lo * hi).sqrt();
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_counts_against_the_queries_behind_it() {
        // Ten queries due every millisecond; the first stalls for 20 ms.
        // Timed from their due times, the ones queued behind the stall are
        // late too — a closed loop would have reported them as fast.
        let outcome = drive(
            1_000.0,
            Duration::from_millis(5),
            |i, _| i >= 10,
            |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Some(())
            },
            |_, _| {},
        );
        assert_eq!(outcome.issued(), 10);
        assert!(outcome.missed >= 5, "missed {}", outcome.missed);
        assert!(outcome.latencies_ns[1] > 15_000_000);
    }

    #[test]
    fn queue_latencies_wait_behind_busy_answers_but_not_behind_sleep() {
        // Queries due every millisecond: query 0 spins for 20 ms of CPU,
        // query 30 (due once that backlog has cleared) sleeps for 20 ms.
        let spin = |d: Duration| {
            let started = cpu::now();
            while cpu::now() - started < d {
                std::hint::spin_loop();
            }
        };
        let outcome = drive(
            1_000.0,
            Duration::from_millis(100),
            |i, _| i >= 32,
            |i| {
                match i {
                    0 => spin(Duration::from_millis(20)),
                    30 => std::thread::sleep(Duration::from_millis(20)),
                    _ => {}
                }
                Some(())
            },
            |_, _| {},
        );
        let mut outcome = outcome;
        outcome.speeds.fill(1.0);
        let cpu = outcome.queue_latencies();
        assert_eq!(cpu.len(), 32);
        // Query 1 was due 1 ms in and waited for the rest of query 0.
        assert!(cpu[1] > 15_000_000, "{cpu:?}");
        // Query 31 waited behind a sleep, which costs no CPU.
        assert!(cpu[31] < 5_000_000, "{cpu:?}");
        assert!(outcome.latencies_ns[31] > 15_000_000);
        // On a host at half the reference speed, each answer's CPU time
        // counts half.
        outcome.speeds.fill(0.5);
        let fast = outcome.queue_latencies();
        assert!(fast[0] * 2 <= cpu[0] + 1 && fast[0] * 2 + 1 >= cpu[0]);
    }

    #[test]
    fn kept_up_allows_one_percent_of_misses_and_no_growing_backlog() {
        let limit = Duration::from_millis(1);
        let mut outcome = PhaseOutcome {
            latencies_ns: vec![1_000; 200],
            backlog_ns: vec![0; 200],
            ..PhaseOutcome::default()
        };
        assert!(kept_up(&outcome, limit));
        outcome.missed = 2;
        assert!(kept_up(&outcome, limit));
        outcome.missed = 3;
        assert!(!kept_up(&outcome, limit));
        // The last tenth of the queries averages 1 ms behind schedule.
        outcome.missed = 0;
        outcome.backlog_ns[199] = 20_000_000;
        assert!(!kept_up(&outcome, limit));
    }

    #[test]
    fn max_rate_brackets_a_threshold() {
        let found = max_rate(100.0, 8, |rate| rate <= 1_234.0);
        assert!((1_150.0..=1_234.0).contains(&found), "{found}");
        let found = max_rate(10_000.0, 8, |rate| rate <= 1_234.0);
        assert!((1_150.0..=1_234.0).contains(&found), "{found}");
    }
}
