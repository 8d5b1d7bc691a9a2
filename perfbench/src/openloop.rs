//! Open-loop request generator: one thread sends on a seeded Poisson
//! schedule at a fixed mean rate, whatever the replies do. Each request
//! is timed from the moment it was *due*, so a stall shows in the
//! latency of every request queued behind it instead of being hidden by
//! a late send (coordinated omission). Poisson gaps, unlike a fixed
//! period, cannot alias with the period of the closed-loop op beside
//! the reader.

use std::time::{Duration, Instant};

use crate::gen::Rng;

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Due time, seconds after the schedule's start.
    pub due_s: f64,
    /// Send time minus due time: how late the generator ran.
    pub lateness: Duration,
    /// Completion time minus due time.
    pub latency: Duration,
    /// Whether the request succeeded.
    pub ok: bool,
}

/// Sends `op(i)` for `i = 0, 1, …` at a mean `rate` per second from
/// `start` until the next due time would fall at or past `until`. `op`
/// returns whether the request succeeded.
pub fn run(
    rate: f64,
    seed: u64,
    start: Instant,
    until: Instant,
    mut op: impl FnMut(u64) -> bool,
) -> Vec<Sample> {
    let mut rng = Rng::new(seed);
    let mut due_s = 0.0;
    let mut samples = Vec::new();
    for i in 0u64.. {
        let due = start + Duration::from_secs_f64(due_s);
        if due >= until {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let ok = op(i);
        samples.push(Sample {
            due_s,
            lateness: sent - due,
            latency: due.elapsed(),
            ok,
        });
        due_s += -(1.0 - rng.unit()).ln() / rate;
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake op that stalls once must raise the measured latency of
    /// the requests scheduled behind it, not only its own.
    #[test]
    fn a_stall_raises_latency_of_queued_requests() {
        let stall = Duration::from_millis(200);
        let start = Instant::now();
        let stall_at = std::cell::Cell::new(None);
        let samples = run(100.0, 7, start, start + Duration::from_millis(800), |i| {
            if i == 5 {
                stall_at.set(Some(start.elapsed().as_secs_f64()));
                std::thread::sleep(stall);
            }
            true
        });
        assert!(samples.len() >= 50, "{} requests sent", samples.len());
        let stall_end = stall_at.get().expect("request 5 was sent") + stall.as_secs_f64();
        assert!(samples[5].latency >= stall);
        // Every request due during the stall waited for it to end.
        let queued: Vec<&Sample> = samples[6..]
            .iter()
            .filter(|s| s.due_s < stall_end)
            .collect();
        assert!(
            queued.len() >= 10,
            "{} requests queued behind the stall",
            queued.len()
        );
        for s in &queued {
            let waited = stall_end - s.due_s - 0.005;
            assert!(
                s.latency.as_secs_f64() >= waited,
                "{s:?} waited less than {waited}"
            );
            assert!(s.lateness.as_secs_f64() >= waited, "{s:?} was sent early");
            // Timed from its send instead, it would look fast.
            assert!(s.latency - s.lateness < Duration::from_millis(20));
        }
        // Well after the stall the generator is back on schedule.
        let last = samples.last().expect("requests");
        assert!(last.lateness < Duration::from_millis(20), "{last:?}");
    }

    #[test]
    fn mean_rate_holds() {
        let start = Instant::now();
        let samples = run(200.0, 3, start, start + Duration::from_secs(1), |_| true);
        assert!(
            (150..=250).contains(&samples.len()),
            "{} in 1 s",
            samples.len()
        );
    }
}
