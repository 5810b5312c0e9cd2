//! Deterministic load shaping: a seeded RNG, a Zipf picker for skewed
//! sources, and the open-loop timing model the request generator runs on.

/// SplitMix64: a tiny, well-mixed, seedable generator. Everything the
/// benchmark feeds the program under test is drawn from it, so one
/// `--seed` fixes every input.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// Zipf exponent of query sources. Skewed enough that the epoch memo
/// fills, mild enough that the hot set spans many nodes, so no single
/// node's degree decides a run's latency.
pub const ZIPF_S: f64 = 0.8;

/// Zipf(s) over `n` items: item rank `r` (1-based) has weight `1 / r^s`.
/// Ranks are mapped to items through a seeded permutation, so the hot
/// items are spread over the id range instead of being the lowest ids.
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<u32>,
}

impl Zipf {
    /// A picker over items `0..n` with exponent `s`, permuted by `seed`.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 1..=n {
            total += 1.0 / (r as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut items: Vec<u32> = (0..n as u32).collect();
        let mut rng = SplitMix::new(seed ^ 0x5A1F_u64);
        for i in (1..n).rev() {
            items.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, items }
    }

    /// Draws one item.
    pub fn pick(&self, rng: &mut SplitMix) -> u32 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c <= u);
        self.items[rank.min(self.items.len() - 1)]
    }
}

/// When one open-loop request was due, sent and answered, in nanoseconds
/// since the window opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// The schedule's send time.
    pub due: u64,
    /// When the request actually left (never before `due`).
    pub sent: u64,
    /// When its reply arrived.
    pub replied: u64,
}

/// Latency of each request of one connection as a user sees it. A
/// request that had to wait for the previous reply counts from its due
/// time, so one stalled reply makes the requests behind it late. A request
/// whose connection was free at its due time counts from when it was
/// actually sent: the generator's own oversleep is not the server's.
pub fn latencies(timings: &[Timing]) -> Vec<u64> {
    let mut free_at = 0u64;
    timings
        .iter()
        .map(|t| {
            let start = if free_at > t.due {
                t.due
            } else {
                t.sent.max(t.due)
            };
            free_at = t.replied;
            t.replied.saturating_sub(start)
        })
        .collect()
}

/// How late the generator itself sent each request of one connection:
/// from when it could have left — its due time, or the previous reply if
/// that came later — to when it left. Waiting for the previous reply is
/// the server's backlog, already counted by [`latencies`], not lateness.
pub fn lateness(timings: &[Timing]) -> Vec<u64> {
    let mut free_at = 0u64;
    timings
        .iter()
        .map(|t| {
            let could = t.due.max(free_at);
            free_at = t.replied;
            t.sent.saturating_sub(could)
        })
        .collect()
}

/// The open-loop model of one connection: request `i` is due at
/// `due[i]`, but it cannot leave before the previous reply arrived.
/// Given each request's service time, returns the timings the generator
/// would record. The generator itself measures real clocks; this is the
/// accounting it follows, kept pure so it can be tested.
#[cfg(test)]
pub fn replay(due: &[u64], service: &[u64]) -> Vec<Timing> {
    let mut free_at = 0u64;
    due.iter()
        .zip(service)
        .map(|(&due, &service)| {
            let sent = due.max(free_at);
            let replied = sent + service;
            free_at = replied;
            Timing { due, sent, replied }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let draw = |seed: u64| {
            let z = Zipf::new(1000, 1.1, seed);
            let mut rng = SplitMix::new(seed);
            (0..500).map(|_| z.pick(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 1.1, 9);
        let mut rng = SplitMix::new(3);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[z.pick(&mut rng) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest item alone takes far more than a uniform share (20).
        assert!(counts[0] > 1_000, "hottest item drew {}", counts[0]);
        assert!(counts[999] < 20);
    }

    #[test]
    fn on_time_requests_are_not_late() {
        let due = [0, 1000, 2000, 3000];
        let t = replay(&due, &[100; 4]);
        assert_eq!(lateness(&t), vec![0; 4]);
        assert_eq!(latencies(&t), vec![100; 4]);
    }

    #[test]
    fn one_stalled_reply_makes_the_requests_after_it_late() {
        // Due every 1000ns; request 1 stalls for 3500ns.
        let due = [0, 1000, 2000, 3000, 4000, 5000, 6000];
        let service = [100, 3500, 100, 100, 100, 100, 100];
        let t = replay(&due, &service);
        let lat = latencies(&t);
        assert_eq!(lat[1], 3500);
        // Request 2 was due at 2000 but could only leave at 4500.
        assert_eq!(t[2].sent - t[2].due, 2500);
        assert_eq!(lat[2], 2600);
        assert_eq!(lat[3], 1700);
        assert_eq!(t[4].sent - t[4].due, 700);
        // The backlog drains: request 5 leaves on time again.
        assert_eq!(t[5].sent, t[5].due);
        assert_eq!(lat[5], 100);
        // The generator sent each request as soon as it could: the wait
        // was the server's backlog, not generator lateness.
        assert_eq!(lateness(&t), vec![0; 7]);
        // A closed-loop measurement (reply − sent) would have hidden it.
        assert_eq!(t[2].replied - t[2].sent, 100);
    }

    #[test]
    fn generator_oversleep_is_not_server_latency() {
        // The connection was free at 1000, but the generator woke at 1080.
        let t = [
            Timing {
                due: 0,
                sent: 0,
                replied: 500,
            },
            Timing {
                due: 1000,
                sent: 1080,
                replied: 1180,
            },
        ];
        assert_eq!(lateness(&t), vec![0, 80]);
        assert_eq!(latencies(&t), vec![500, 100]);
    }
}
