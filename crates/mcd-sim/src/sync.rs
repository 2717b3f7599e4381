//! Inter-domain synchronization model.
//!
//! The MCD design pays for its independent clocks with synchronization latency
//! whenever information crosses a domain boundary. Following Sjogren and Myers,
//! the synchronization circuit imposes a delay of one cycle in the *consumer*
//! domain whenever the distance between the edges of the two clocks is within
//! 30% of the period of the faster clock. Clock jitter (normally distributed,
//! σ = 110 ps in Table 1) randomizes the edge alignment, so in the long run a
//! crossing stalls with probability roughly `0.3 · T_fast / T_consumer`.
//!
//! The simulator uses a deterministic, seedable model of this behaviour: each
//! crossing tracks the relative phase of the two clocks (derived from the
//! crossing time and both periods) perturbed by jitter, and stalls exactly when
//! the perturbed edge distance falls inside the synchronization window.
//!
//! The [`Synchronizer`] owns no noise source. Its caller supplies each
//! crossing's two standard-normal jitter samples, normally drawn from a
//! [`JitterRng`]. Whether a crossing happens depends only on the trace
//! (domains, cache misses, mispredictions), never on time, so the simulator
//! draws the samples once per simulation pass and every lane of the pass reads
//! the same ones.

use crate::domain::Domain;
use crate::time::{MegaHertz, TimeNs};

/// Deterministic xorshift-based noise source used for clock jitter.
///
/// We intentionally do not use `rand` here: the synchronizer is consulted on
/// the critical path of the timing model and only needs a cheap, reproducible
/// stream of standard-normal-ish samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JitterRng {
    state: u64,
}

impl JitterRng {
    /// Creates a jitter source from a seed. A zero seed is remapped to a fixed
    /// non-zero constant (xorshift cannot operate on an all-zero state).
    pub fn new(seed: u64) -> Self {
        JitterRng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// A uniform sample in `[0, 1)`.
    pub fn next_uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An approximately standard-normal sample (Irwin–Hall with 6 uniforms,
    /// variance-corrected). Adequate for modelling 110 ps clock jitter.
    pub fn next_normal(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..6 {
            acc += self.next_uniform();
        }
        // Sum of 6 uniforms: mean 3, variance 6/12 = 0.5.
        (acc - 3.0) / 0.5f64.sqrt()
    }

    /// The jitter of one crossing: two standard-normal samples, one per clock
    /// edge, in draw order (see [`Synchronizer::crossing`]).
    pub fn next_normal_pair(&mut self) -> [f64; 2] {
        [self.next_normal(), self.next_normal()]
    }
}

/// Splits `a * b` into an exact double-double `(hi, lo)` pair
/// (`hi + lo == a * b` exactly) using Dekker's algorithm — no FMA required.
#[inline]
fn two_product(a: f64, b: f64) -> (f64, f64) {
    const SPLIT: f64 = 134_217_729.0; // 2^27 + 1
    let p = a * b;
    let t = SPLIT * a;
    let ah = t - (t - a);
    let al = a - ah;
    let t = SPLIT * b;
    let bh = t - (t - b);
    let bl = b - bh;
    let err = ((ah * bh - p) + ah * bl + al * bh) + al * bl;
    (p, err)
}

/// `x.rem_euclid(y)` for finite `x` and finite `y > 0`, bit-identical to the
/// standard library, without the libm `fmod` call.
///
/// glibc's `fmod` reduces the exponent gap iteratively, so its cost grows
/// with `x / y` — and the synchronizer calls it per crossing with `x` the
/// wall-clock time in picoseconds and `y` one clock period, a quotient in the
/// millions. This showed up as roughly 40% of every simulation pass.
///
/// The replacement exploits that IEEE remainders are *exact* (the result is
/// always representable, no rounding happens), so any algorithm that computes
/// the same real number agrees bit-for-bit:
///
/// * `q = floor(x / y)` is within one of the true quotient because
///   `x / y` stays far below 2^53 here (guarded below; larger quotients fall
///   back to `rem_euclid`).
/// * `q * y` is computed exactly as a `hi + lo` double-double
///   ([`two_product`]), and `x - hi` is exact by Sterbenz's lemma (`hi` is
///   within a factor of two of `x`), so `(x - hi) - lo` is the correctly
///   rounded value of the real number `x - q * y`.
/// * If `q` was off by one, the result's sign/range says so and the loop
///   re-reduces with the corrected `q`; once `q` is the true floor the real
///   result is `x` mod `y`, exactly the value `rem_euclid` produces (for
///   negative `x`, both round the same real `fmod(x, y) + y`).
#[inline]
fn exact_rem_euclid(x: f64, y: f64) -> f64 {
    let quotient = x / y;
    // The negated form keeps NaN quotients on the fallback path.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(quotient.abs() < 9.0e15) || !y.is_finite() {
        // Out of the exactness envelope (or NaN/inf operands): libm path.
        return x.rem_euclid(y);
    }
    let mut q = quotient.floor();
    for _ in 0..4 {
        let (hi, lo) = two_product(q, y);
        let r = (x - hi) - lo;
        if r < 0.0 {
            q -= 1.0;
        } else if r >= y {
            q += 1.0;
        } else if r == 0.0 && x.is_sign_negative() {
            // `rem_euclid` inherits fmod's zero sign: a negative multiple of
            // `y` yields -0.0 (`-0.0 % y` is -0.0, which is not `< 0.0`).
            return -0.0;
        } else {
            return r;
        }
    }
    x.rem_euclid(y)
}

/// Outcome of one domain-crossing query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossingOutcome {
    /// Extra delay imposed in the consumer domain (zero or one consumer cycle).
    pub penalty: TimeNs,
    /// Whether the synchronizer stalled this crossing.
    pub stalled: bool,
}

/// The inter-domain synchronization circuit: the window and jitter
/// parameters plus crossing and stall counters. The jitter samples come from
/// the caller.
///
/// ```
/// use mcd_sim::sync::{JitterRng, Synchronizer};
/// use mcd_sim::domain::Domain;
/// use mcd_sim::time::{MegaHertz, TimeNs};
/// let mut sync = Synchronizer::new(300.0, 110.0);
/// let mut rng = JitterRng::new(1);
/// let out = sync.crossing(
///     Domain::FrontEnd,
///     MegaHertz::new(1000.0),
///     Domain::Integer,
///     MegaHertz::new(1000.0),
///     TimeNs::new(17.0),
///     || rng.next_normal_pair(),
/// );
/// // The penalty is either zero or exactly one consumer cycle (1 ns at 1 GHz).
/// assert!(out.penalty.as_ns() == 0.0 || out.penalty.as_ns() == 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Synchronizer {
    /// Synchronization window, in picoseconds... expressed as a fraction of the
    /// faster clock's period when `window_ps` is zero. Table 1 gives 300 ps,
    /// which is 30% of the 1 GHz baseline period.
    window_ps: f64,
    /// Standard deviation of clock jitter in picoseconds (Table 1: 110 ps).
    jitter_sigma_ps: f64,
    stalls: u64,
    crossings: u64,
    enabled: bool,
}

impl Synchronizer {
    /// Creates a synchronizer.
    ///
    /// * `window_ps` — synchronization window in picoseconds (300 in Table 1).
    /// * `jitter_sigma_ps` — clock jitter standard deviation in picoseconds.
    pub fn new(window_ps: f64, jitter_sigma_ps: f64) -> Self {
        Synchronizer {
            window_ps,
            jitter_sigma_ps,
            stalls: 0,
            crossings: 0,
            enabled: true,
        }
    }

    /// Creates a synchronizer that never stalls. This models the fully
    /// synchronous (single-clock) processor used to quantify the MCD design's
    /// inherent performance penalty.
    pub fn disabled() -> Self {
        let mut s = Synchronizer::new(300.0, 110.0);
        s.enabled = false;
        s
    }

    /// Whether synchronization penalties are being modelled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Total number of crossings evaluated so far.
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Number of crossings that incurred a one-cycle stall.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Observed stall rate (stalls / crossings), or zero before any crossing.
    pub fn stall_rate(&self) -> f64 {
        if self.crossings == 0 {
            0.0
        } else {
            self.stalls as f64 / self.crossings as f64
        }
    }

    /// Evaluates a value crossing from `producer` (running at `producer_freq`)
    /// to `consumer` (running at `consumer_freq`) at wall-clock time `now`.
    ///
    /// Returns the extra consumer-domain delay (zero or one consumer cycle).
    /// Crossings within the same domain never stall.
    ///
    /// `jitter` yields the crossing's two standard-normal samples, the first
    /// for the producer's clock edge and the second for the consumer's (see
    /// [`JitterRng::next_normal_pair`]). It is called only for a real
    /// crossing: a same-domain transfer or a disabled synchronizer draws
    /// nothing.
    pub fn crossing(
        &mut self,
        producer: Domain,
        producer_freq: MegaHertz,
        consumer: Domain,
        consumer_freq: MegaHertz,
        now: TimeNs,
        jitter: impl FnOnce() -> [f64; 2],
    ) -> CrossingOutcome {
        if producer == consumer || !self.enabled {
            return CrossingOutcome {
                penalty: TimeNs::ZERO,
                stalled: false,
            };
        }
        self.crossings += 1;

        let t_prod = producer_freq.period().as_ns() * 1000.0; // ps
        let t_cons = consumer_freq.period().as_ns() * 1000.0; // ps
        let t_fast = t_prod.min(t_cons);
        // Effective window: 30% of the faster clock (Table 1 expresses this as
        // 300 ps against the 1 GHz baseline period).
        let window = self.window_ps.min(0.3 * t_fast).max(0.0);

        // Phase of the arrival within the consumer clock period, perturbed by
        // jitter on both clocks. If the next consumer edge is closer than the
        // synchronization window, that edge cannot be used and the value waits
        // one additional consumer cycle.
        let now_ps = now.as_ns() * 1000.0;
        let [producer_edge, consumer_edge] = jitter();
        let jitter = producer_edge * self.jitter_sigma_ps - consumer_edge * self.jitter_sigma_ps;
        let phase = exact_rem_euclid(now_ps + jitter, t_cons);
        let distance_to_next_edge = t_cons - phase;

        if distance_to_next_edge < window {
            self.stalls += 1;
            CrossingOutcome {
                penalty: consumer_freq.period(),
                stalled: true,
            }
        } else {
            CrossingOutcome {
                penalty: TimeNs::ZERO,
                stalled: false,
            }
        }
    }
}

impl Default for Synchronizer {
    fn default() -> Self {
        Synchronizer::new(300.0, 110.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_rng_is_deterministic() {
        let mut a = JitterRng::new(42);
        let mut b = JitterRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_uniform(), b.next_uniform());
        }
    }

    #[test]
    fn exact_rem_euclid_matches_std_bit_for_bit() {
        let mut rng = JitterRng::new(0xFEED);
        for i in 0..200_000 {
            // Representative crossing inputs: periods in [250, 4000] ps,
            // times from sub-period up to ~1e10 ps, jitter can push x negative.
            let y = 250.0 + rng.next_uniform() * 3750.0;
            let scale = 10f64.powf(rng.next_uniform() * 10.0);
            let mut x = rng.next_uniform() * scale;
            if i % 7 == 0 {
                x = -rng.next_uniform() * 1500.0;
            }
            if i % 11 == 0 {
                x = (x / y).round() * y; // near-multiple edge cases
            }
            let got = exact_rem_euclid(x, y);
            let want = x.rem_euclid(y);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "x={x:?} y={y:?} got={got:?} want={want:?}"
            );
        }
        // Out-of-envelope and special inputs fall back to the std result.
        for (x, y) in [
            (1.0e18, 3.0),
            (f64::INFINITY, 2.0),
            (5.0, f64::INFINITY),
            (0.0, 7.5),
            (-0.0, 7.5),
        ] {
            assert_eq!(
                exact_rem_euclid(x, y).to_bits(),
                x.rem_euclid(y).to_bits(),
                "x={x:?} y={y:?}"
            );
        }
    }

    #[test]
    fn jitter_rng_normal_has_reasonable_moments() {
        let mut rng = JitterRng::new(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn same_domain_never_stalls() {
        let mut sync = Synchronizer::default();
        let mut rng = JitterRng::new(0x5EED);
        for i in 0..1000 {
            let out = sync.crossing(
                Domain::Integer,
                MegaHertz::new(1000.0),
                Domain::Integer,
                MegaHertz::new(1000.0),
                TimeNs::new(i as f64 * 0.37),
                || rng.next_normal_pair(),
            );
            assert!(!out.stalled);
        }
        assert_eq!(sync.crossings(), 0);
        assert_eq!(rng, JitterRng::new(0x5EED), "no jitter was drawn");
    }

    #[test]
    fn disabled_synchronizer_never_stalls() {
        let mut sync = Synchronizer::disabled();
        let mut rng = JitterRng::new(3);
        for i in 0..1000 {
            let out = sync.crossing(
                Domain::FrontEnd,
                MegaHertz::new(1000.0),
                Domain::Memory,
                MegaHertz::new(250.0),
                TimeNs::new(i as f64 * 1.13),
                || rng.next_normal_pair(),
            );
            assert!(!out.stalled);
            assert!(out.penalty.is_zero());
        }
        assert_eq!(rng, JitterRng::new(3), "no jitter was drawn");
    }

    #[test]
    fn stall_rate_near_thirty_percent_at_equal_full_speed() {
        let mut sync = Synchronizer::default();
        let mut rng = JitterRng::new(0x5EED);
        let f = MegaHertz::new(1000.0);
        for i in 0..50_000 {
            sync.crossing(
                Domain::FrontEnd,
                f,
                Domain::Integer,
                f,
                TimeNs::new(i as f64 * 0.7919),
                || rng.next_normal_pair(),
            );
        }
        let rate = sync.stall_rate();
        // The stall region is the 300 ps window before each consumer edge out of
        // a 1000 ps period, so matched full-speed crossings stall ~30% of the time.
        assert!(
            rate > 0.22 && rate < 0.38,
            "rate {rate} out of expected band"
        );
    }

    #[test]
    fn slower_consumer_pays_larger_penalty() {
        let mut sync = Synchronizer::default();
        let mut rng = JitterRng::new(0x5EED);
        let mut total_fast = 0.0;
        let mut total_slow = 0.0;
        for i in 0..20_000 {
            let t = TimeNs::new(i as f64 * 0.577);
            let out_fast = sync.crossing(
                Domain::Integer,
                MegaHertz::new(1000.0),
                Domain::FrontEnd,
                MegaHertz::new(1000.0),
                t,
                || rng.next_normal_pair(),
            );
            total_fast += out_fast.penalty.as_ns();
            let out_slow = sync.crossing(
                Domain::Integer,
                MegaHertz::new(1000.0),
                Domain::Memory,
                MegaHertz::new(250.0),
                t,
                || rng.next_normal_pair(),
            );
            total_slow += out_slow.penalty.as_ns();
        }
        // A stalled crossing into a 250 MHz domain costs 4 ns instead of 1 ns,
        // even though stalls are rarer (window is capped by the faster clock).
        assert!(total_slow > total_fast * 0.5);
    }
}
