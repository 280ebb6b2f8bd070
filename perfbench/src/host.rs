//! The host's speed, measured with a fixed reference computation.
//!
//! On a shared virtual machine the speed of the physical cores behind the
//! vCPUs drifts by a fifth or more over tens of seconds to minutes, with
//! the load other tenants put on the machine, and that drift moves every
//! time the benchmark takes. So between the phases of a run the benchmark
//! times a fixed computation of its own: a small f32 matrix product,
//! hashing keys into a table, and a chain of scalar
//! transcendental functions, about the mix of arithmetic and hashing the
//! build, serve and repair paths do. It calls nothing in the product
//! crates, so no change to the program moves it, and it is timed in the
//! CPU time of its own thread, so neither preemption nor the program's
//! other threads (a busier monitor or server, say) move it either: it
//! reads how fast the cores ran. The run's end-to-end timings are
//! reported at the reference speed: each timing is multiplied by
//! [`REFERENCE_MS`] over the median time of the reference computation in
//! the probes taken within [`NEAR`] of it, since the host's speed also
//! changes within a run.

use crate::report::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// CPU milliseconds one reference computation takes at the reference
/// speed (about its median on a 2-vCPU x86-64 virtual machine). Timings
/// scaled by [`HostSpeed::factor`] read as they would on that machine.
pub const REFERENCE_MS: f64 = 2.0;
/// Reference computations timed at each probe; the probe keeps their
/// median.
const PER_PROBE: usize = 5;
/// How far from a timing's midpoint the probes that scale it may lie.
const NEAR: Duration = Duration::from_secs(5);

/// Side of the square f32 matrices multiplied, and how many times.
const MATMUL_N: usize = 48;
const MATMUL_REPS: usize = 8;
/// Distinct keys hashed into the table, and the table's slots.
const KEYS: usize = 4000;
const TABLE: usize = 8192;
/// Steps of the scalar chain.
const CHAIN: usize = 20_000;

/// The reference timings of one run, and the buffers the reference
/// computation works in (allocated once, so that the allocator, which a
/// change to the program may replace, is not part of what is timed).
pub struct HostSpeed {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    table: Vec<u64>,
    /// Each probe's midpoint and its median CPU milliseconds.
    probes: Vec<(Instant, f64)>,
}

/// A timing taken during the run, with when it was taken.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub value: f64,
    pub start: Instant,
    pub end: Instant,
}

impl Timed {
    /// The seconds from `start` to now.
    pub fn since(start: Instant) -> Timed {
        let end = Instant::now();
        Timed { value: (end - start).as_secs_f64(), start, end }
    }

    fn midpoint(&self) -> Instant {
        self.start + (self.end - self.start) / 2
    }
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let n = MATMUL_N;
        let mut host = HostSpeed {
            a: (0..n * n).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect(),
            b: (0..n * n).map(|i| (i % 13) as f32 * 0.5 - 3.0).collect(),
            c: vec![0.0; n * n],
            table: vec![0; TABLE],
            probes: Vec::new(),
        };
        // Warm the caches before the first probe counts.
        black_box(host.reference());
        host
    }

    /// Times the reference computation [`PER_PROBE`] times and keeps the
    /// median.
    pub fn probe(&mut self) {
        let start = Instant::now();
        let times: Vec<f64> = (0..PER_PROBE)
            .map(|_| {
                let start = thread_cpu_ms();
                black_box(self.reference());
                thread_cpu_ms() - start
            })
            .collect();
        let midpoint = start + start.elapsed() / 2;
        self.probes.push((midpoint, median(&times)));
    }

    /// Median CPU milliseconds of the reference computation over the run.
    pub fn reference_ms(&self) -> f64 {
        median(&self.probes.iter().map(|(_, ms)| *ms).collect::<Vec<f64>>())
    }

    pub fn probes(&self) -> usize {
        self.probes.len()
    }

    /// What a timing taken around `at` is multiplied by to read at the
    /// reference speed (above 1 when the host ran fast, below 1 when it
    /// ran slow): from the probes within [`NEAR`] of `at`, or the nearest
    /// probe when none is.
    fn factor_at(&self, at: Instant) -> f64 {
        let apart = |t: Instant| if t > at { t - at } else { at - t };
        let near: Vec<f64> =
            self.probes.iter().filter(|(t, _)| apart(*t) <= NEAR).map(|(_, ms)| *ms).collect();
        let ms = if near.is_empty() {
            self.probes.iter().min_by_key(|(t, _)| apart(*t)).map_or(f64::NAN, |(_, ms)| *ms)
        } else {
            median(&near)
        };
        REFERENCE_MS / ms
    }

    /// `timing`'s value at the reference speed.
    pub fn at_reference(&self, timing: &Timed) -> f64 {
        timing.value * self.factor_at(timing.midpoint())
    }

    /// The median of `timings` at the reference speed.
    pub fn median_at_reference(&self, timings: &[Timed]) -> f64 {
        median(&timings.iter().map(|t| self.at_reference(t)).collect::<Vec<f64>>())
    }

    /// The reference computation; returns a value that depends on all of
    /// it.
    fn reference(&mut self) -> u64 {
        let n = MATMUL_N;
        let (a, b, c) = (&self.a, &self.b, &mut self.c);
        c.fill(0.0);
        for _ in 0..MATMUL_REPS {
            for i in 0..n {
                for k in 0..n {
                    let aik = black_box(a[i * n + k]);
                    for j in 0..n {
                        c[i * n + j] += aik * b[k * n + j];
                    }
                }
            }
        }
        let mut acc = c.iter().map(|v| v.to_bits() as u64).fold(0u64, u64::wrapping_add);

        // Keys written as decimal text into a stack buffer, hashed
        // (FNV-1a) and inserted into an open-addressing table, then looked
        // up again.
        self.table.fill(0);
        for pass in 0..2 {
            for i in 0..KEYS as u64 {
                let mut buf = *b"token-0000000000";
                let mut v = i.wrapping_mul(2_654_435_761) % 100_003;
                for d in buf[6..].iter_mut().rev() {
                    *d = b'0' + (v % 10) as u8;
                    v /= 10;
                }
                let hash = black_box(&buf).iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &byte| {
                    (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
                }) | 1;
                let mut slot = hash as usize % TABLE;
                while self.table[slot] != 0 && self.table[slot] != hash {
                    slot = (slot + 1) % TABLE;
                }
                if pass == 0 {
                    self.table[slot] = hash;
                } else {
                    acc = acc.wrapping_add(slot as u64);
                }
            }
        }

        let (mut x, mut sum) = (black_box(0.5f64), 0.0f64);
        for i in 0..CHAIN {
            x = (x * 1.000_1 + i as f64 * 1e-6).tanh() + 0.3;
            sum += x.exp().ln_1p();
        }
        acc.wrapping_add(sum.to_bits())
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used, in milliseconds.
fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call to fill.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_scale_by_the_probes_near_them() {
        let mut host = HostSpeed::new();
        let origin = Instant::now();
        // Two spells: the host at half the reference speed, then at twice
        // it, further apart than NEAR.
        host.probes = vec![
            (origin, 2.0 * REFERENCE_MS),
            (origin + Duration::from_secs(1), 2.0 * REFERENCE_MS),
            (origin + Duration::from_secs(20), REFERENCE_MS / 2.0),
        ];
        let at = |s: u64| {
            let start = origin + Duration::from_secs(s);
            Timed { value: 1.0, start, end: start + Duration::from_millis(10) }
        };
        assert_eq!(host.at_reference(&at(0)), 0.5);
        assert_eq!(host.at_reference(&at(19)), 2.0);
        // Nothing within NEAR: the nearest probe.
        assert_eq!(host.at_reference(&at(9)), 0.5);
        host.probe();
        assert_eq!(host.probes(), 4);
        assert!(host.probes.last().is_some_and(|(_, ms)| *ms > 0.0));
    }
}
