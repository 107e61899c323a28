//! Host-speed calibration.
//!
//! On a shared host the speed one run gets drifts: by a third for seconds
//! at a time, and by more than half for minutes to hours. Every timing of
//! a run moves with it, so two sets of runs of the same code disagree by
//! more than any change worth measuring. The benchmark therefore times a
//! fixed reference kernel between every two passes, once on one thread
//! and once on [`THREADS`] threads at once, and reports each end-to-end
//! timing at a reference host speed: the raw reading times the ratio of
//! the kernel's time on the reference host to its time around that
//! reading, raised to the metric's exponent (see [`Ref`]). The kernel
//! uses none of the repository's crates, so a change to the program moves
//! only the raw reading, which is printed next to every scaled one.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::{stats, THREADS};

/// The kernel's time per sample (ms) on the reference host, a 2-vCPU
/// Intel Xeon VM, in a steady period: on one thread alone, and the mean
/// thread time on [`THREADS`] threads at once. A run on that host in the
/// same state reads scale factors near 1.
const REF_ONE_MS: f64 = 1.7;
const REF_ALL_MS: f64 = 1.7;

/// How one metric's timings follow the host: which kernel reading, and
/// the power of its ratio. On the reference host a slow period slowed the
/// kernel by 1.6–1.75× and the program's timings by 1.5–2.4×, each by the
/// kernel's slowdown to its own power; README.md lists the readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ref {
    /// The one-thread reading (single-threaded work) rather than the
    /// all-threads one.
    pub one_thread: bool,
    pub exponent: f64,
}

/// Set-up: planning and boots on one thread.
pub const SETUP: Ref = Ref {
    one_thread: true,
    exponent: 1.25,
};
/// The sweep on the 2-worker parallel engine.
pub const CLASSIC: Ref = Ref {
    one_thread: false,
    exponent: 1.4,
};
/// Crashcon on 2 workers.
pub const CRASHCON: Ref = Ref {
    one_thread: false,
    exponent: 1.45,
};
/// Adaptive: a single-threaded explore, then a short 2-worker replay.
pub const ADAPTIVE: Ref = Ref {
    one_thread: true,
    exponent: 1.45,
};
/// Served hits, each client on its own vCPU: the memory-front median.
pub const HIT_P50: Ref = Ref {
    one_thread: false,
    exponent: 1.5,
};
/// The 90th percentile, a disk read of the cached report.
pub const HIT_P90: Ref = Ref {
    one_thread: false,
    exponent: 1.0,
};
/// Cold misses: planning, 2 fleet workers, the store.
pub const MISS: Ref = Ref {
    one_thread: false,
    exponent: 1.15,
};
/// Requests of every kind per second.
pub const REQUESTS: Ref = Ref {
    one_thread: false,
    exponent: 1.35,
};

/// Kernel units each thread runs per reading.
const UNITS: u64 = 3;

/// Words of a kernel thread's table (256 KiB) and keys it sorts.
const TABLE_WORDS: usize = 32 * 1024;
const KEYS: usize = 8 * 1024;

/// A reading's scale is the median over the samples taken within `SPAN`
/// of it, and at least `WINDOW` on each side. A sample is a few ms of
/// kernel, so one taken in a short slow spell would move a long pass's
/// scale by itself; the span follows changes of the host that last
/// seconds, as the slow periods do.
const SPAN: Duration = Duration::from_secs(2);
const WINDOW: usize = 2;

/// Memory of one kernel thread, allocated once: the kernel allocates
/// nothing, so the state of the program's heap cannot move its time.
struct Scratch {
    table: Vec<u64>,
    keys: Vec<u64>,
}

/// One unit of the kernel: data-dependent scattered updates of a 256 KiB
/// table, a comparison sort, and a chain of dependent loads — the
/// branchy, cache-sized work the simulator does.
fn unit(seed: u64, s: &mut Scratch) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    s.table.fill(0);
    let mask = s.table.len() - 1;
    let mut acc = 0u64;
    for _ in 0..120_000 {
        let r = next();
        let i = r as usize & mask;
        s.table[i] = s.table[i].wrapping_add(r);
        if r & 3 == 0 {
            acc ^= s.table[(r >> 20) as usize & mask];
        } else {
            acc = acc.wrapping_add(r >> 3);
        }
    }
    for k in &mut s.keys {
        *k = next() % 100_000;
    }
    s.keys.sort_unstable();
    let mut i = acc as usize & mask;
    for _ in 0..60_000 {
        i = (s.table[i] as usize ^ i.rotate_left(7)) & mask;
        acc = acc.wrapping_add(i as u64);
    }
    acc ^ s.keys[KEYS / 2]
}

/// `UNITS` kernel units on one thread; their time in ms.
fn run_units(t: usize, scratch: &mut Scratch) -> f64 {
    let start = Instant::now();
    for u in 0..UNITS {
        black_box(unit(t as u64 * UNITS + u, scratch));
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// One calibration sample.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at: Instant,
    /// The kernel on one thread while the others idle.
    one_ms: f64,
    /// The mean thread time of the kernel on [`THREADS`] threads at once.
    all_ms: f64,
}

impl Sample {
    fn ratio(&self, r: Ref) -> f64 {
        if r.one_thread {
            REF_ONE_MS / self.one_ms
        } else {
            REF_ALL_MS / self.all_ms
        }
    }
}

/// The calibration samples of one run.
pub struct Calibrator {
    scratch: Vec<Scratch>,
    samples: Vec<Sample>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        let scratch = (0..THREADS)
            .map(|_| Scratch {
                table: vec![0; TABLE_WORDS],
                keys: vec![0; KEYS],
            })
            .collect();
        Calibrator {
            scratch,
            samples: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Takes one sample: the kernel on this thread, then on [`THREADS`]
    /// threads at once.
    pub fn sample(&mut self) {
        let at = Instant::now();
        let one_ms = run_units(0, &mut self.scratch[0]);
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .scratch
                .iter_mut()
                .enumerate()
                .map(|(t, scratch)| s.spawn(move || run_units(t, scratch)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a calibration thread panicked"))
                .collect()
        });
        let all_ms = times.iter().sum::<f64>() / times.len() as f64;
        self.samples.push(Sample { at, one_ms, all_ms });
    }

    /// Median kernel readings over the run (ms, one thread and all
    /// threads) and the sample count.
    pub fn medians(&self) -> (f64, f64, usize) {
        let one: Vec<f64> = self.samples.iter().map(|s| s.one_ms).collect();
        let all: Vec<f64> = self.samples.iter().map(|s| s.all_ms).collect();
        (stats::median(&one), stats::median(&all), one.len())
    }

    /// The factor that scales a time measured over `[start, end]` to the
    /// reference host: the median, over the samples within `SPAN` of the
    /// interval and at least `WINDOW` on each side of it, of the
    /// reference reading over the sample's, to the power of `r.exponent`.
    pub fn scale(&self, r: Ref, start: Instant, end: Instant) -> f64 {
        let before = self.samples.partition_point(|s| s.at <= start);
        let after = self.samples.partition_point(|s| s.at < end);
        let early = self.samples.partition_point(|s| s.at + SPAN < start);
        let late = self.samples.partition_point(|s| s.at <= end + SPAN);
        let lo = early.min(before.saturating_sub(WINDOW));
        let hi = late.max(after + WINDOW).min(self.samples.len());
        if lo >= hi {
            return 1.0;
        }
        let ratios: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.ratio(r)).collect();
        stats::median(&ratios).powf(r.exponent)
    }

    /// The median of per-pass `readings` of a time, each scaled to the
    /// reference host, and the median of the raw readings.
    pub fn time(&self, r: Ref, readings: &Readings) -> Scaled {
        let scaled: Vec<f64> = readings
            .0
            .iter()
            .map(|&(v, a, b)| v * self.scale(r, a, b))
            .collect();
        Scaled {
            value: stats::median(&scaled),
            raw: readings.raw_median(),
        }
    }

    /// As [`Calibrator::time`] for a rate, which scales inversely.
    pub fn rate(&self, r: Ref, readings: &Readings) -> Scaled {
        let scaled: Vec<f64> = readings
            .0
            .iter()
            .map(|&(v, a, b)| v / self.scale(r, a, b))
            .collect();
        Scaled {
            value: stats::median(&scaled),
            raw: readings.raw_median(),
        }
    }
}

/// A scaled median and the median of the raw readings.
#[derive(Debug, Clone, Copy)]
pub struct Scaled {
    pub value: f64,
    pub raw: f64,
}

/// Per-pass readings of one timing, each with the interval it covers.
#[derive(Debug, Default, Clone)]
pub struct Readings(Vec<(f64, Instant, Instant)>);

impl Readings {
    pub fn push(&mut self, value: f64, start: Instant, end: Instant) {
        self.0.push((value, start, end));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn append(&mut self, other: &mut Readings) {
        self.0.append(&mut other.0);
    }

    fn raw_median(&self) -> f64 {
        stats::median(&self.0.iter().map(|r| r.0).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A calibrator whose all-threads readings are `ms` at each time and
    /// whose one-thread readings are twice as slow.
    fn calibrator(readings: &[(u64, f64)]) -> (Instant, Calibrator) {
        let t0 = Instant::now();
        let samples = readings
            .iter()
            .map(|&(at, ms)| Sample {
                at: t0 + Duration::from_secs(at),
                one_ms: 2.0 * ms * REF_ONE_MS / REF_ALL_MS,
                all_ms: ms,
            })
            .collect();
        let c = Calibrator {
            samples,
            ..Calibrator::default()
        };
        (t0, c)
    }

    const LINEAR: Ref = Ref {
        one_thread: false,
        exponent: 1.0,
    };

    #[test]
    fn scale_is_the_median_of_the_samples_around_a_reading() {
        let r = REF_ALL_MS;
        let (t0, c) = calibrator(&[(0, r), (10, r), (20, 2.0 * r), (30, 2.0 * r), (40, 2.0 * r)]);
        // Samples 10 s apart, beyond `SPAN`: the window is the `WINDOW`
        // samples on each side.
        let at = |s| t0 + Duration::from_secs(s);
        // A reading in 25..27 sits between samples 2 and 3; the window is
        // samples 1..=4 with median 2r, so times halve.
        assert_eq!(c.scale(LINEAR, at(25), at(27)), 0.5);
        // A reading in 5..7: the window is cut short at sample 0, so it
        // is samples 0..=2, median r.
        assert_eq!(c.scale(LINEAR, at(5), at(7)), 1.0);
        // A reading over 5..27 spans samples 1 and 2: window 0..=4.
        assert_eq!(c.scale(LINEAR, at(5), at(27)), 0.5);
        // The exponent applies to the ratio; the one-thread readings are
        // twice as slow again.
        let squared = Ref {
            one_thread: false,
            exponent: 2.0,
        };
        assert_eq!(c.scale(squared, at(25), at(27)), 0.25);
        let one = Ref {
            one_thread: true,
            exponent: 1.0,
        };
        assert_eq!(c.scale(one, at(25), at(27)), 0.25);
    }

    #[test]
    fn the_window_takes_every_sample_within_the_span() {
        let r = REF_ALL_MS;
        let t0 = Instant::now();
        // Samples 500 ms apart: 2r for the first 3 s, then r.
        let samples = (0..12u32)
            .map(|i| Sample {
                at: t0 + Duration::from_millis(500) * i,
                one_ms: r,
                all_ms: if i < 6 { 2.0 * r } else { r },
            })
            .collect();
        let c = Calibrator {
            samples,
            ..Calibrator::default()
        };
        let at = |ms| t0 + Duration::from_millis(ms);
        // A reading in 1100..1200 ms: samples 0..=6 lie within 2 s of it,
        // six of them slow.
        assert_eq!(c.scale(LINEAR, at(1100), at(1200)), 0.5);
        // A reading in 2600..2700 ms: samples 2..=9, half of them slow.
        assert_eq!(c.scale(LINEAR, at(2600), at(2700)), 0.75);
    }

    #[test]
    fn rates_and_times_scale_inversely() {
        let (t0, c) = calibrator(&[(0, 2.0 * REF_ALL_MS), (10, 2.0 * REF_ALL_MS)]);
        let mut readings = Readings::default();
        let at = |s| t0 + Duration::from_secs(s);
        readings.push(100.0, at(1), at(9));
        readings.push(300.0, at(2), at(8));
        readings.push(200.0, at(3), at(7));
        let time = c.time(LINEAR, &readings);
        assert_eq!((time.value, time.raw), (100.0, 200.0));
        let rate = c.rate(LINEAR, &readings);
        assert_eq!((rate.value, rate.raw), (400.0, 200.0));
    }

    #[test]
    fn no_samples_leave_readings_unscaled() {
        let (t0, c) = calibrator(&[]);
        assert_eq!(c.scale(LINEAR, t0, t0), 1.0);
    }
}
