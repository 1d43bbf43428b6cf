//! What the machine did while the benchmark ran, so that it can be taken
//! out of the numbers.
//!
//! The sandbox is a virtual machine on a shared host. Two things happen to
//! it, in episodes of seconds to minutes:
//!
//! * the host takes the CPUs away for a millisecond or a few, 5 % to 40 %
//!   of the time (`steal` in `/proc/stat`, and more that the counter does
//!   not see). A 0.5 ms computation is hit about one time in ten, an 8 ms
//!   request more often than not, a 40 ms one always;
//! * the cores run slower without anything being stolen (busy neighbours
//!   on the same caches and memory): for minutes the same computation
//!   takes 10 % to 15 % longer if it lives in the cache and up to 40 %
//!   longer if it streams through memory, even at its fastest.
//!
//! Wall-clock throughput of one binary moved by 60 % between two such
//! phases within a quarter of an hour, its median latency by 45 %, and on
//! the worst hour seen a one-connection loop of 2 ms requests ran anywhere
//! from 171 to 607 requests/s. So the load loop is gated on CPU time, which
//! stolen time does not enter, taken where the host's other doings weigh
//! least (`run::typical`) and calibrated by a reference kernel's CPU time
//! ([`Probe`]); set-up time is counted in granted time ([`Stopwatch`]) at
//! the speed of a memory-bound kernel ([`MemoryKernel`]).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cumulative CPU jiffies of the whole machine.
#[derive(Debug, Clone, Copy, Default)]
struct Jiffies {
    /// user + nice + system + irq + softirq: the guest ran.
    busy: u64,
    /// The guest wanted to run and the host ran something else.
    steal: u64,
}

impl Jiffies {
    fn now() -> Jiffies {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // cpu  user nice system idle iowait irq softirq steal …
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        let get = |i: usize| fields.get(i).copied().unwrap_or(0);
        Jiffies {
            busy: get(0) + get(1) + get(2) + get(5) + get(6),
            steal: get(7),
        }
    }
}

/// Share of the CPU time the guest asked for between two readings that it
/// was granted: `busy / (busy + steal)`; 1 on a machine that reports no
/// steal (or no `/proc/stat`).
fn granted_share(from: Jiffies, to: Jiffies) -> f64 {
    let busy = to.busy.saturating_sub(from.busy) as f64;
    let steal = to.steal.saturating_sub(from.steal) as f64;
    if busy + steal > 0.0 {
        busy / (busy + steal)
    } else {
        1.0
    }
}

/// Times a stretch of set-up: wall seconds, and the seconds the guest was
/// granted of them.
pub struct Stopwatch {
    started: Instant,
    jiffies: Jiffies,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
            jiffies: Jiffies::now(),
        }
    }

    /// `(wall seconds, granted seconds)` since the start.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.started.elapsed().as_secs_f64();
        (wall, wall * granted_share(self.jiffies, Jiffies::now()))
    }
}

/// Pause between two runs of the reference kernel: it keeps one core busy
/// for about 2.5 % of the time.
const PROBE_GAP: Duration = Duration::from_millis(20);
/// The kernel's CPU time on the machine the benchmark was sized on, in a
/// fast phase. Calibrated times are in this machine's nanoseconds.
pub const PROBE_NOMINAL_NS: f64 = 450_000.0;
/// The quantile of the kernel's times that stands for the machine's speed
/// — the same low quantile the load loop's own times are taken at (see
/// `run::typical`): what the cores do when nothing disturbs them.
pub const QUIET_QUANTILE: f64 = 0.10;

/// A fixed computation of the kind the program does — dot products over
/// half a megabyte of rows, hash-map lookups, a thousand small
/// allocations — that takes about half a millisecond. It lives in the
/// benchmark, so no change to the program changes it.
struct Kernel {
    rows: Vec<Vec<f64>>,
    weights: Vec<f64>,
    map: HashMap<u64, u64>,
}

impl Kernel {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

    fn new() -> Kernel {
        Kernel {
            rows: (0..512)
                .map(|r| {
                    (0..128)
                        .map(|c| ((r * 131 + c * 7) % 97) as f64 * 0.01)
                        .collect()
                })
                .collect(),
            weights: (0..128).map(|c| (c % 13) as f64 * 0.1 - 0.6).collect(),
            map: (0..4096u64)
                .map(|k| (k.wrapping_mul(Self::GOLDEN), k))
                .collect(),
        }
    }

    fn run(&self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..4 {
            for row in &self.rows {
                let dot: f64 = row.iter().zip(&self.weights).map(|(a, b)| a * b).sum();
                if dot > 0.0 {
                    acc += dot;
                }
            }
        }
        let mut k = 1u64;
        for _ in 0..8192 {
            let key = (k % 4096).wrapping_mul(Self::GOLDEN);
            k = k
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(self.map.get(&key).copied().unwrap_or(1));
        }
        let boxes: Vec<Vec<u64>> = (0..1024u64).map(|i| vec![i ^ k; 8]).collect();
        acc += boxes.iter().map(|b| b[3] as f64).sum::<f64>() * 1e-30;
        black_box(acc)
    }
}

/// Fastest CPU time of [`MemoryKernel::run`] on the machine the benchmark
/// was sized on, in a fast phase.
const MEMORY_NOMINAL_NS: f64 = 2_400_000.0;

/// A second fixed computation, for set-up: one thread streaming over
/// megabytes and chasing pointers through them, as corpus generation and
/// PP training do. In the host's slow phases such code loses 30 % to 40 %
/// where the cache-resident [`Kernel`] loses 15 %, so set-up time is
/// calibrated by this one.
pub struct MemoryKernel {
    values: Vec<f64>,
    /// One cycle through all of `0..len`, in an order no prefetcher
    /// follows.
    next: Vec<u32>,
}

impl MemoryKernel {
    /// Entries of each of the two 8 MB tables (a power of two).
    const LEN: usize = 1 << 20;

    pub fn new() -> MemoryKernel {
        MemoryKernel {
            values: (0..Self::LEN).map(|i| (i % 251) as f64 * 0.5).collect(),
            // A full-period linear congruential step (c odd, a ≡ 1 mod 4).
            next: (0..Self::LEN as u64)
                .map(|i| ((i * 1_664_525 + 1_013_904_223) % Self::LEN as u64) as u32)
                .collect(),
        }
    }

    fn run(&self) -> f64 {
        let mut acc: f64 = self.values.iter().map(|v| v * 1.000_1).sum();
        let mut at = 0usize;
        for _ in 0..40_000 {
            at = self.next[at] as usize;
            acc += self.values[at];
        }
        black_box(acc)
    }

    /// Nominal over measured kernel time right now — the fastest of five
    /// runs, in CPU time, so that a stolen time slice does not count.
    pub fn speed(&self) -> f64 {
        let fastest = (0..5)
            .map(|_| {
                let start = cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
                self.run();
                cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID) - start
            })
            .min()
            .unwrap_or(0);
        MEMORY_NOMINAL_NS / (fastest.max(1) as f64)
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid `struct timespec` for the call to fill.
    unsafe { clock_gettime(clock, &mut ts) };
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU nanoseconds all threads of this process have run so far.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// The reference kernel, run every [`PROBE_GAP`] on a thread of its own
/// while something else is being measured: how fast the machine is running
/// right now.
///
/// A time measured in a stretch of the run is *calibrated* by multiplying
/// it with [`speed`](Probed::speed) over the same stretch, which turns it
/// into the nanoseconds it would have taken at the nominal machine speed.
pub struct Probe {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(u64, u64)>>,
}

impl Probe {
    /// Starts timing the kernel; sample times count from `epoch`.
    pub fn start(epoch: Instant) -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let kernel = Kernel::new();
                let mut samples = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let start = epoch.elapsed().as_nanos() as u64;
                    let cpu = cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
                    kernel.run();
                    samples.push((start, cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID) - cpu));
                    std::thread::sleep(PROBE_GAP);
                }
                samples
            })
        };
        Probe { stop, thread }
    }

    /// Stops the kernel's thread and returns what it measured.
    pub fn finish(self) -> Probed {
        self.stop.store(true, Ordering::Relaxed);
        Probed {
            samples: self.thread.join().expect("probe thread panicked"),
        }
    }
}

/// What a [`Probe`] measured.
#[derive(Debug, Clone, Default)]
pub struct Probed {
    /// `(start since the epoch, CPU time)` of every kernel run, in
    /// nanoseconds. CPU time, because a time slice the host steals in the
    /// middle of a run is not the machine's speed.
    samples: Vec<(u64, u64)>,
}

impl Probed {
    /// Kernel runs started in `from_ns..to_ns`.
    pub fn samples_in(&self, from_ns: u64, to_ns: u64) -> usize {
        self.durations(from_ns, to_ns).len()
    }

    /// The kernel's quiet time over `from_ns..to_ns`, in nanoseconds;
    /// `None` when the kernel did not run there.
    pub fn kernel_ns(&self, from_ns: u64, to_ns: u64) -> Option<f64> {
        let mut durations = self.durations(from_ns, to_ns);
        (!durations.is_empty()).then(|| crate::stats::quantile(&mut durations, QUIET_QUANTILE))
    }

    /// Nominal over measured kernel time: below 1 when the machine ran
    /// slower than nominal over `from_ns..to_ns`. 1 when the kernel did
    /// not run there.
    pub fn speed(&self, from_ns: u64, to_ns: u64) -> f64 {
        self.kernel_ns(from_ns, to_ns)
            .map_or(1.0, |ns| PROBE_NOMINAL_NS / ns)
    }

    fn durations(&self, from_ns: u64, to_ns: u64) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(start, _)| (from_ns..to_ns).contains(start))
            .map(|&(_, nanos)| nanos as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granted_share_is_busy_over_busy_plus_steal() {
        let at = |busy, steal| Jiffies { busy, steal };
        let share = granted_share(at(400, 50), at(490, 110));
        assert!((share - 90.0 / 150.0).abs() < 1e-12);
        // An idle, undisturbed (or unreadable) machine grants everything.
        assert_eq!(granted_share(Jiffies::default(), Jiffies::default()), 1.0);
        let (wall, granted) = Stopwatch::start().stop();
        assert!(granted <= wall && granted >= 0.0);
    }

    #[test]
    fn speed_is_nominal_over_the_quiet_kernel_time_of_the_stretch() {
        // Twenty-two runs in 0..50: the 10 % quantile lies between the
        // third and the fourth fastest, whatever happened to the slowest.
        let mut samples: Vec<(u64, u64)> = (0..19).map(|i| (i, 600_000 + i * 1_000)).collect();
        samples.extend([
            (20, 450_000),
            (21, 500_000),
            (30, 5_000_000),
            (100, 300_000),
        ]);
        let probed = Probed { samples };
        assert_eq!(probed.samples_in(0, 50), 22);
        let quiet = probed.kernel_ns(0, 50).expect("the kernel ran");
        assert!((600_000.0..=601_000.0).contains(&quiet), "{quiet}");
        assert_eq!(probed.speed(0, 50), PROBE_NOMINAL_NS / quiet);
        assert_eq!(probed.speed(100, 101), 1.5);
        assert_eq!(probed.kernel_ns(50, 100), None);
        assert_eq!(probed.speed(50, 100), 1.0);
    }

    #[test]
    fn the_memory_kernel_visits_every_entry_and_reports_a_speed() {
        let kernel = MemoryKernel::new();
        let mut seen = vec![false; MemoryKernel::LEN];
        let mut at = 0usize;
        for _ in 0..MemoryKernel::LEN {
            assert!(!std::mem::replace(&mut seen[at], true), "a shorter cycle");
            at = kernel.next[at] as usize;
        }
        assert_eq!(at, 0);
        let speed = kernel.speed();
        assert!(speed > 0.0 && speed.is_finite(), "{speed}");
    }

    #[test]
    fn a_probe_times_the_kernel_until_it_is_finished() {
        let epoch = Instant::now();
        let probe = Probe::start(epoch);
        std::thread::sleep(Duration::from_millis(60));
        let probed = probe.finish();
        assert!(probed.samples_in(0, u64::MAX) >= 2);
        let ns = probed.kernel_ns(0, u64::MAX).expect("the kernel ran");
        assert!(ns > 10_000.0, "the kernel is not optimised away: {ns} ns");
        assert!(process_cpu_ns() > 0);
    }
}
