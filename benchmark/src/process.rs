//! Process-wide probes: CPU time, peak resident memory, machine facts.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const THREAD_CPUTIME: i32 = 3;

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User plus system CPU seconds of the whole process, every thread
/// included (threads that already exited too), at nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    clock_seconds(PROCESS_CPUTIME)
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .split_whitespace()
        .next()?
        .parse::<f64>()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), MiB, less the
/// calibration table, which is resident from before set-up until after
/// the measured window: what is left is the program's own peak.
pub fn peak_rss_mib() -> f64 {
    let hwm = status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0);
    hwm - (CAL_SLOTS * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall seconds and process CPU seconds elapsed since `start`.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
    allocs: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_seconds(),
            allocs: agb_perf::alloc::allocation_count(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        cpu_seconds() - self.cpu
    }

    pub fn allocs(&self) -> u64 {
        agb_perf::alloc::allocation_count() - self.allocs
    }
}

/// Seconds one unit of calibration work takes on the reference machine
/// (a quiet 2-vCPU VM). Timings scaled by `CAL_REFERENCE_S / measured`
/// read as if taken on that machine.
pub const CAL_REFERENCE_S: f64 = 0.0025;

/// A fixed unit of work shaped like the simulator's hot path: random
/// read-modify-writes over a 256 MiB table, far past the caches, with
/// many misses in flight as the simulator's hash-table probes have. Timed
/// next to the work being measured, it tells how fast the machine's
/// memory system runs at that moment, so a neighbour's load on a shared
/// host is told apart from a change in the program.
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
}

const CAL_SLOTS: usize = 1 << 25;
const CAL_STEPS: usize = 200_000;

impl Calibrator {
    pub fn new() -> Self {
        let table = (0..CAL_SLOTS as u64).collect();
        Calibrator {
            table,
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Wall seconds one unit of calibration work takes now.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = self.state;
        for _ in 0..CAL_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 38) as usize & (CAL_SLOTS - 1);
            self.table[i] = self.table[i].wrapping_add(x);
        }
        self.state = std::hint::black_box(x);
        t.elapsed().as_secs_f64()
    }

    /// Like [`Self::time`], also returning the CPU seconds the
    /// calibration itself used, for callers that measure process CPU
    /// around it.
    pub fn time_with_cpu(&mut self) -> (f64, f64) {
        let cpu = clock_seconds(THREAD_CPUTIME);
        let wall = self.time();
        (wall, clock_seconds(THREAD_CPUTIME) - cpu)
    }

    /// Wall seconds of `f`, scaled to the reference machine by the
    /// calibration time around it; returns `f`'s result too.
    pub fn scaled<T>(&mut self, f: impl FnOnce() -> T) -> (f64, T) {
        let before = self.time();
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        let around = (before + self.time()) / 2.0;
        (wall * CAL_REFERENCE_S / around, out)
    }
}
