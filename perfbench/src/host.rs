//! Host-speed normalisation.
//!
//! The benchmark runs on a few cores of a shared machine whose speed
//! moves with its neighbours' load: the same pure-CPU loop has taken
//! 0.19 s in one minute and 0.33 s a few minutes later. Such a shift
//! moves every timed operation of a run together, and no sizing inside
//! a run removes it.
//!
//! So every timed operation is bracketed by readings of a fixed
//! reference kernel that calls no code of the simulator: a chain of
//! dependent integer operations in registers, which measures how fast
//! the core runs and nothing the program could change (it touches no
//! memory, so the program's cache footprint cannot move it). A long
//! pass that can be split is timed in short chunks, each bracketed the
//! same way. The host's slowdown around an operation is the kernel's
//! time against its time on the measuring host ([`KERNEL_NOMINAL_S`]),
//! raised to the workload's sensitivity and averaged over the readings
//! before and after it, and the operation is reported at the nominal
//! speed: its wall time ÷ that slowdown. When the whole host slows, the
//! operation and the kernel slow together and the figure stays; a
//! change to the simulator moves the operation but not the kernel, so
//! it shows in full. Raw wall times and the readings are printed on the
//! `info` line beside the normalised figures.
//!
//! The sensitivity is how much more a workload slows than the kernel
//! when the host does: memory-heavy code loses more to a busy
//! neighbour than a register loop does. Each workload states its own,
//! fitted on the measuring host (`NOTES.md` has the fits). A chase of
//! dependent loads through a large table was tried as a second part of
//! the kernel and dropped: it added little, and its time depended on
//! how much of the table the workload had left in cache, which a change
//! to the program would move. What a reading cannot follow is left to
//! medians over many chunks and operations.

use std::hint::black_box;
use std::time::Instant;

/// Dependent register operations per kernel run (about 2 ms).
const OPS: u32 = 1_000_000;
/// A kernel run's typical time on the measuring host (2-vCPU Xeon
/// guest).
const KERNEL_NOMINAL_S: f64 = 0.0021;

/// The reference kernel's readings so far.
pub struct HostClock {
    /// How much more the workload slows than the kernel: the exponent
    /// applied to the kernel's slowdown.
    sensitivity: f64,
    /// Kernel runs per reading (the reading is their mean).
    runs_per_reading: usize,
    /// The latest reading's slowdown: the bracket before the next
    /// operation.
    last: Option<f64>,
    /// Every reading, in seconds per kernel run.
    readings: Vec<f64>,
}

/// One timed operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    /// Wall time in seconds.
    pub wall_s: f64,
    /// Nominal ÷ actual host speed around the operation: the factor
    /// that turns this operation's wall times into normalised ones.
    pub factor: f64,
}

impl Timed {
    /// The operation's time at nominal host speed, in seconds.
    pub fn norm_s(&self) -> f64 {
        self.wall_s * self.factor
    }
}

impl HostClock {
    /// Take a first reading, for a workload of the given
    /// `sensitivity`. Each reading is the mean of `runs_per_reading`
    /// kernel runs.
    pub fn new(sensitivity: f64, runs_per_reading: usize) -> HostClock {
        let mut clock = HostClock {
            sensitivity,
            runs_per_reading: runs_per_reading.max(1),
            last: None,
            readings: Vec::new(),
        };
        clock.reading();
        clock
    }

    /// One kernel run, in seconds.
    fn kernel() -> f64 {
        let mut h: u64 = black_box(0x243F_6A88_85A3_08D3);
        let t = Instant::now();
        for _ in 0..OPS {
            h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53).rotate_left(23) ^ 0x1B87_3593;
        }
        black_box(h);
        t.elapsed().as_secs_f64()
    }

    /// A reading: the mean of a few kernel runs. Returns the host's
    /// slowdown against nominal.
    fn reading(&mut self) -> f64 {
        let runs = self.runs_per_reading;
        let mean = (0..runs).map(|_| Self::kernel()).sum::<f64>() / runs as f64;
        self.readings.push(mean);
        let slowdown = (mean / KERNEL_NOMINAL_S).powf(self.sensitivity);
        self.last = Some(slowdown);
        slowdown
    }

    /// Run `f`, timing it by the wall clock between the latest reading
    /// and a fresh one taken right after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let mut since = Instant::now();
        let value = f();
        (value, self.lap(&mut since))
    }

    /// Time a lap of a long call from inside it (from a callback the
    /// call makes): the wall time since `*since`, between the latest
    /// reading and a fresh one. Restarts `*since` after the fresh
    /// reading, so readings are never counted in a lap.
    pub fn lap(&mut self, since: &mut Instant) -> Timed {
        let wall_s = since.elapsed().as_secs_f64();
        let before = self.last.unwrap_or(1.0);
        let after = self.reading();
        *since = Instant::now();
        Timed {
            wall_s,
            factor: 2.0 / (before + after),
        }
    }

    /// Run `f` over `items` in chunks of `chunk`, timing each chunk
    /// like [`HostClock::time`]. `f` gets the chunk and the value the
    /// previous chunk returned (`init` for the first), so a digest can
    /// chain across chunks exactly as over one call, and `after` gets
    /// each chunk's timing right after it. Returns the last value and
    /// the pass's total wall time and total normalised time.
    pub fn time_chunks<I, T>(
        &mut self,
        items: &[I],
        chunk: usize,
        init: T,
        mut f: impl FnMut(&[I], T) -> T,
        mut after: impl FnMut(Timed),
    ) -> (T, Timed) {
        let (mut wall_s, mut norm_s) = (0.0, 0.0);
        let mut value = init;
        for part in items.chunks(chunk.max(1)) {
            let (v, timed) = self.time(|| f(part, value));
            value = v;
            wall_s += timed.wall_s;
            norm_s += timed.norm_s();
            after(timed);
        }
        let factor = if wall_s > 0.0 { norm_s / wall_s } else { 1.0 };
        (value, Timed { wall_s, factor })
    }

    /// Note the readings on the `info` line.
    pub fn note(&self, out: &mut crate::measure::Outcome) {
        let ms: Vec<String> = self
            .readings
            .iter()
            .map(|r| format!("{:.3}", r * 1e3))
            .collect();
        out.note("host.sensitivity", self.sensitivity);
        out.note("host.kernel_ms", ms.join(","));
    }
}
