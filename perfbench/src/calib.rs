//! Host speed: a fixed reference computation timed beside every pass, so
//! that timings can be stated at one reference speed of the host.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants
//! change how fast those cores run the simulator's kind of code — branchy
//! interpretation with small-table loads and floating-point state
//! updates — by a factor of two and more, for minutes at a time, while a
//! dependent integer chain runs at the same speed throughout. So a raw
//! wall time says as much about the neighbours as about the program.
//! [`kernel`] is code of the same kind that depends on nothing in the
//! workspace: no change to the program can make it faster or slower.
//! [`HostSpeed::around`] times a slice of it on the workloads' worker
//! threads before and after each pass, and the pass's timings are scaled
//! by [`REF_UNIT_S`] ÷ the slices' mean time per unit. A scaled time is
//! what the pass would have taken on a host running the kernel at the
//! reference speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::THREADS;

/// Interpreter steps in one unit of reference work.
const UNIT_STEPS: u64 = 100_000;

/// Wall time of one unit on one thread at the reference host speed:
/// about the fastest the 2-vCPU KVM guest (Xeon, 2.1 GHz nominal) the
/// benchmark was built on ran it; its slowest was about twice this.
/// Scaled times are seconds at this speed.
pub const REF_UNIT_S: f64 = 150e-6;

/// What [`kernel`] returns for one unit; checked on every slice so the
/// work cannot be optimised away or go wrong unnoticed.
pub const UNIT_CHECKSUM: u64 = 0x8cf1_a750_5bb8_e938;

/// The register machine's program: a fixed loop of 16 operations.
const PROGRAM: [u8; 16] = [0, 1, 2, 3, 1, 4, 0, 2, 5, 3, 1, 0, 4, 2, 5, 1];

/// One unit of reference work: a register machine running [`PROGRAM`]
/// over 8 KiB of memory, with an integer–float round trip every few
/// steps. Like the simulator, it issues several independent operations
/// per cycle, mostly with well-predicted branches — the kind of code that
/// slows most when another tenant shares the core. (A kernel dominated by
/// mispredicted branches or one dependent chain barely slows then.)
/// Returns a checksum of the final state.
pub fn kernel(seed: u64) -> u64 {
    let mut reg = [seed, 2, 3, 4, 5, 6, 7, 8];
    let mut mem = [0u16; 4096];
    let mut pc = 0usize;
    for step in 0..UNIT_STEPS {
        match PROGRAM[pc & 15] {
            0 => reg[0] = reg[0].wrapping_add(reg[1] ^ step),
            1 => reg[1] = reg[1].rotate_left(5) ^ reg[2],
            2 => {
                let at = (reg[2] as usize) & 4095;
                mem[at] = mem[at].wrapping_add(reg[3] as u16);
                reg[2] = reg[2].wrapping_add(u64::from(mem[(reg[0] as usize) & 4095]) + 1);
            }
            3 => {
                if reg[3] & 1 == 0 {
                    pc += 1;
                }
                reg[3] = reg[3].wrapping_mul(3).wrapping_add(1);
            }
            4 => reg[4] = reg[4].wrapping_sub(reg[0] >> 3),
            _ => reg[5] = (reg[5] as f64 * 0.999 + reg[4] as f64 * 1e-9) as u64,
        }
        pc += 1;
    }
    reg.iter()
        .fold(u64::from(mem[7]), |sum, r| sum.rotate_left(7) ^ r)
}

/// Times `units` units of [`kernel`] pulled from a shared counter by
/// [`THREADS`] threads, as the sweep engine's workers pull cells; returns
/// the wall time per unit and thread, s, and whether every unit gave
/// [`UNIT_CHECKSUM`].
pub fn slice(units: u64) -> (f64, bool) {
    let taken = AtomicU64::new(0);
    let wrong = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                while taken.fetch_add(1, Ordering::Relaxed) < units {
                    if kernel(std::hint::black_box(1)) != UNIT_CHECKSUM {
                        wrong.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let per_unit = started.elapsed().as_secs_f64() * THREADS as f64 / units as f64;
    (per_unit, wrong.load(Ordering::Relaxed) == 0)
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, set_size: usize, set: *const u64) -> i32;
}

/// Binds the calling thread, and every thread it starts from then on, to
/// the vCPU it is running on, and returns that vCPU. The two vCPUs of a
/// shared host slow down independently; bound to one, the reference
/// slices time the vCPU the workload runs on. `None` when the system
/// refuses, and the run goes on unbound.
pub fn bind_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments. `sched_setaffinity` reads
    // `set_size` bytes from `set`, which points at a live array of exactly
    // that size, and pid 0 names the calling thread.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut set = [0u64; 16];
    *set.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    let done = unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) };
    (done == 0).then_some(cpu)
}

/// Times reference slices around passes and turns them into scale
/// factors for the passes' timings.
pub struct HostSpeed {
    /// Units per slice; 0 leaves every timing as measured.
    units: u64,
    /// The slice after the previous pass, which is also before the next.
    last: Option<f64>,
    /// Every slice's time per unit, s.
    pub unit_s: Vec<f64>,
    /// Every pass's factor.
    pub factors: Vec<f64>,
    /// Slices whose kernel gave a wrong checksum.
    pub wrong: u64,
}

impl HostSpeed {
    /// Slices of `units` units; `units = 0` turns scaling off (factor 1).
    pub fn new(units: u64) -> Self {
        HostSpeed {
            units,
            last: None,
            unit_s: Vec::new(),
            factors: Vec::new(),
            wrong: 0,
        }
    }

    fn measure(&mut self) -> f64 {
        let (unit_s, ok) = slice(self.units);
        self.unit_s.push(unit_s);
        self.wrong += u64::from(!ok);
        unit_s
    }

    /// Runs `pass` between two slices and returns its result with the
    /// factor that scales its timings to the reference speed:
    /// [`REF_UNIT_S`] ÷ the mean time per unit of the two slices.
    pub fn around<T>(&mut self, pass: impl FnOnce() -> T) -> (T, f64) {
        if self.units == 0 {
            return (pass(), 1.0);
        }
        let before = match self.last {
            Some(s) => s,
            None => self.measure(),
        };
        let result = pass();
        let after = self.measure();
        self.last = Some(after);
        let factor = REF_UNIT_S / ((before + after) / 2.0);
        self.factors.push(factor);
        (result, factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_checked() {
        assert_eq!(kernel(1), UNIT_CHECKSUM);
        assert_ne!(kernel(2), UNIT_CHECKSUM);
        let (unit_s, ok) = slice(8);
        assert!(ok && unit_s > 0.0);
    }

    #[test]
    fn binding_keeps_the_thread_on_its_cpu() {
        let bound = std::thread::spawn(|| {
            let cpu = bind_to_current_cpu();
            // SAFETY: `sched_getcpu` takes no arguments.
            let inner = std::thread::spawn(|| unsafe { sched_getcpu() })
                .join()
                .unwrap();
            (cpu, usize::try_from(inner).ok())
        });
        let (cpu, inner) = bound.join().unwrap();
        assert!(cpu.is_some());
        assert_eq!(cpu, inner, "threads started later inherit the binding");
    }

    #[test]
    fn a_factor_comes_from_the_slices_on_both_sides() {
        let mut speed = HostSpeed::new(4);
        let (value, factor) = speed.around(|| 7);
        assert_eq!(value, 7);
        assert_eq!(speed.unit_s.len(), 2);
        let mean = (speed.unit_s[0] + speed.unit_s[1]) / 2.0;
        assert!((factor - REF_UNIT_S / mean).abs() < 1e-12);
        speed.around(|| ());
        assert_eq!(speed.unit_s.len(), 3, "the slice after a pass is reused");
        assert_eq!(HostSpeed::new(0).around(|| 1), (1, 1.0));
    }
}
