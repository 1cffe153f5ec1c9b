//! Host speed, read from a fixed reference kernel next to every timed op.
//!
//! On a shared machine a CPU second does not buy a fixed amount of work:
//! the other tenants of the host (busy sibling hyperthreads, shared caches,
//! clock changes) make the same op take 1.5 times as long for seconds or
//! minutes at a time. The benchmark therefore runs a small kernel of its
//! own right after each timed op, times it in CPU time, and scales the op's
//! CPU time by how much slower or faster than usual the kernel ran. The
//! kernel is a register machine interpreting a fixed pseudo-random program
//! over 128 KiB of memory: branchy, dispatch-bound code like the
//! repository's interpreter, so it feels the same interference. It depends
//! on nothing in the repository, so a change to the program under test
//! cannot change it.

use std::cell::RefCell;
use std::time::Instant;

use crate::stats;

/// Median CPU seconds of one [`kernel_cpu_s`] pass on the machine the
/// benchmark was tuned on (Intel Xeon, family 6 model 207, a 2-vCPU KVM
/// guest), measured with nothing else running. A time scaled by
/// [`Lap::at_host_speed`] reads as it would on that machine at that speed.
pub const REFERENCE_KERNEL_S: f64 = 2.75e-4;

/// Words of kernel memory: 128 KiB, resident in a per-core L2.
const MEM_WORDS: usize = 1 << 15;
/// Instructions of the kernel program.
const CODE_LEN: usize = 2048;
/// Untimed steps that bring the kernel's code and memory back into cache
/// after the op evicted them.
const WARM_STEPS: usize = 20_000;
/// Timed steps.
const STEPS: usize = 100_000;

/// One kernel instruction: opcode, two register operands, an immediate.
#[derive(Clone, Copy)]
struct Instr {
    op: u8,
    a: u8,
    b: u8,
    imm: u32,
}

struct Kernel {
    code: Vec<Instr>,
    pristine: Vec<u32>,
    mem: Vec<u32>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut x = 0x0123_4567_89ab_cdefu64;
        let code = (0..CODE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Instr {
                    op: (x % 12) as u8,
                    a: ((x >> 8) % 8) as u8,
                    b: ((x >> 16) % 8) as u8,
                    imm: (x >> 32) as u32,
                }
            })
            .collect();
        let pristine: Vec<u32> = (0..MEM_WORDS as u32)
            .map(|i| i.wrapping_mul(0x9e37_79b1))
            .collect();
        Kernel {
            code,
            mem: pristine.clone(),
            pristine,
        }
    }

    /// Runs `steps` instructions from the same start state every time, so
    /// every pass does exactly the same work.
    fn run(&mut self, steps: usize) -> u32 {
        self.mem.copy_from_slice(&self.pristine);
        let (code, mem) = (&self.code, &mut self.mem);
        let mask = MEM_WORDS - 1;
        let mut r = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let mut pc = 0;
        for _ in 0..steps {
            let Instr { op, a, b, imm } = code[pc];
            let (a, b) = (usize::from(a), usize::from(b));
            pc += 1;
            match op {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] = r[a].wrapping_sub(imm),
                2 => r[a] ^= r[b].rotate_left(5),
                3 => r[a] = mem[r[b] as usize & mask],
                4 => mem[r[a] as usize & mask] = r[b],
                5 if r[a] & 1 == 0 => pc = imm as usize % CODE_LEN,
                6 => r[a] = r[a].wrapping_mul(r[b] | 1),
                7 if r[a] > r[b] => r.swap(a, b),
                8 => r[a] = imm,
                9 => r[a] >>= r[b] & 7,
                10 if r[a] < imm => pc = r[b] as usize % CODE_LEN,
                11 => r[a] = r[a].wrapping_add(1),
                _ => {}
            }
            if pc == CODE_LEN {
                pc = 0;
            }
        }
        r.iter().fold(0, |acc, &v| acc ^ v)
    }
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::new());
}

/// CPU seconds of one timed kernel pass, after an untimed warm pass.
pub fn kernel_cpu_s() -> f64 {
    KERNEL.with(|k| {
        let mut k = k.borrow_mut();
        std::hint::black_box(k.run(WARM_STEPS));
        let start = stats::process_cpu_s();
        std::hint::black_box(k.run(STEPS));
        stats::process_cpu_s() - start
    })
}

/// What one op cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// CPU seconds of the whole process, all threads.
    pub cpu_s: f64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// `cpu_s` at the reference host speed: `cpu_s` times the host speed
    /// (see [`Lap::at_host_speed`]).
    pub ref_s: f64,
}

impl Cost {
    /// Adds `other` to this cost.
    pub fn add(&mut self, other: Cost) {
        self.cpu_s += other.cpu_s;
        self.wall_s += other.wall_s;
        self.ref_s += other.ref_s;
    }
}

/// Both clocks, started.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts the clocks.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: stats::process_cpu_s(),
        }
    }

    /// Stops the clocks.
    pub fn stop(self) -> Lap {
        Lap {
            cpu_s: stats::process_cpu_s() - self.cpu_s,
            wall_s: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// The clock readings of one op, not yet scaled.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    cpu_s: f64,
    wall_s: f64,
}

impl Lap {
    /// Runs the reference kernel and scales the op's CPU time by the host
    /// speed it shows, [`REFERENCE_KERNEL_S`] over the kernel's time: an op
    /// that ran while the host was 1.5 times slower than usual took 1.5
    /// times its usual CPU time, and so did the kernel right after it.
    pub fn at_host_speed(self) -> Cost {
        let speed = REFERENCE_KERNEL_S / kernel_cpu_s();
        Cost {
            cpu_s: self.cpu_s,
            wall_s: self.wall_s,
            ref_s: self.cpu_s * speed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_pass() {
        let mut k = Kernel::new();
        let first = k.run(STEPS);
        assert_eq!(k.run(WARM_STEPS), Kernel::new().run(WARM_STEPS));
        assert_eq!(k.run(STEPS), first);
    }

    #[test]
    fn costs_add_field_by_field() {
        let mut c = Cost {
            cpu_s: 1.0,
            wall_s: 2.0,
            ref_s: 3.0,
        };
        c.add(c);
        assert_eq!((c.cpu_s, c.wall_s, c.ref_s), (2.0, 4.0, 6.0));
        assert!(kernel_cpu_s() > 0.0);
    }
}
