//! Core rotation for one-thread passes.
//!
//! A thread that runs alone mostly stays on the core it started on, and
//! the cores of a shared virtual machine are not equally fast: on a
//! 2-vCPU Intel Xeon guest the same `serve` pass ran 18% slower on one
//! vCPU than on the other, for minutes at a time, so a run's figures
//! depended on the core it happened to land on. A [`Rotation`] pins
//! the `i`-th pass to the `i`-th allowed core, round robin, so that every
//! run samples every core alike.

/// Round-robin placement of a thread's passes over the allowed cores.
/// Dropping it lifts the pin.
pub struct Rotation {
    cpus: Vec<usize>,
}

impl Rotation {
    /// Rotates over every core this process may run on; does nothing
    /// when `enabled` is false, when there is one core, or off Linux.
    pub fn new(enabled: bool) -> Self {
        let cpus = if enabled { sys::allowed() } else { Vec::new() };
        Rotation {
            cpus: if cpus.len() > 1 { cpus } else { Vec::new() },
        }
    }

    /// Passes in one full round: every core once.
    pub fn round(&self) -> usize {
        self.cpus.len().max(1)
    }

    /// Pins the calling thread (and the threads it spawns from now on)
    /// to the core of pass `i`.
    pub fn enter(&self, i: usize) {
        if !self.cpus.is_empty() {
            sys::pin(&[self.cpus[i % self.cpus.len()]]);
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            sys::pin(&self.cpus);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: a 1024-bit mask.
    type CpuSet = [u64; 16];
    const BITS: usize = 16 * 64;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The cores the calling thread may run on, ascending; empty when
    /// the kernel does not say.
    pub fn allowed() -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if rc != 0 {
            return Vec::new();
        }
        (0..BITS)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; a refusal leaves it
    /// where it was.
    pub fn pin(cpus: &[usize]) {
        let mut mask: CpuSet = [0; 16];
        for &c in cpus.iter().filter(|&&c| c < BITS) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_: &[usize]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_visits_every_core_and_lifts_the_pin() {
        let before = sys::allowed();
        {
            let rotation = Rotation::new(true);
            for (i, &cpu) in before.iter().enumerate().take(rotation.round()) {
                rotation.enter(i);
                if rotation.round() > 1 {
                    assert_eq!(sys::allowed(), vec![cpu]);
                }
            }
        }
        assert_eq!(sys::allowed(), before);
    }

    #[test]
    fn disabled_rotation_is_one_pass_a_round() {
        assert_eq!(Rotation::new(false).round(), 1);
    }
}
