//! Best-effort CPU pinning for shard worker threads.
//!
//! Each shard's executor thread is pinned to a disjoint slice of the
//! machine's cores so shard-local scans (whose scoped worker threads
//! inherit the executor's affinity mask) do not migrate onto cores
//! owned by a sibling shard. Pinning is strictly an optimization: on
//! non-Linux targets, or when `sched_setaffinity` fails, execution
//! proceeds unpinned.

/// Maximum CPUs representable in our hand-rolled `cpu_set_t` (16
/// 64-bit words, matching glibc's 1024-bit default).
const MAX_CPUS: usize = 1024;

#[cfg(target_os = "linux")]
mod sys {
    /// Mirror of glibc's `cpu_set_t`: a 1024-bit CPU mask.
    #[repr(C)]
    pub struct CpuSet {
        pub bits: [u64; 16],
    }

    extern "C" {
        /// `sched_setaffinity(2)`; pid 0 targets the calling thread.
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// Pins the calling thread to the given core ids (best effort). Cores
/// beyond [`MAX_CPUS`] are ignored; an empty effective set is a no-op.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cores: &[usize]) {
    let mut set = sys::CpuSet { bits: [0; 16] };
    let mut any = false;
    for &c in cores {
        if c < MAX_CPUS {
            set.bits[c / 64] |= 1u64 << (c % 64);
            any = true;
        }
    }
    if any {
        // Failure leaves the thread unpinned, which is always safe.
        // SAFETY: `set` is a live, initialized `cpu_set_t` mirror and the
        // size passed is exactly its size, so the kernel reads only
        // memory we own; pid 0 names the calling thread.
        unsafe { sys::sched_setaffinity(0, std::mem::size_of::<sys::CpuSet>(), &set) };
    }
}

/// No-op fallback for non-Linux targets.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cores: &[usize]) {}

/// Splits `ncpu` cores into `shards` disjoint contiguous slices,
/// returning the slice for `shard`. With fewer cores than shards the
/// assignment wraps (shard *i* gets core *i* mod `ncpu`).
pub fn cores_for_shard(shard: usize, shards: usize, ncpu: usize) -> Vec<usize> {
    if ncpu == 0 || shards == 0 {
        return Vec::new();
    }
    let per = ncpu / shards;
    if per == 0 {
        return vec![shard % ncpu];
    }
    (shard * per..(shard + 1) * per).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_contiguous_slices() {
        let a = cores_for_shard(0, 4, 8);
        let b = cores_for_shard(1, 4, 8);
        assert_eq!(a, vec![0, 1]);
        assert_eq!(b, vec![2, 3]);
    }

    #[test]
    fn wraps_when_oversubscribed() {
        assert_eq!(cores_for_shard(5, 8, 4), vec![1]);
    }

    #[test]
    fn pin_is_best_effort() {
        // Must not panic even for out-of-range or empty sets.
        pin_current_thread(&[]);
        pin_current_thread(&[usize::MAX]);
        pin_current_thread(&cores_for_shard(0, 1, 2));
    }
}
