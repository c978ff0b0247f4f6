//! Host facts recorded with every result, and the process's peak
//! resident memory.

use std::path::Path;
use std::time::Instant;

/// Where and with what a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFacts {
    /// Cores the process may run on (what `nproc` prints).
    pub nproc: usize,
    /// Threads the workload keeps busy at most.
    pub host_threads: usize,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// The commit measured, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// The one CPU the run was pinned to, if the kernel allowed it.
    pub pinned_cpu: Option<usize>,
}

impl HostFacts {
    /// Collects the facts before the run pins itself; `host_threads`
    /// and `pinned_cpu` are filled in once they are known. The commit
    /// is read from `./.git` when present.
    pub fn collect() -> Self {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            host_threads: 0,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_owned(),
            git_commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_owned()),
            pinned_cpu: None,
        }
    }

    /// The facts as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"host_threads\":{},\"rustc\":\"{}\",\"git_commit\":\"{}\",\"pinned_cpu\":{}}}",
            self.nproc,
            self.host_threads,
            self.rustc.replace('"', "'"),
            self.git_commit,
            self.pinned_cpu.map_or("null".to_owned(), |c| c.to_string())
        )
    }
}

/// Resolves `HEAD` inside the git directory `git_dir` by reading its
/// files (loose ref first, then `packed-refs`) — no `git` process, and
/// nothing outside that directory is touched.
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

/// Words in the kernel's CPU mask (`cpu_set_t`, 1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it starts later,
/// which inherit the mask — to the highest-numbered CPU it may run on,
/// and returns that CPU (`None` when the kernel refuses).
///
/// The host's CPUs are slowed unequally and at different times by
/// other machines' load. A workload whose threads all share one CPU
/// runs where [`probe_ns`] reads the speed, so one probe describes it;
/// threads spread over two CPUs, each slowed differently, cannot be
/// corrected by a probe on either.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// The process's peak resident set size in MiB (`VmHWM`), or 0 where
/// the kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host-speed probe's time on a quiet host, in nanoseconds: what
/// [`probe_ns`] takes when nothing else competes for the core.
pub const PROBE_REF_NS: f64 = 45_000.0;

/// How strongly the frame path slows with the probe: measured on the
/// shared 2-vCPU host over minute-long runs, the rounds' wall time grew
/// as the probe's slowdown to the power 0.78 (`lidar-stream`) and 0.93
/// (`cold-compile`).
pub const PROBE_SENSITIVITY: f64 = 0.9;

/// Times one fixed piece of work — sorting the same 4096 pseudo-random
/// integers — as a reading of how fast the host runs right now.
///
/// The host is shared: other machines' work on the same cores slows
/// this benchmark's rounds by up to 1.9× for stretches of seconds to
/// minutes, and a branchy, cache-using sort slows down with them. The
/// probe is the benchmark's own code, the same on every commit.
pub fn probe_ns() -> u64 {
    thread_local! {
        static INPUT: Vec<u32> = (0..4096u32)
            .map(|i| i.wrapping_mul(2_654_435_761) ^ (i >> 3))
            .collect();
    }
    INPUT.with(|input| {
        let mut work = input.clone();
        let t0 = Instant::now();
        work.sort_unstable();
        std::hint::black_box(&work);
        t0.elapsed().as_nanos() as u64
    })
}

/// Host-speed readings taken through a round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostSpeed {
    samples_ns: Vec<u64>,
}

impl HostSpeed {
    /// Takes one reading.
    pub fn probe(&mut self) {
        self.samples_ns.push(probe_ns());
    }

    /// Wall nanoseconds the readings took.
    pub fn total_ns(&self) -> u64 {
        self.samples_ns.iter().sum()
    }

    /// How much slower than a quiet host the round ran: the median
    /// reading over [`PROBE_REF_NS`], to the power
    /// [`PROBE_SENSITIVITY`] (1 without readings).
    pub fn slowdown(&self) -> f64 {
        slowdown_of(&self.samples_ns)
    }

    /// The slowdown around reading `i`: from the median of the readings
    /// within [`LOCAL_READINGS`] of it, so a call is corrected for the
    /// host's speed while it ran and one disturbed reading does not
    /// decide.
    pub fn slowdown_at(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(LOCAL_READINGS);
        let hi = (i + LOCAL_READINGS + 1).min(self.samples_ns.len());
        slowdown_of(self.samples_ns.get(lo..hi).unwrap_or(&[]))
    }
}

/// Readings on each side that [`HostSpeed::slowdown_at`] looks at.
pub const LOCAL_READINGS: usize = 2;

fn slowdown_of(samples_ns: &[u64]) -> f64 {
    if samples_ns.is_empty() {
        return 1.0;
    }
    let probe = streamgrid_core::nearest_rank(samples_ns, 0.5) as f64;
    (probe / PROBE_REF_NS).powf(PROBE_SENSITIVITY)
}
