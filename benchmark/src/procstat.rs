//! What the benchmark reads from `/proc`: on-CPU time of the server's
//! threads, the process's peak resident set, and the host fingerprint.

use std::fs;
use std::path::{Path, PathBuf};

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s on every
/// configuration this repo targets (`getconf CLK_TCK`).
const TICK_NS: u64 = 10_000_000;

/// The threads whose on-CPU time `runtime.server_cpu_us_per_req` charges: the
/// runtime's workers and its acceptor, found by the names the runtime
/// gives them. The generator thread is excluded by construction.
pub struct ServerThreads {
    tasks: Vec<PathBuf>,
    /// `(worker index, thread id)` of every `sdrad-worker-<index>`.
    workers: Vec<(usize, i32)>,
}

impl ServerThreads {
    /// Thread ids are resolved once. A thread names itself as it starts,
    /// so right after the server is started some may not show yet:
    /// [`find_all`](Self::find_all) waits for them.
    pub fn find() -> Self {
        let mut found = ServerThreads {
            tasks: Vec::new(),
            workers: Vec::new(),
        };
        if let Ok(entries) = fs::read_dir("/proc/self/task") {
            for entry in entries.flatten() {
                let comm = fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
                let comm = comm.trim();
                let worker = comm.strip_prefix("sdrad-worker-");
                if worker.is_some() || comm == "sdrad-acceptor" {
                    found.tasks.push(entry.path());
                }
                let tid = entry.file_name().to_str().and_then(|t| t.parse().ok());
                if let (Some(Ok(index)), Some(tid)) = (worker.map(str::parse), tid) {
                    found.workers.push((index, tid));
                }
            }
        }
        found
    }

    /// Waits (up to a second) until `expected` server threads show.
    pub fn find_all(expected: usize) -> Result<Self, String> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
        loop {
            let found = Self::find();
            if found.count() == expected {
                return Ok(found);
            }
            if std::time::Instant::now() > deadline {
                return Err(format!(
                    "found {} server threads, expected {expected}",
                    found.count()
                ));
            }
            std::thread::yield_now();
        }
    }

    /// Pins worker `i` to `cpus[i]`, for as many workers as `cpus` names
    /// (further workers, such as the blast-pit shard, float). Returns
    /// whether every pin took.
    pub fn pin_workers(&self, cpus: &[usize]) -> bool {
        self.workers
            .iter()
            .filter_map(|&(index, tid)| Some((tid, *cpus.get(index)?)))
            .all(|(tid, cpu)| affinity::set(tid, &[cpu]))
    }

    pub fn count(&self) -> usize {
        self.tasks.len()
    }

    /// Total on-CPU nanoseconds of the server threads so far.
    pub fn cpu_ns(&self) -> u64 {
        self.tasks.iter().map(|task| task_cpu_ns(task)).sum()
    }
}

/// On-CPU nanoseconds of the calling thread.
pub fn this_thread_cpu_ns() -> u64 {
    task_cpu_ns(Path::new("/proc/thread-self"))
}

/// `schedstat`'s first field is the task's on-CPU time in ns; kernels
/// built without scheduler statistics leave the file out, and `stat`'s
/// utime + stime (10 ms ticks) is the fallback.
fn task_cpu_ns(task: &Path) -> u64 {
    let schedstat = fs::read_to_string(task.join("schedstat")).ok();
    if let Some(ns) = schedstat
        .as_deref()
        .and_then(|s| s.split_whitespace().next())
        .and_then(|f| f.parse::<u64>().ok())
    {
        return ns;
    }
    let stat = fs::read_to_string(task.join("stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line, i.e. 12th and 13th after it.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * TICK_NS
}

/// CPU time the hypervisor gave to someone else while this guest wanted
/// to run (`steal` of `/proc/stat`'s first line), in nanoseconds over all
/// CPUs. 0 where the kernel does not account it.
pub fn stolen_ns() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|steal| steal.parse::<u64>().ok())
        .unwrap_or(0);
    ticks * TICK_NS
}

/// CPU affinity, through the two libc calls `std` does not wrap.
pub mod affinity {
    /// Words in a CPU mask: 1024 CPUs, glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending; empty when the
    /// kernel refuses to say.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; the kernel writes at most that many bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Restricts thread `tid` (0 = the caller) to `cpus`. Returns whether
    /// the kernel accepted it.
    pub fn set(tid: i32, cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the byte length
        // passed, and the kernel only reads it.
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// What a number from this benchmark must be read against.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
}

impl Host {
    pub fn read() -> Self {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|line| line.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or_else(
                || "unknown".to_string(),
                |(_, model)| model.trim().to_string(),
            );
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_named_server_threads_and_their_cpu_time_advances() {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let spawn = |name: &str| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
                .unwrap()
        };
        let handles = [spawn("sdrad-worker-7"), spawn("bystander")];
        // The name is set by the new thread itself: wait until it shows.
        // (Other tests may run runtimes of their own, hence `>=`.)
        let threads = loop {
            let found = ServerThreads::find();
            if found.count() >= 1 {
                break found;
            }
            std::thread::yield_now();
        };
        let before = threads.cpu_ns();
        let started = std::time::Instant::now();
        while threads.cpu_ns() == before && started.elapsed().as_secs() < 5 {
            std::thread::yield_now();
        }
        assert!(threads.cpu_ns() > before);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for handle in handles {
            handle.join().unwrap();
        }
        assert!(peak_rss_mb() > 0.0);
        assert!(Host::read().nproc >= 1);
    }
}
