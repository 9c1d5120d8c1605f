//! Host facts: CPU affinity, resident memory, and the provenance header.

use std::process::Command;

/// CPUs this process may run on, from `Cpus_allowed_list`.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => {
                if let (Ok(a), Ok(b)) = (a.parse::<usize>(), b.parse::<usize>()) {
                    cpus.extend(a..=b);
                }
            }
            None => cpus.extend(part.parse::<usize>().ok()),
        }
    }
    if cpus.is_empty() {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        cpus.extend(0..n);
    }
    cpus
}

/// How the server and the load generator share the CPUs.
#[derive(Debug, Clone)]
pub struct Pinning {
    /// CPUs for the server process (`taskset -c`) and for in-process
    /// service threads; empty = unpinned.
    pub server: Vec<usize>,
    /// CPUs for the generator threads; empty = unpinned.
    pub generator: Vec<usize>,
}

impl Pinning {
    /// No pinning at all.
    pub fn none() -> Self {
        Pinning {
            server: Vec::new(),
            generator: Vec::new(),
        }
    }

    /// Server on all CPUs but the last, generator on the last; unpinned
    /// on a single-CPU host or when `taskset` is missing.
    pub fn split() -> Self {
        let cpus = allowed_cpus();
        let have_taskset = Command::new("taskset")
            .arg("-V")
            .output()
            .is_ok_and(|o| o.status.success());
        if cpus.len() < 2 || !have_taskset {
            return Pinning::none();
        }
        let (server, generator) = cpus.split_at(cpus.len() - 1);
        Pinning {
            server: server.to_vec(),
            generator: generator.to_vec(),
        }
    }

    /// `taskset -c` list for the server, if pinned.
    pub fn server_list(&self) -> Option<String> {
        (!self.server.is_empty()).then(|| cpu_list(&self.server))
    }

    /// Human-readable description for the provenance header.
    pub fn describe(&self) -> String {
        if self.server.is_empty() {
            "unpinned".to_string()
        } else {
            format!(
                "server cpus {} (taskset), generator cpus {}",
                cpu_list(&self.server),
                cpu_list(&self.generator)
            )
        }
    }
}

fn cpu_list(cpus: &[usize]) -> String {
    cpus.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and threads it spawns afterwards) to
/// `cpus`; an empty list means every allowed CPU. Returns `false` when
/// the kernel refuses.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let cpus = if cpus.is_empty() {
        allowed_cpus()
    } else {
        cpus.to_vec()
    };
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    for c in cpus.into_iter().filter(|&c| c < 64 * WORDS) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: pid 0 names the calling thread; the mask is a valid, fully
    // initialised buffer of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

mod ffi {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    pub const POLLIN: i16 = 1;
    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
}

/// Waits until `fd` is readable or `timeout` passed, with the
/// high-resolution timer `ppoll` uses (socket receive timeouts tick in
/// scheduler jiffies, far too coarse for an open-loop schedule).
pub fn wait_readable(fd: i32, timeout: std::time::Duration) -> std::io::Result<bool> {
    let mut pfd = ffi::PollFd {
        fd,
        events: ffi::POLLIN,
        revents: 0,
    };
    let ts = ffi::Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: one valid pollfd, a valid timespec, and no signal mask.
    let r = unsafe { ffi::ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match r {
        0 => Ok(false),
        r if r > 0 => Ok(true),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB; 0 if unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance header every result carries, as one JSON object.
pub fn provenance(pinning: &Pinning) -> String {
    let revision = std::env::var("PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"detect_isa\": \"{}\", \"available_parallelism\": {}, \"nproc\": \"{}\", \
         \"rustc\": \"{}\", \"revision\": \"{}\", \"pinning\": \"{}\"}}",
        ibcf_core::detect_isa().name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("nproc", &[]),
        command_line("rustc", &["--version"]),
        revision,
        pinning.describe()
    )
}
