//! Kernel CPU and scheduling accounting from `/proc`.
//!
//! Per thread (`/proc/self/task/<tid>/`): on-CPU time from `schedstat`
//! (nanoseconds), voluntary and involuntary context switches from
//! `status`, and the thread name from `comm`. Per process: user + system
//! time from `/proc/self/stat` (clock ticks of 10 ms) and the resident-set
//! high-water mark from `/proc/self/status`. The two CPU sources are read
//! independently, so their difference is the conservation residual. Per
//! machine: the time the hypervisor gave this VM's CPUs to someone else
//! (steal), from `/proc/stat`.

use std::fs;
use std::io;
use std::path::Path;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, fixed at 100
/// per second on every mainstream architecture.
pub const NS_PER_TICK: u64 = 10_000_000;

/// One thread's counters at a point in time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSample {
    pub tid: u32,
    /// The kernel's copy of the thread name, truncated to 15 bytes.
    pub name: String,
    pub cpu_ns: u64,
    pub voluntary: u64,
    pub involuntary: u64,
}

/// First field of a `schedstat` line: time spent on the CPU, in ns.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `(voluntary, involuntary)` context switches from a `status` file.
pub fn parse_ctxt_switches(status: &str) -> Option<(u64, u64)> {
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
    };
    Some((
        field("voluntary_ctxt_switches:")?,
        field("nonvoluntary_ctxt_switches:")?,
    ))
}

/// `VmHWM` (peak resident set) in KiB from a `status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// `utime + stime` ticks from a `stat` line. The command name sits in
/// parentheses and may itself contain spaces or parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state(3) ... utime is field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `(steal ticks summed over every CPU, CPU count)` from `/proc/stat`:
/// the `steal` column (the eighth value) of the aggregate `cpu` line, and
/// the number of `cpuN` lines.
pub fn parse_steal(proc_stat: &str) -> Option<(u64, usize)> {
    let total = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal = total.split_whitespace().nth(8)?.parse().ok()?;
    let cpus = proc_stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    (cpus > 0).then_some((steal, cpus))
}

/// Steal time of this VM so far, as `(ns summed over every CPU, CPU count)`.
pub fn steal_ns() -> (u64, usize) {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let (ticks, cpus) = parse_steal(&stat).expect("/proc/stat parses");
    (ticks * NS_PER_TICK, cpus)
}

/// Read every thread under a `task` directory (`/proc/self/task` in
/// production, a fixture tree in tests), sorted by tid. A thread that
/// exits while being read is skipped.
pub fn read_tasks(task_dir: &Path) -> io::Result<Vec<TaskSample>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(task_dir)? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = entry.path();
        let read = |f: &str| fs::read_to_string(dir.join(f));
        let (Ok(comm), Ok(sched), Ok(status)) = (read("comm"), read("schedstat"), read("status"))
        else {
            continue;
        };
        let bad =
            |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{what} of {tid}"));
        let cpu_ns = parse_schedstat(&sched).ok_or_else(|| bad("schedstat"))?;
        let (voluntary, involuntary) = parse_ctxt_switches(&status).ok_or_else(|| bad("status"))?;
        out.push(TaskSample {
            tid,
            name: comm.trim_end_matches('\n').to_string(),
            cpu_ns,
            voluntary,
            involuntary,
        });
    }
    out.sort_by_key(|t| t.tid);
    Ok(out)
}

/// This process's threads.
pub fn self_tasks() -> Vec<TaskSample> {
    read_tasks(Path::new("/proc/self/task")).expect("/proc/self/task is readable")
}

/// CPU time of every live thread of this process, in ns, summed from the
/// threads' `schedstat` (nanosecond resolution).
pub fn threads_cpu_ns() -> u64 {
    self_tasks().iter().map(|t| t.cpu_ns).sum()
}

/// Whole-process CPU time (user + system, all threads), in ns.
pub fn process_cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_ticks(&stat).expect("/proc/self/stat parses") * NS_PER_TICK
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&status).expect("VmHWM present") as f64 / 1024.0
}

/// Which accounting row a thread belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// The thread that drives the load (the process's main thread).
    App,
    /// The engine group's shard worker (`cowbird-engine-shard-N`, shown
    /// truncated as `cowbird-engine-`).
    Engine,
    /// An emulated NIC's service thread, `emu-nic-N`.
    Nic(u32),
    Other,
}

/// Classify a thread by tid (the main thread's tid is the pid) and name.
pub fn role_of(task: &TaskSample, pid: u32) -> Role {
    if task.tid == pid {
        Role::App
    } else if let Some(n) = task
        .name
        .strip_prefix("emu-nic-")
        .and_then(|n| n.parse().ok())
    {
        Role::Nic(n)
    } else if task.name.starts_with("cowbird-engine") {
        Role::Engine
    } else {
        Role::Other
    }
}

/// Per-role totals: CPU ns, voluntary and involuntary switches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoleTotals {
    pub cpu_ns: u64,
    pub voluntary: u64,
    pub involuntary: u64,
}

/// Accumulates per-role deltas between snapshot pairs, plus the process
/// CPU delta over the same intervals.
#[derive(Default)]
pub struct CpuLedger {
    pub rows: std::collections::BTreeMap<Role, RoleTotals>,
    pub process_ns: u64,
    start: Option<(Vec<TaskSample>, u64)>,
}

impl CpuLedger {
    pub fn begin(&mut self) {
        self.start = Some((self_tasks(), process_cpu_ns()));
    }

    /// Close the interval opened by [`CpuLedger::begin`]. A thread seen
    /// only at the end is counted from zero (it started in the interval).
    pub fn end(&mut self) {
        let process = process_cpu_ns();
        let after = self_tasks();
        let (before, p0) = self.start.take().expect("end without begin");
        self.process_ns += process - p0;
        self.add_deltas(&before, &after, std::process::id());
    }

    fn add_deltas(&mut self, before: &[TaskSample], after: &[TaskSample], pid: u32) {
        for t in after {
            let prev = before.iter().find(|b| b.tid == t.tid);
            let row = self.rows.entry(role_of(t, pid)).or_default();
            row.cpu_ns += t.cpu_ns - prev.map_or(0, |p| p.cpu_ns);
            row.voluntary += t.voluntary - prev.map_or(0, |p| p.voluntary);
            row.involuntary += t.involuntary - prev.map_or(0, |p| p.involuntary);
        }
    }

    pub fn row(&self, role: Role) -> RoleTotals {
        self.rows.get(&role).copied().unwrap_or_default()
    }

    /// Sum of every thread row.
    pub fn threads_ns(&self) -> u64 {
        self.rows.values().map(|r| r.cpu_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fixture() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/proc_task")
    }

    #[test]
    fn parses_fixture_task_tree() {
        let tasks = read_tasks(&fixture()).unwrap();
        let names: Vec<_> = tasks.iter().map(|t| (t.tid, t.name.as_str())).collect();
        assert_eq!(
            names,
            [
                (4100, "perfbench"),
                (4101, "emu-nic-0"),
                (4104, "cowbird-engine-")
            ]
        );
        assert_eq!(tasks[0].cpu_ns, 5_270_114_933);
        assert_eq!((tasks[1].voluntary, tasks[1].involuntary), (91_233, 402));
        assert_eq!(tasks[2].cpu_ns, 3_911_000_517);
        let roles: Vec<_> = tasks.iter().map(|t| role_of(t, 4100)).collect();
        assert_eq!(roles, [Role::App, Role::Nic(0), Role::Engine]);
    }

    #[test]
    fn stat_line_with_hostile_comm() {
        let line = "4100 (we ird) (x) R 1 4100 1 0 -1 4194304 82 0 0 0 250 31 0 0 20 0 5 0 211828";
        assert_eq!(parse_stat_cpu_ticks(line), Some(281));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn steal_from_proc_stat() {
        let stat = "cpu  1441378 0 745429 1060826 685 0 1288 67475 0 0\n\
                    cpu0 808133 0 429787 386542 508 0 331 30913 0 0\n\
                    cpu1 633245 0 315642 674283 176 0 957 36561 0 0\n\
                    intr 1 2 3\nctxt 99\n";
        assert_eq!(parse_steal(stat), Some((67475, 2)));
        assert_eq!(parse_steal("intr 1 2 3\n"), None);
    }

    #[test]
    fn status_fields() {
        let status = std::fs::read_to_string(fixture().join("4100/status")).unwrap();
        assert_eq!(parse_vm_hwm_kib(&status), Some(141_312));
        assert_eq!(parse_ctxt_switches(&status), Some((1_027, 3_318)));
        assert_eq!(parse_ctxt_switches("Name: x\n"), None);
        assert_eq!(parse_schedstat("12 34 5\n"), Some(12));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn ledger_counts_deltas_and_new_threads() {
        let t = |tid, name: &str, cpu, v, i| TaskSample {
            tid,
            name: name.into(),
            cpu_ns: cpu,
            voluntary: v,
            involuntary: i,
        };
        let before = [t(1, "main", 100, 1, 1), t(2, "emu-nic-1", 50, 5, 0)];
        let after = [
            t(1, "main", 300, 2, 1),
            t(2, "emu-nic-1", 80, 9, 1),
            t(3, "helper", 7, 1, 0),
        ];
        let mut l = CpuLedger::default();
        l.add_deltas(&before, &after, 1);
        assert_eq!(l.row(Role::App).cpu_ns, 200);
        assert_eq!(
            l.row(Role::Nic(1)),
            RoleTotals {
                cpu_ns: 30,
                voluntary: 4,
                involuntary: 1
            }
        );
        assert_eq!(l.row(Role::Other).cpu_ns, 7);
        assert_eq!(l.threads_ns(), 237);
    }
}
