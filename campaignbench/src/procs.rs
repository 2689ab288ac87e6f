//! Child processes run under a time limit.
//!
//! Every measured phase runs in a child process, so an input or a campaign
//! that misses its limit can be stopped cleanly: the child (and, for the
//! fleet, its whole process group) is killed and waited for, and the phase
//! is reported as stopped instead of hanging the run.

use std::collections::BTreeMap;
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often limits are checked, and a stopped group for members still
/// alive.
const POLL: Duration = Duration::from_millis(10);

pub struct Job {
    pub program: PathBuf,
    pub args: Vec<String>,
    pub limit: Duration,
    /// Run in a process group of its own and stop every member (a fleet
    /// coordinator and its workers).
    pub group: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// Exited by itself, successfully or not.
    Exited { success: bool },
    /// Killed at its limit.
    Stopped,
}

#[derive(Debug)]
pub struct Finished {
    pub stdout: String,
    pub wall: Duration,
    pub ending: Ending,
}

impl Finished {
    pub fn succeeded(&self) -> bool {
        self.ending == (Ending::Exited { success: true })
    }
}

struct Running {
    pid: u32,
    started: Instant,
    limit: Duration,
    group: bool,
    stopped: bool,
    reader: JoinHandle<String>,
    waiter: JoinHandle<()>,
}

/// A job's exit, as its waiter thread saw it: index, status, time.
type Exit = (usize, std::io::Result<ExitStatus>, Instant);

/// Runs `jobs`, at most `parallel` at a time, and returns their results in
/// job order.  Returns only once every process it started has ended.
///
/// Each child is reaped by a waiter thread that blocks in `wait` and
/// stamps the exit time, so a job's wall time is exact rather than rounded
/// up to a polling interval.
pub fn run(jobs: Vec<Job>, parallel: usize) -> Result<Vec<Finished>, String> {
    let mut results: Vec<Option<Finished>> = jobs.iter().map(|_| None).collect();
    let mut pending = jobs.into_iter().enumerate();
    let mut running: BTreeMap<usize, Running> = BTreeMap::new();
    let (exits, exited) = mpsc::channel::<Exit>();
    let mut failure = None;
    loop {
        while failure.is_none() && running.len() < parallel.max(1) {
            let Some((index, job)) = pending.next() else {
                break;
            };
            match start(index, job, exits.clone()) {
                Ok(started) => {
                    running.insert(index, started);
                }
                Err(error) => failure = Some(error),
            }
        }
        if failure.is_some() {
            for job in running.values_mut().filter(|job| !job.stopped) {
                stop(job);
            }
        }
        if running.is_empty() {
            break;
        }
        match exited.recv_timeout(POLL) {
            Ok((index, status, ended)) => {
                let job = running.remove(&index).expect("exit of a running job");
                match finish(job, status, ended) {
                    Ok(finished) => results[index] = Some(finished),
                    Err(error) => failure = failure.or(Some(error)),
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => unreachable!("this loop holds a sender"),
        }
        for job in running.values_mut() {
            if !job.stopped && job.started.elapsed() >= job.limit {
                stop(job);
            }
        }
    }
    if let Some(error) = failure {
        return Err(error);
    }
    Ok(results
        .into_iter()
        .map(|result| result.expect("every job ran"))
        .collect())
}

fn start(index: usize, job: Job, exits: mpsc::Sender<Exit>) -> Result<Running, String> {
    let mut command = Command::new(&job.program);
    command
        .args(&job.args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if job.group {
        command.process_group(0);
    }
    // Timed from before the spawn, so a job's wall includes starting it.
    let started = Instant::now();
    let mut child = command
        .spawn()
        .map_err(|error| format!("cannot start `{}`: {error}", job.program.display()))?;
    let pid = child.id();
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        // A child killed mid-write leaves a partial last line; what was
        // read is still returned.
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let waiter = std::thread::spawn(move || {
        let status = child.wait();
        let _ = exits.send((index, status, Instant::now()));
    });
    Ok(Running {
        pid,
        started,
        limit: job.limit,
        group: job.group,
        stopped: false,
        reader,
        waiter,
    })
}

/// Kills a job past its limit; its waiter thread then reports the exit.
/// The waiter may have reaped the child an instant before, with the exit
/// still in the channel; the kernel does not hand a freed pid out again
/// that quickly.
fn stop(job: &mut Running) {
    job.stopped = true;
    let target = if job.group {
        format!("-{}", job.pid)
    } else {
        job.pid.to_string()
    };
    kill(&target);
}

/// Collects an exited job.  A failed `wait` counts as an unsuccessful
/// exit.
fn finish(
    job: Running,
    status: std::io::Result<ExitStatus>,
    ended: Instant,
) -> Result<Finished, String> {
    if job.group {
        // The leader is gone; stop any member it left behind.
        if !group_members(job.pid).is_empty() {
            kill(&format!("-{}", job.pid));
        }
        wait_group_gone(job.pid);
    }
    job.waiter.join().map_err(|_| "waiter thread panicked")?;
    let stdout = job.reader.join().map_err(|_| "stdout reader panicked")?;
    Ok(Finished {
        stdout,
        wall: ended.duration_since(job.started),
        ending: if job.stopped {
            Ending::Stopped
        } else {
            Ending::Exited {
                success: status.is_ok_and(|status| status.success()),
            }
        },
    })
}

/// `kill -KILL TARGET`: a pid, or `-PGID` for a whole process group.
fn kill(target: &str) {
    let _ = Command::new("kill")
        .args(["-KILL", "--", target])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// Waits until no process of group `pgid` is left (members that are not
/// our children are reaped by init once killed).
fn wait_group_gone(pgid: u32) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline && !group_members(pgid).is_empty() {
        std::thread::sleep(POLL);
    }
}

/// Live (non-zombie) processes whose process group is `pgid`.
fn group_members(pgid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|stat| stat_state_and_group(&stat))
                .is_some_and(|(state, group)| group == pgid && state != 'Z')
        })
        .collect()
}

/// The state and process group from a `/proc/PID/stat` line.  The command
/// name may hold spaces and parentheses, so fields are read after the last
/// `)`.
fn stat_state_and_group(stat: &str) -> Option<(char, u32)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let state = fields.next()?.chars().next()?;
    let _ppid = fields.next()?;
    Some((state, fields.next()?.parse().ok()?))
}

/// This process's own peak resident set, in KiB.
pub fn own_peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| vm_hwm_kb(&status))
        .unwrap_or(0)
}

fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_after_a_command_name_with_parens() {
        let stat = "4242 (odd) name) S 1 4240 4240 0 -1 4194560";
        assert_eq!(stat_state_and_group(stat), Some(('S', 4240)));
        assert_eq!(stat_state_and_group("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t 9999 kB\nVmHWM:\t  1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(1234));
        assert_eq!(vm_hwm_kb("Name:\tx\n"), None);
        assert!(own_peak_rss_kb() > 0);
    }

    #[test]
    fn a_child_past_its_limit_is_stopped_and_reaped() {
        let jobs = vec![
            Job {
                program: "sleep".into(),
                args: vec!["30".into()],
                limit: Duration::from_millis(200),
                group: true,
            },
            Job {
                program: "true".into(),
                args: Vec::new(),
                limit: Duration::from_secs(30),
                group: false,
            },
        ];
        let started = Instant::now();
        let finished = run(jobs, 2).expect("jobs run");
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(finished[0].ending, Ending::Stopped);
        assert!(finished[1].succeeded());
    }
}
