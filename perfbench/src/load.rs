//! The closed-loop load generator.
//!
//! One client connection, on the calling thread, sends a job, waits for
//! its result and sends the next: the daemon always has exactly one job
//! in hand, so a job's latency is its own service time and never a wait
//! behind another job.
//!
//! Every pool app is written to disk once, into a directory of its own
//! under the daemon's allowed directory. The daemon names an external
//! job by content hash and file stem, and keys its prepared-job registry
//! and callgraph cache by that name. On a fresh workload the file is
//! renamed to a new stem before every submission, so each job is one the
//! daemon has never seen, with the same work as every other job of its
//! kind; on apps-warm the name never changes, so every job after the
//! first of its kind hits.
//!
//! Between jobs, at most every [`SAMPLE_EVERY`], the generator times the
//! host-speed reference unit ([`crate::host`]) on the CPU it shares with
//! the daemon, and each job records the sample taken just before it.

use crate::daemon::peak_rss_mb;
use crate::host::SpeedLog;
use crate::inputs::Inputs;
use flowdroid_service::{AnalyzeOptions, Client, JobResult, Submitted};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One completed job, as the client saw it.
pub struct JobRecord {
    /// Index into [`Inputs::apps`]: the job's kind.
    pub app: usize,
    /// Client send → `queued` reply.
    pub admit: Duration,
    /// Client send → `result` line.
    pub latency: Duration,
    /// The daemon's result line.
    pub result: JobResult,
    /// Index of the host-speed sample taken just before the job.
    pub speed_at: usize,
}

/// What one phase of submissions produced.
#[derive(Default)]
pub struct Phase {
    /// Completed jobs, in completion order.
    pub records: Vec<JobRecord>,
    /// Submissions sent.
    pub attempted: u64,
    /// Submissions that failed: error, rejected, denied, aborted or an
    /// I/O failure.
    pub failed: u64,
    /// The daemon's peak resident set after the job [`drive`] was asked
    /// to probe after, if the phase got that far.
    pub rss_mb: Option<f64>,
    /// Host-speed samples taken through the phase.
    pub speed: SpeedLog,
}

/// Least time between two host-speed samples: about a thirtieth of the
/// phase goes into them.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// The pool's files under the daemon's allowed directory.
pub struct AppFiles {
    paths: Vec<PathBuf>,
    fresh: bool,
    renamed: u64,
}

impl AppFiles {
    /// Writes every app of `inputs` to `dir/<index>/a.rpk`.
    pub fn write(dir: &Path, inputs: &Inputs) -> io::Result<AppFiles> {
        let mut paths = Vec::with_capacity(inputs.apps.len());
        for (i, app) in inputs.apps.iter().enumerate() {
            let sub = dir.join(i.to_string());
            std::fs::create_dir_all(&sub)?;
            let path = sub.join("a.rpk");
            std::fs::write(&path, &app.bytes)?;
            paths.push(path);
        }
        Ok(AppFiles {
            paths,
            fresh: inputs.fresh,
            renamed: 0,
        })
    }

    /// The path to submit `app` under next: on a fresh workload, the file
    /// renamed to a stem no earlier job had.
    fn next_path(&mut self, app: usize) -> io::Result<&Path> {
        if self.fresh {
            self.renamed += 1;
            let to = self.paths[app].with_file_name(format!("j{}.rpk", self.renamed));
            std::fs::rename(&self.paths[app], &to)?;
            self.paths[app] = to;
        }
        Ok(&self.paths[app])
    }
}

/// Submits the app in `path` and waits for its result; `None` is a
/// failure of any kind.
fn run_job(client: &mut Client, path: &Path, app: usize) -> Option<JobRecord> {
    let path = path.to_string_lossy();
    let sent = Instant::now();
    let accepted = client.submit(&path, &AnalyzeOptions::default());
    let admit = sent.elapsed();
    if !matches!(accepted, Ok(Submitted::Queued(_))) {
        return None;
    }
    let line = client.read_response().ok()?;
    let latency = sent.elapsed();
    let result = JobResult::from_json(&line).filter(|r| !r.aborted)?;
    Some(JobRecord {
        app,
        admit,
        latency,
        result,
        speed_at: 0,
    })
}

/// Sends the apps `jobs` yields, one at a time on one connection to the
/// daemon at `addr`, until `duration` has passed (the job in flight is
/// finished), `jobs` ends or a job fails. With `rss_probe = Some((status,
/// n))`, the daemon's peak resident set is read from its `/proc` status
/// file after the `n`-th completed job.
pub fn drive(
    addr: &str,
    files: &mut AppFiles,
    jobs: impl Iterator<Item = usize>,
    duration: Option<Duration>,
    rss_probe: Option<(&Path, usize)>,
) -> Phase {
    let mut phase = Phase::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            phase.attempted = 1;
            phase.failed = 1;
            return phase;
        }
    };
    let end = duration.map(|d| Instant::now() + d);
    let mut sampled: Option<Instant> = None;
    for app in jobs {
        if end.is_some_and(|end| Instant::now() >= end) {
            break;
        }
        if sampled.is_none_or(|t| t.elapsed() >= SAMPLE_EVERY) {
            phase.speed.sample();
            sampled = Some(Instant::now());
        }
        phase.attempted += 1;
        let record = files
            .next_path(app)
            .ok()
            .and_then(|path| run_job(&mut client, path, app));
        let Some(mut record) = record else {
            // The connection's state is unknown after a failure.
            phase.failed += 1;
            break;
        };
        record.speed_at = phase.speed.len() - 1;
        phase.records.push(record);
        if let Some((status, n)) = rss_probe {
            if phase.records.len() == n {
                phase.rss_mb = peak_rss_mb(status).ok();
            }
        }
    }
    // A last sample, so the last jobs have one on each side too.
    phase.speed.sample();
    phase
}
