//! The line-delimited JSON wire protocol.
//!
//! Every request and response is one JSON object on one line. Requests
//! carry a `"type"` discriminator:
//!
//! | request | fields |
//! |---|---|
//! | `analyze`  | `app` (corpus name, `stress/<K>`, or an on-disk app path under the daemon's `--allow-apps` roots), optional `deadline_ms`, `max_propagations`, `priority` (`high`/`normal`/`batch`), `stream` |
//! | `cancel`   | `job` |
//! | `stats`    | — |
//! | `shutdown` | — |
//!
//! Responses: `analyze` answers `{"type":"queued","job":N}` immediately
//! and a `{"type":"result",...}` line when the job finishes (the
//! connection stays blocked in between — issue `cancel`/`stats` from a
//! second connection). When the admission queue is full the daemon
//! answers `{"type":"rejected",...}` instead of `queued` and keeps the
//! connection open. A path-shaped `app` refused by the external-app
//! policy answers `{"type":"denied",...}` (distinct from `error`: the
//! path is outside the sandbox, not malformed). With `"stream":true`,
//! `{"type":"progress",...}` and
//! `{"type":"leak",...}` frames flow between `queued` and the final
//! `result` line (which is byte-identical to the non-streamed one).
//! `cancel` and `shutdown` answer `{"type":"ok"}`, `stats` answers
//! `{"type":"stats",...}`, and malformed or unknown requests answer
//! `{"type":"error","message":...}` without closing the connection.
//!
//! The full wire contract lives in `docs/PROTOCOL.md`.

use crate::json::{self, obj, Json};

/// Admission priority of an `analyze` job. The daemon dequeues `High`
/// before `Normal` before `Batch`, with aging so a saturating stream of
/// higher-priority work cannot starve `Batch` forever.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Interactive work: dequeued first.
    High = 0,
    /// The default lane.
    #[default]
    Normal = 1,
    /// Bulk/background work: dequeued last, but aged in periodically.
    Batch = 2,
}

impl Priority {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }

    /// Queue-lane index (0 = high, 1 = normal, 2 = batch).
    pub fn lane(self) -> usize {
        self as usize
    }
}

/// The body of an `analyze` request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnalyzeRequest {
    /// Corpus name (`droidbench/...`, `securibench/...`,
    /// `insecurebank`), `stress/<K>`, or a path to an on-disk app dir /
    /// `.rpk` archive under the daemon's `--allow-apps` roots.
    pub app: String,
    /// Wall-clock deadline, measured from submission; the job returns
    /// an `aborted` partial result once it passes.
    pub deadline_ms: Option<u64>,
    /// Path-edge propagation budget (0/absent = unlimited).
    pub max_propagations: Option<u64>,
    /// Admission priority (absent = `normal`).
    pub priority: Priority,
    /// Stream `progress`/`leak` frames while the job runs.
    pub stream: bool,
}

impl AnalyzeRequest {
    /// A request for `app` with every option at its default.
    pub fn new(app: impl Into<String>) -> AnalyzeRequest {
        AnalyzeRequest { app: app.into(), ..AnalyzeRequest::default() }
    }
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Queue an analysis job.
    Analyze(AnalyzeRequest),
    /// Cancel a queued or running job.
    Cancel {
        /// The job id from the `queued` response.
        job: u64,
    },
    /// Report daemon statistics.
    Stats,
    /// Drain the queue, stop the daemon.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let ty = v.str_field("type").ok_or("missing `type` field")?;
        match ty {
            "analyze" => {
                let app = v.str_field("app").ok_or("analyze: missing `app` field")?;
                let priority = match v.str_field("priority") {
                    None => Priority::Normal,
                    Some(p) => Priority::parse(p).ok_or_else(|| {
                        format!("analyze: unknown priority `{p}` (high, normal, batch)")
                    })?,
                };
                Ok(Request::Analyze(AnalyzeRequest {
                    app: app.to_string(),
                    deadline_ms: v.u64_field("deadline_ms"),
                    max_propagations: v.u64_field("max_propagations"),
                    priority,
                    stream: v.bool_field("stream").unwrap_or(false),
                }))
            }
            "cancel" => {
                let job = v.u64_field("job").ok_or("cancel: missing `job` field")?;
                Ok(Request::Cancel { job })
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type `{other}`")),
        }
    }

    /// Renders the request as one line (what [`crate::Client`] sends).
    /// Optional fields at their default are omitted.
    pub fn to_line(&self) -> String {
        match self {
            Request::Analyze(a) => {
                let mut fields =
                    vec![("type", Json::from("analyze")), ("app", Json::from(a.app.as_str()))];
                if let Some(d) = a.deadline_ms {
                    fields.push(("deadline_ms", Json::from(d)));
                }
                if let Some(m) = a.max_propagations {
                    fields.push(("max_propagations", Json::from(m)));
                }
                if a.priority != Priority::Normal {
                    fields.push(("priority", Json::from(a.priority.as_str())));
                }
                if a.stream {
                    fields.push(("stream", Json::from(true)));
                }
                obj(fields).to_line()
            }
            Request::Cancel { job } => {
                obj([("type", Json::from("cancel")), ("job", Json::from(*job))]).to_line()
            }
            Request::Stats => obj([("type", Json::from("stats"))]).to_line(),
            Request::Shutdown => obj([("type", Json::from("shutdown"))]).to_line(),
        }
    }
}

/// The outcome of one daemon job (the `result` response line).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobResult {
    /// Job id.
    pub job: u64,
    /// The app analyzed.
    pub app: String,
    /// Leaks reported (a lower bound when `aborted`).
    pub leaks: u64,
    /// Whether the job aborted before its fixpoint.
    pub aborted: bool,
    /// `cancelled` / `deadline` / `budget`, when `aborted`.
    pub abort_reason: Option<String>,
    /// Analysis wall-clock time in microseconds (the time the job spent
    /// running on its worker; 0 for a job skipped in the queue).
    pub wall_us: u64,
    /// Time the job waited in the queue before a worker claimed it.
    pub queue_ms: u64,
    /// Microseconds the daemon spent loading the job at submission: on
    /// a name's first run, the parse into the job's own platform
    /// overlay; on its second, the parse and the SDEX encode of the
    /// prepared job; 0 on every later run, whose prepared job the
    /// daemon already holds. Not part of `setup_us` or `wall_us`.
    pub prepare_us: u64,
    /// Setup phase of the run in microseconds: entry-point model, dummy
    /// main and call-graph construction (and, on a prepared job, lazy
    /// SDEX decode and body materialization, or the replay of the
    /// stored setup) — everything before the data-flow solver (the
    /// parse at submission is `prepare_us`).
    pub setup_us: u64,
    /// Data-flow (solver) phase in microseconds: the fixpoint.
    pub dataflow_us: u64,
    /// Result collection after the fixpoint in microseconds: leak
    /// attribution and dropping the solver's tables. `setup_us`,
    /// `dataflow_us` and `results_us` add up to `wall_us`.
    pub results_us: u64,
    /// Method bodies the demand-driven frontend decoded for this job
    /// (0 on a name's first run, which parses every body up front).
    pub bodies_materialized: u64,
    /// Method bodies indexed but never decoded because the callgraph
    /// closure never reached them (0 on a name's first run).
    pub bodies_skipped: u64,
    /// Forward path-edge propagations.
    pub forward_propagations: u64,
    /// Backward (alias) path-edge propagations.
    pub backward_propagations: u64,
    /// Time spent opening the job's copy-on-write overlay of the shared
    /// platform snapshot on its worker, in microseconds (0 on a name's
    /// first run, whose overlay is opened at submission, inside
    /// `prepare_us`).
    pub platform_clone_us: u64,
    /// Callgraph-cache hits for this job (1 when it replayed the
    /// entry-point model + callgraph its prepared job already held
    /// instead of rebuilding them: from a name's third run on).
    pub callgraph_cache_hits: u64,
    /// Callgraph-cache misses for this job (1 on a name's first run,
    /// which keeps no setup, and on its second, the prepared job's
    /// first run, which computes and stores it).
    pub callgraph_cache_misses: u64,
    /// The deterministic per-app leak report.
    pub report: String,
}

impl JobResult {
    /// The `result` response line.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("type", Json::from("result")),
            ("job", Json::from(self.job)),
            ("app", Json::from(self.app.as_str())),
            ("leaks", Json::from(self.leaks)),
            ("aborted", Json::from(self.aborted)),
        ];
        if let Some(r) = &self.abort_reason {
            fields.push(("abort_reason", Json::from(r.as_str())));
        }
        fields.extend([
            ("wall_us", Json::from(self.wall_us)),
            ("queue_ms", Json::from(self.queue_ms)),
            ("prepare_us", Json::from(self.prepare_us)),
            ("setup_us", Json::from(self.setup_us)),
            ("dataflow_us", Json::from(self.dataflow_us)),
            ("results_us", Json::from(self.results_us)),
            ("bodies_materialized", Json::from(self.bodies_materialized)),
            ("bodies_skipped", Json::from(self.bodies_skipped)),
            ("forward_propagations", Json::from(self.forward_propagations)),
            ("backward_propagations", Json::from(self.backward_propagations)),
            ("platform_clone_us", Json::from(self.platform_clone_us)),
            ("callgraph_cache_hits", Json::from(self.callgraph_cache_hits)),
            ("callgraph_cache_misses", Json::from(self.callgraph_cache_misses)),
            ("report", Json::from(self.report.as_str())),
        ]);
        obj(fields)
    }

    /// Reads a `result` response line back (client side).
    pub fn from_json(v: &Json) -> Option<JobResult> {
        if v.str_field("type") != Some("result") {
            return None;
        }
        Some(JobResult {
            job: v.u64_field("job")?,
            app: v.str_field("app")?.to_string(),
            leaks: v.u64_field("leaks")?,
            aborted: v.bool_field("aborted")?,
            abort_reason: v.str_field("abort_reason").map(str::to_string),
            wall_us: v.u64_field("wall_us")?,
            queue_ms: v.u64_field("queue_ms")?,
            prepare_us: v.u64_field("prepare_us").unwrap_or(0),
            setup_us: v.u64_field("setup_us").unwrap_or(0),
            dataflow_us: v.u64_field("dataflow_us").unwrap_or(0),
            results_us: v.u64_field("results_us").unwrap_or(0),
            bodies_materialized: v.u64_field("bodies_materialized").unwrap_or(0),
            bodies_skipped: v.u64_field("bodies_skipped").unwrap_or(0),
            forward_propagations: v.u64_field("forward_propagations")?,
            backward_propagations: v.u64_field("backward_propagations")?,
            platform_clone_us: v.u64_field("platform_clone_us").unwrap_or(0),
            callgraph_cache_hits: v.u64_field("callgraph_cache_hits").unwrap_or(0),
            callgraph_cache_misses: v.u64_field("callgraph_cache_misses").unwrap_or(0),
            report: v.str_field("report").unwrap_or("").to_string(),
        })
    }
}

/// The `error` response line.
pub fn error_line(message: &str) -> String {
    obj([("type", Json::from("error")), ("message", Json::from(message))]).to_line()
}

/// The `denied` response line: the external-app path policy refused the
/// requested path. Distinct from `error` so clients can surface a
/// sandbox refusal (exit code 6 in the CLI) instead of a protocol
/// failure.
pub fn denied_line(message: &str) -> String {
    obj([("type", Json::from("denied")), ("message", Json::from(message))]).to_line()
}

/// The `rejected` response line: the admission queue is full. Distinct
/// from `error` so clients can back off and retry instead of treating
/// it as a protocol failure.
pub fn rejected_line(queue_depth: u64, queue_cap: u64) -> String {
    obj([
        ("type", Json::from("rejected")),
        ("message", Json::from("admission queue full; retry later")),
        ("queue_depth", Json::from(queue_depth)),
        ("queue_cap", Json::from(queue_cap)),
    ])
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Analyze(AnalyzeRequest {
                app: "insecurebank".to_string(),
                deadline_ms: Some(500),
                max_propagations: Some(10_000),
                ..AnalyzeRequest::default()
            }),
            Request::Analyze(AnalyzeRequest {
                app: "stress/2000".to_string(),
                priority: Priority::Batch,
                stream: true,
                ..AnalyzeRequest::default()
            }),
            Request::Cancel { job: 3 },
            Request::Stats,
            Request::Shutdown,
        ];
        for r in reqs {
            assert_eq!(Request::parse(&r.to_line()).unwrap(), r);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"type":"launch"}"#).is_err());
        assert!(Request::parse(r#"{"type":"analyze"}"#).is_err());
        assert!(Request::parse(r#"{"type":"cancel"}"#).is_err());
        assert!(Request::parse(r#"{"type":"analyze","app":"a","priority":"urgent"}"#).is_err());
    }

    #[test]
    fn job_result_round_trips() {
        let r = JobResult {
            job: 7,
            app: "stress/500".to_string(),
            leaks: 1,
            aborted: true,
            abort_reason: Some("deadline".to_string()),
            wall_us: 120_400,
            queue_ms: 3,
            prepare_us: 310,
            setup_us: 2500,
            dataflow_us: 116_800,
            results_us: 200,
            bodies_materialized: 42,
            bodies_skipped: 7,
            forward_propagations: 123456,
            backward_propagations: 7,
            platform_clone_us: 12,
            callgraph_cache_hits: 1,
            callgraph_cache_misses: 0,
            report: "== stress/500: 1 leak(s)\n".to_string(),
        };
        let parsed = JobResult::from_json(&crate::json::parse(&r.to_json().to_line()).unwrap());
        assert_eq!(parsed, Some(r));
    }
}
