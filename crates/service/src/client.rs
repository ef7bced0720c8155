//! A blocking client for the daemon protocol.

use crate::json::{self, Json};
use crate::net::{connect, Conn, Listen};
use crate::proto::{AnalyzeRequest, JobResult, Priority, Request};
use std::io::{self, BufRead, BufReader, Write};

/// Per-submission knobs beyond the app name. `Default` matches the
/// wire defaults: no deadline, no budget, normal priority, no streaming.
#[derive(Clone, Debug, Default)]
pub struct AnalyzeOptions {
    /// Wall-clock deadline in milliseconds (None = unbounded).
    pub deadline_ms: Option<u64>,
    /// Propagation budget (None = unbounded).
    pub max_propagations: Option<u64>,
    /// Admission lane.
    pub priority: Priority,
    /// Request `progress`/`leak` frames before the result line.
    pub stream: bool,
}

impl AnalyzeOptions {
    fn to_request(&self, app: &str) -> AnalyzeRequest {
        AnalyzeRequest {
            app: app.to_string(),
            deadline_ms: self.deadline_ms,
            max_propagations: self.max_propagations,
            priority: self.priority,
            stream: self.stream,
        }
    }
}

/// The daemon's immediate answer to a submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Submitted {
    /// Accepted; the job id from the `queued` line.
    Queued(u64),
    /// Refused by admission control (backpressure) — nothing was
    /// enqueued and no job id was allocated. Retry later.
    Rejected {
        /// Waiting jobs at refusal time.
        queue_depth: u64,
        /// The daemon's configured cap.
        queue_cap: u64,
    },
    /// Refused by the daemon's external-app path policy: the requested
    /// path is outside its `--allow-apps` sandbox (or it serves no
    /// external apps at all). Retrying is pointless.
    Denied {
        /// The daemon's refusal message.
        message: String,
    },
}

/// Final outcome of a blocking [`Client::analyze_with`] call.
#[derive(Clone, Debug, PartialEq)]
pub enum AnalyzeOutcome {
    /// The job ran; its id and result.
    Done {
        /// The job id.
        job: u64,
        /// The terminal result line.
        result: JobResult,
    },
    /// Refused by admission control; see [`Submitted::Rejected`].
    Rejected {
        /// Waiting jobs at refusal time.
        queue_depth: u64,
        /// The daemon's configured cap.
        queue_cap: u64,
    },
    /// Refused by the external-app path policy; see
    /// [`Submitted::Denied`].
    Denied {
        /// The daemon's refusal message.
        message: String,
    },
}

/// One connection to a daemon.
pub struct Client {
    reader: BufReader<Box<dyn Conn>>,
}

impl Client {
    /// Dials `addr` (`host:port` or `unix:<path>`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let conn = connect(&Listen::parse(addr))?;
        Ok(Client { reader: BufReader::new(conn) })
    }

    /// Sends one request line.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        let conn = self.reader.get_mut();
        conn.write_all(req.to_line().as_bytes())?;
        conn.write_all(b"\n")?;
        conn.flush()
    }

    /// Reads and parses one response line. `error` responses become
    /// `io::Error`s; `rejected` lines pass through as [`Json`].
    pub fn read_response(&mut self) -> io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed connection"));
        }
        let v = json::parse(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if v.str_field("type") == Some("error") {
            let msg = v.str_field("message").unwrap_or("unknown daemon error");
            return Err(io::Error::other(format!("daemon error: {msg}")));
        }
        Ok(v)
    }

    /// Sends a request and reads one response line.
    pub fn roundtrip(&mut self, req: &Request) -> io::Result<Json> {
        self.send(req)?;
        self.read_response()
    }

    /// Submits a job and reads the immediate `queued`-or-`rejected`
    /// answer *without* waiting for the result. When queued, any
    /// streamed frames and the result line stay pending on this
    /// connection; read them with [`Client::read_response`].
    pub fn submit(&mut self, app: &str, opts: &AnalyzeOptions) -> io::Result<Submitted> {
        self.send(&Request::Analyze(opts.to_request(app)))?;
        let first = self.read_response()?;
        match first.str_field("type") {
            Some("queued") => {
                let id = first
                    .u64_field("job")
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing job id"))?;
                Ok(Submitted::Queued(id))
            }
            Some("rejected") => Ok(Submitted::Rejected {
                queue_depth: first.u64_field("queue_depth").unwrap_or(0),
                queue_cap: first.u64_field("queue_cap").unwrap_or(0),
            }),
            Some("denied") => Ok(Submitted::Denied {
                message: first.str_field("message").unwrap_or("path denied by policy").to_string(),
            }),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply to analyze: {other:?}"),
            )),
        }
    }

    /// Submits a job and blocks until its result, passing every
    /// intermediate frame (`progress`, `leak`) to `on_frame`. With
    /// `opts.stream == false` no frames arrive and `on_frame` is never
    /// called. (Use a second connection for `cancel` or `stats` while
    /// this blocks.)
    pub fn analyze_with(
        &mut self,
        app: &str,
        opts: &AnalyzeOptions,
        on_frame: &mut dyn FnMut(&Json),
    ) -> io::Result<AnalyzeOutcome> {
        let job = match self.submit(app, opts)? {
            Submitted::Rejected { queue_depth, queue_cap } => {
                return Ok(AnalyzeOutcome::Rejected { queue_depth, queue_cap })
            }
            Submitted::Denied { message } => return Ok(AnalyzeOutcome::Denied { message }),
            Submitted::Queued(id) => id,
        };
        loop {
            let v = self.read_response()?;
            if v.str_field("type") == Some("result") {
                let result = JobResult::from_json(&v).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "malformed result line")
                })?;
                return Ok(AnalyzeOutcome::Done { job, result });
            }
            on_frame(&v);
        }
    }

    /// Submits an analysis job and blocks until its result; returns the
    /// job id and the result. Rejection (only possible when the daemon
    /// runs with a finite queue cap) surfaces as an `io::Error`.
    pub fn analyze(
        &mut self,
        app: &str,
        deadline_ms: Option<u64>,
        max_propagations: Option<u64>,
    ) -> io::Result<(u64, JobResult)> {
        let opts = AnalyzeOptions { deadline_ms, max_propagations, ..Default::default() };
        match self.analyze_with(app, &opts, &mut |_| {})? {
            AnalyzeOutcome::Done { job, result } => Ok((job, result)),
            AnalyzeOutcome::Rejected { queue_depth, queue_cap } => Err(io::Error::other(format!(
                "daemon rejected job: queue full ({queue_depth}/{queue_cap})"
            ))),
            AnalyzeOutcome::Denied { message } => {
                Err(io::Error::other(format!("daemon denied app path: {message}")))
            }
        }
    }

    /// Submits an analysis job and returns its id *without* waiting for
    /// the result (the result line stays pending on this connection;
    /// read it later with [`Client::read_response`]).
    pub fn analyze_async(
        &mut self,
        app: &str,
        deadline_ms: Option<u64>,
        max_propagations: Option<u64>,
    ) -> io::Result<u64> {
        let opts = AnalyzeOptions { deadline_ms, max_propagations, ..Default::default() };
        match self.submit(app, &opts)? {
            Submitted::Queued(id) => Ok(id),
            Submitted::Rejected { queue_depth, queue_cap } => Err(io::Error::other(format!(
                "daemon rejected job: queue full ({queue_depth}/{queue_cap})"
            ))),
            Submitted::Denied { message } => {
                Err(io::Error::other(format!("daemon denied app path: {message}")))
            }
        }
    }

    /// Cancels a job (by id from `analyze`'s `queued` line).
    pub fn cancel(&mut self, job: u64) -> io::Result<Json> {
        self.roundtrip(&Request::Cancel { job })
    }

    /// Fetches daemon statistics.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.roundtrip(&Request::Stats)
    }

    /// Asks the daemon to drain and stop; returns its final
    /// `ok` line.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.roundtrip(&Request::Shutdown)
    }
}
