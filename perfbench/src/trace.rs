//! The traced run: spans recorded from outside the program, around the
//! public call of each pipeline layer, with allocation counts.
//!
//! A job is replayed in-process twice: once stage by stage under spans
//! ([`Replayer::staged`]) and once through the single untraced
//! `Infoflow::analyze_app` call ([`Replayer::untraced`]). Both start from
//! the `.rpk` bytes the daemon was sent and load them the way the daemon
//! loads an external app — parse the archive's `jasm` once, lower it to
//! SDEX, decode the job program lazily — so the replay materializes the
//! same bodies the daemon does. The replay does not read the file the
//! daemon read.

use flowdroid_android::{generate_dummy_main, EntryPointModel, PlatformSnapshot};
use flowdroid_callgraph::{materialize_reachable, Hierarchy};
use flowdroid_core::{Infoflow, InfoflowConfig, InfoflowResults, SourceSinkManager, TaintWrapper};
use flowdroid_frontend::{sdex, App, Archive};
use flowdroid_ir::Program;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether allocations are being counted. Off except around a staged
/// replay, so untraced work pays only this flag's load.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Records one allocation of `bytes` while counting is on. The
/// `perfbench` binary's global allocator calls this; without it (as in
/// tests) every allocation count reads 0.
#[inline]
pub fn count_alloc(bytes: usize) {
    // Relaxed: these are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One recorded span. Allocation counts cover the whole span,
/// children included.
pub struct Span {
    /// Layer name, e.g. `core.run`.
    pub name: &'static str,
    /// The job the span belongs to.
    pub job: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Allocations made during the span.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// A span's own cost: the span minus the part its direct children
/// cover.
#[derive(Clone, Copy, Default)]
pub struct SelfCost {
    /// Self time.
    pub ns: u64,
    /// Self allocations.
    pub allocs: u64,
    /// Self allocated bytes.
    pub alloc_bytes: u64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, job: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let (allocs, bytes) = alloc_counts();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs,
            alloc_bytes: bytes,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let (allocs, bytes) = alloc_counts();
        let s = &mut self.spans[idx];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = bytes - s.alloc_bytes;
        out
    }

    /// Every span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self cost, index-aligned with [`Tracer::spans`].
    pub fn self_costs(&self) -> Vec<SelfCost> {
        let mut costs: Vec<SelfCost> = self
            .spans
            .iter()
            .map(|s| SelfCost {
                ns: s.end_ns - s.start_ns,
                allocs: s.allocs,
                alloc_bytes: s.alloc_bytes,
            })
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let c = &mut costs[p];
                c.ns = c.ns.saturating_sub(s.end_ns - s.start_ns);
                c.allocs = c.allocs.saturating_sub(s.allocs);
                c.alloc_bytes = c.alloc_bytes.saturating_sub(s.alloc_bytes);
            }
        }
        costs
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}{sep}",
                s.name, s.job, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        out
    }
}

/// What a staged replay measured besides its spans.
pub struct StagedJob {
    /// The rendered leak report.
    pub report: String,
    /// Size of the `.rpk` archive.
    pub archive_bytes: u64,
    /// App classes loaded.
    pub classes: u64,
    /// Method bodies decoded by the end of the job.
    pub bodies_materialized: u64,
    /// Method bodies left undecoded.
    pub bodies_skipped: u64,
    /// Methods reachable from the dummy main.
    pub reachable_methods: u64,
    /// Forward path-edge propagations.
    pub forward_propagations: u64,
    /// Backward (alias) path-edge propagations.
    pub backward_propagations: u64,
    /// Distinct facts interned.
    pub distinct_facts: u64,
    /// Fact-table rows touched.
    pub table_rows: u64,
    /// Leaks reported.
    pub leaks: u64,
    /// The solver's own fixpoint time (`results.duration`).
    pub fixpoint: Duration,
}

/// The dummy-main tag the daemon uses, so generated ids and reports
/// match its runs.
const TAG: &str = "corpus";

/// Replays jobs in-process against one platform snapshot.
pub struct Replayer<'a> {
    snapshot: &'a PlatformSnapshot,
    sources: SourceSinkManager,
    wrapper: TaintWrapper,
    config: InfoflowConfig,
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl<'a> Replayer<'a> {
    /// A replayer with the daemon's sources, sinks, wrapper rules and
    /// analysis configuration.
    pub fn new(snapshot: &'a PlatformSnapshot) -> Self {
        Replayer {
            snapshot,
            sources: SourceSinkManager::default_android(),
            wrapper: TaintWrapper::default_rules(),
            config: InfoflowConfig::default(),
        }
    }

    /// Loads the `.rpk` archive `rpk` into `program`: archive decode,
    /// `jasm` parse on a scratch overlay, SDEX lowering and lazy decode.
    fn load(&self, rpk: &[u8], program: &mut Program) -> io::Result<App> {
        let archive = Archive::from_bytes(rpk).map_err(invalid)?;
        let mut scratch = self.snapshot.overlay_program();
        let parsed = App::from_archive_lazy(&mut scratch, &archive).map_err(invalid)?;
        let image: Arc<[u8]> = sdex::encode(&scratch, &parsed.classes).into();
        let classes = sdex::decode_lazy(program, image).map_err(invalid)?;
        Ok(App { classes, ..parsed })
    }

    /// Runs one job stage by stage, each stage under its own span inside
    /// a `job` span, with allocation counting on.
    pub fn staged(
        &self,
        t: &mut Tracer,
        job: u32,
        rpk: &[u8],
        name: &str,
    ) -> io::Result<StagedJob> {
        COUNTING.store(true, Ordering::Relaxed);
        let out = t.span("job", job, |t| {
            let info = &self.snapshot.info;
            let mut p = t.span("android.overlay", job, |_| self.snapshot.overlay_program());
            let app = t.span("frontend", job, |_| self.load(rpk, &mut p))?;
            let model = t.span("android.entry_model", job, |_| {
                EntryPointModel::build(&mut p, info, &app, self.config.callback_association)
            });
            let main = t.span("android.dummy_main", job, |_| {
                generate_dummy_main(&mut p, info, &model, TAG)
            });
            t.span("callgraph.materialize", job, |_| {
                if p.has_pending_bodies() {
                    let hierarchy = Hierarchy::build(&p);
                    materialize_reachable(&mut p, &hierarchy, &[main]);
                }
            });
            let results = t.span("core.run", job, |_| {
                Infoflow::new(&self.sources, &self.wrapper, &self.config).run(&p, &[main])
            });
            let report = t.span("report", job, |_| render(name, &results, &p));
            let staged = StagedJob {
                report,
                archive_bytes: rpk.len() as u64,
                classes: app.classes.len() as u64,
                bodies_materialized: p.bodies_materialized(),
                bodies_skipped: p.pending_body_count() as u64,
                reachable_methods: results.reachable_methods as u64,
                forward_propagations: results.forward_propagations,
                backward_propagations: results.backward_propagations,
                distinct_facts: results.distinct_facts as u64,
                table_rows: results.fact_tables.map_or(0, |f| f.rows),
                leaks: results.leak_count() as u64,
                fixpoint: results.duration,
            };
            t.span("teardown", job, |_| drop((results, model, app, p)));
            Ok(staged)
        });
        COUNTING.store(false, Ordering::Relaxed);
        out
    }

    /// Runs one job through the single `Infoflow::analyze_app` call with
    /// no spans and no allocation counting; returns its report and wall
    /// time (load through teardown).
    pub fn untraced(&self, rpk: &[u8], name: &str) -> io::Result<(String, Duration)> {
        let start = Instant::now();
        let mut p = self.snapshot.overlay_program();
        let app = self.load(rpk, &mut p)?;
        let analysis = Infoflow::new(&self.sources, &self.wrapper, &self.config).analyze_app(
            &mut p,
            &self.snapshot.info,
            &app,
            TAG,
        );
        let report = render(name, &analysis.results, &p);
        drop((analysis, app, p));
        Ok((report, start.elapsed()))
    }
}

/// The daemon's per-app leak report: a header, then one sorted line per
/// leak (`source line -> sink line  taint`).
pub fn render(name: &str, results: &InfoflowResults, p: &Program) -> String {
    let mut out = format!("== {name}: {} leak(s)\n", results.leak_count());
    let mut lines: Vec<String> = results
        .leaks
        .iter()
        .map(|l| format!("  {} -> {}  {}", l.source_line(p), l.sink_line(p), l.taint))
        .collect();
    lines.sort();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// A report without its job name: the daemon names external jobs by
/// content hash and file stem, the replay by app index, and everything
/// after the name must match byte for byte.
pub fn without_name(report: &str) -> &str {
    report.split_once(": ").map_or(report, |(_, rest)| rest)
}
