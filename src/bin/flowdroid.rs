//! The `flowdroid` command-line tool.
//!
//! ```text
//! flowdroid analyze <app-dir | app.rpk> [options]   run the taint analysis
//! flowdroid serve --listen <addr> [options]         run the analysis daemon
//! flowdroid client <addr> <request> [options]       talk to a running daemon
//! flowdroid pack <app-dir> -o <app.rpk>             bundle an app directory
//! flowdroid disas <app-dir | app.rpk>               disassemble app code to jasm
//! flowdroid permissions <app-dir | app.rpk>         permission-gap report
//! flowdroid snapshot <platform.fdps>                write the platform snapshot
//! flowdroid droidbench                              run the DroidBench suite
//!
//! analyze options:
//!   --access-path-length <k>   bound access paths (default 5)
//!   --no-alias                 disable the on-demand alias analysis
//!   --global-callbacks         pool callbacks across components
//!   --sources <file>           extra source/sink definitions
//!   --wrappers <file>          extra taint-wrapper rules
//!   --no-paths                 skip leak-path reconstruction
//!   --deadline-ms <ms>         abort (partial result) after a wall-clock budget
//!   --max-propagations <n>     abort after n forward path-edge propagations
//!
//! Exit codes: 0 clean, 2 leaks found, 3 analysis aborted
//! (deadline/budget), 1 usage or load errors.
//! ```

use flowdroid::android::CallbackAssociation;
use flowdroid::core::job::{analyze_parsed, parse_job};
use flowdroid::core::{Job, Rules};
use flowdroid::prelude::*;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("pack") => pack(&args[1..]),
        Some("disas") => disas(&args[1..]),
        Some("permissions") => permissions(&args[1..]),
        Some("snapshot") => snapshot(&args[1..]),
        Some("droidbench") => droidbench(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!("usage:");
    eprintln!("  flowdroid analyze <app-dir | app.rpk> [options]");
    eprintln!("  flowdroid serve --listen <addr> [--workers <n>] [--queue-cap <n>]");
    eprintln!("                  [--platform-snapshot <platform.fdps>]");
    eprintln!(
        "                  [--allow-apps <dir>]...   serve on-disk app dirs / .rpk under <dir>"
    );
    eprintln!("  flowdroid client <addr> analyze <app | app-dir | app.rpk>");
    eprintln!("                  [--deadline-ms <ms>] [--max-propagations <n>]");
    eprintln!("                  [--priority high|normal|batch] [--stream]");
    eprintln!("  flowdroid client <addr> cancel <job> | stats | shutdown");
    eprintln!("  flowdroid pack <app-dir> -o <app.rpk>");
    eprintln!("  flowdroid disas <app-dir | app.rpk>");
    eprintln!("  flowdroid permissions <app-dir | app.rpk>");
    eprintln!("  flowdroid snapshot <platform.fdps>");
    eprintln!("  flowdroid droidbench");
    eprintln!();
    eprintln!("analyze options:");
    eprintln!("  --access-path-length <k>   bound access paths (default 5)");
    eprintln!("  --no-alias                 disable the on-demand alias analysis");
    eprintln!("  --global-callbacks         pool callbacks across components");
    eprintln!("  --sources <file>           extra source/sink definitions");
    eprintln!("  --wrappers <file>          extra taint-wrapper rules");
    eprintln!("  --no-paths                 skip leak-path reconstruction");
    eprintln!("  --deadline-ms <ms>         abort (partial result) after a wall-clock budget");
    eprintln!("  --max-propagations <n>     abort after n forward path-edge propagations");
    eprintln!();
    eprintln!("addresses are `host:port` for TCP or `unix:<path>` for a Unix socket;");
    eprintln!("`client analyze` takes a corpus name or, against a daemon started with");
    eprintln!("--allow-apps, a path to an app directory or packed .rpk under an allowed root;");
    eprintln!("exit codes: 0 clean, 2 leaks found, 3 analysis aborted, 4 rejected");
    eprintln!("            (queue full; retry later), 5 protocol error,");
    eprintln!("            6 denied by the --allow-apps path policy, 1 other errors");
}

fn analyze(args: &[String]) -> ExitCode {
    let Some(target) = args.first() else {
        eprintln!("analyze: missing app path");
        return ExitCode::FAILURE;
    };
    let mut config = InfoflowConfig::default();
    let mut sources = SourceSinkManager::default_android();
    let mut wrapper = TaintWrapper::default_rules();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--access-path-length" => {
                i += 1;
                let Some(k) = args.get(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("--access-path-length needs a number");
                    return ExitCode::FAILURE;
                };
                config.max_access_path_length = k;
            }
            "--no-alias" => config.enable_alias_analysis = false,
            "--no-paths" => config.track_paths = false,
            "--deadline-ms" => {
                i += 1;
                let Some(ms) = args.get(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("--deadline-ms needs a number of milliseconds");
                    return ExitCode::FAILURE;
                };
                config = config.with_deadline(std::time::Duration::from_millis(ms));
            }
            "--max-propagations" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("--max-propagations needs a number");
                    return ExitCode::FAILURE;
                };
                config.max_propagations = n;
            }
            "--global-callbacks" => {
                config.callback_association = CallbackAssociation::Global;
            }
            flag @ ("--sources" | "--wrappers") => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("{flag} needs a file");
                    return ExitCode::FAILURE;
                };
                let added = match std::fs::read_to_string(path) {
                    Err(e) => Err(e.to_string()),
                    Ok(text) if flag == "--sources" => {
                        sources.add_definitions(&text).map_err(|e| e.to_string())
                    }
                    Ok(text) => wrapper.add_rules(&text).map_err(|e| e.to_string()),
                };
                if let Err(e) = added {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            other => {
                eprintln!("analyze: unknown option `{other}` (run `flowdroid help` for usage)");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let archive = match Archive::read(Path::new(target)) {
        Ok(archive) => archive,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let rules = std::sync::Arc::new(Rules { sources, wrapper });
    let job = Job::app(target.clone(), archive, rules);
    let snapshot = flowdroid::android::build_snapshot();
    let parsed = match parse_job(&job, snapshot.overlay_program()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{target}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let app = parsed.app();
    println!(
        "loaded {} ({} classes, {} components, {} layouts)",
        app.manifest.package,
        app.classes.len(),
        app.manifest.components.len(),
        app.layouts.len()
    );
    let (program, results) = analyze_parsed(parsed, &config, &snapshot);
    print!("{}", results.report(&program));
    if results.aborted {
        let why = results.abort_reason.map_or("budget", |r| r.as_str());
        eprintln!("analysis aborted ({why}); reported leaks are a lower bound");
        ExitCode::from(3)
    } else if results.is_clean() {
        ExitCode::SUCCESS
    } else {
        // Like grep: finding something exits 0; we still signal leaks
        // via a distinct code for scripting.
        ExitCode::from(2)
    }
}

/// `flowdroid serve --listen <addr> [--workers <n>] [--queue-cap <n>]
/// [--platform-snapshot <platform.fdps>] [--allow-apps <dir>]...`.
/// Besides allowed app paths, the daemon serves the benchmark corpus
/// and `stress/<K>` chains by name ([`flowdroid_bench::find_job`]).
fn serve(args: &[String]) -> ExitCode {
    use flowdroid_service::{Daemon, DaemonOptions, Listen, DEFAULT_QUEUE_CAP};
    let mut listen = None;
    let mut workers = 0usize;
    let mut queue_cap = DEFAULT_QUEUE_CAP;
    let mut platform_snapshot = None;
    let mut allow_apps = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--queue-cap" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("--queue-cap needs a number (0 = unbounded)");
                    return ExitCode::FAILURE;
                };
                queue_cap = n;
            }
            "--listen" => {
                i += 1;
                let Some(addr) = args.get(i) else {
                    eprintln!("--listen needs an address (host:port or unix:<path>)");
                    return ExitCode::FAILURE;
                };
                listen = Some(Listen::parse(addr));
            }
            "--workers" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else {
                    eprintln!("--workers needs a number");
                    return ExitCode::FAILURE;
                };
                workers = n;
            }
            "--platform-snapshot" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("--platform-snapshot needs a platform.fdps path");
                    return ExitCode::FAILURE;
                };
                platform_snapshot = Some(path.into());
            }
            "--allow-apps" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--allow-apps needs a directory (repeatable)");
                    return ExitCode::FAILURE;
                };
                allow_apps.push(dir.into());
            }
            other => {
                eprintln!("serve: unknown option `{other}` (run `flowdroid help` for usage)");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(listen) = listen else {
        eprintln!("serve: missing --listen <addr>");
        return ExitCode::FAILURE;
    };
    let daemon = match Daemon::bind(DaemonOptions {
        listen,
        workers,
        queue_cap,
        platform_snapshot,
        allow_apps,
        resolve: flowdroid_bench::find_job,
    }) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts parse this line for the resolved address (`:0` binds an
    // ephemeral port).
    println!("listening on {}", daemon.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match daemon.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `flowdroid client <addr> analyze|cancel|stats|shutdown ...` — one
/// request per invocation; response lines go to stdout as raw JSON.
fn client(args: &[String]) -> ExitCode {
    use flowdroid_service::{Client, Request};
    let (Some(addr), Some(op)) = (args.first(), args.get(1)) else {
        eprintln!("usage: flowdroid client <addr> analyze <app> [options] | cancel <job> | stats | shutdown");
        return ExitCode::FAILURE;
    };
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client: {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fail = |e: std::io::Error| {
        eprintln!("client: {e}");
        ExitCode::FAILURE
    };
    let mut out = ClientOut::default();
    match op.as_str() {
        "analyze" => {
            let Some(app) = args.get(2) else {
                eprintln!("client analyze: missing app name (e.g. insecurebank)");
                return ExitCode::FAILURE;
            };
            let mut deadline_ms = None;
            let mut max_propagations = None;
            let mut priority = flowdroid_service::Priority::Normal;
            let mut stream = false;
            let mut i = 3;
            while i < args.len() {
                let take_num = |i: &mut usize| -> Option<u64> {
                    *i += 1;
                    args.get(*i).and_then(|v| v.parse().ok())
                };
                match args[i].as_str() {
                    "--priority" => {
                        i += 1;
                        let parsed =
                            args.get(i).and_then(|v| flowdroid_service::Priority::parse(v));
                        match parsed {
                            Some(p) => priority = p,
                            None => {
                                eprintln!("--priority needs one of: high, normal, batch");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    "--stream" => stream = true,
                    "--deadline-ms" => match take_num(&mut i) {
                        Some(n) => deadline_ms = Some(n),
                        None => {
                            eprintln!("--deadline-ms needs a number of milliseconds");
                            return ExitCode::FAILURE;
                        }
                    },
                    "--max-propagations" => match take_num(&mut i) {
                        Some(n) => max_propagations = Some(n),
                        None => {
                            eprintln!("--max-propagations needs a number");
                            return ExitCode::FAILURE;
                        }
                    },
                    other => {
                        eprintln!(
                            "client analyze: unknown option `{other}` (run `flowdroid help` for usage)"
                        );
                        return ExitCode::FAILURE;
                    }
                }
                i += 1;
            }
            let send = c.send(&Request::Analyze(flowdroid_service::AnalyzeRequest {
                app: app.to_string(),
                deadline_ms,
                max_propagations,
                priority,
                stream,
            }));
            if let Err(e) = send {
                return fail(e);
            }
            // Stream lines as they arrive: the `queued` line lets
            // scripts learn the job id while the job runs, and with
            // --stream every `progress`/`leak` frame is printed as it
            // lands, ahead of the terminal `result` line.
            loop {
                match c.read_response() {
                    Ok(v) => {
                        out.line(&v.to_line());
                        match v.str_field("type") {
                            Some("result") => {
                                return if v.bool_field("aborted") == Some(true) {
                                    ExitCode::from(3)
                                } else if v.u64_field("leaks").unwrap_or(0) > 0 {
                                    ExitCode::from(2)
                                } else {
                                    ExitCode::SUCCESS
                                };
                            }
                            // Backpressure: nothing was enqueued;
                            // callers should retry later.
                            Some("rejected") => return ExitCode::from(4),
                            // Path policy: the daemon does not serve
                            // this path; retrying is pointless.
                            Some("denied") => return ExitCode::from(6),
                            _ => {}
                        }
                    }
                    // A broken frame stream or truncated reply is a
                    // protocol error, distinct from analysis failure.
                    Err(e) => {
                        eprintln!("client: {e}");
                        return ExitCode::from(5);
                    }
                }
            }
        }
        "cancel" => {
            let Some(job) = args.get(2).and_then(|v| v.parse().ok()) else {
                eprintln!("client cancel: missing job id");
                return ExitCode::FAILURE;
            };
            match c.cancel(job) {
                Ok(v) => {
                    out.line(&v.to_line());
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "stats" => match c.stats() {
            Ok(v) => {
                // Raw line first: scripts grep it for exact fields.
                out.line(&v.to_line());
                let f = |name| v.u64_field(name).unwrap_or(0);
                out.line(&format!(
                    "per-app cache: {} name(s) resident, {} hit(s) / {} miss(es) / \
                     {} eviction(s), callgraph setup {} replayed / {} built",
                    f("prepared_cache_entries"),
                    f("prepared_cache_hits"),
                    f("prepared_cache_misses"),
                    f("prepared_cache_evictions"),
                    f("callgraph_cache_hits"),
                    f("callgraph_cache_misses"),
                ));
                out.line(&format!(
                    "platform clone: {}us total across {} completed job(s)",
                    f("platform_clone_us"),
                    f("completed"),
                ));
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "shutdown" => match c.shutdown() {
            Ok(v) => {
                out.line(&v.to_line());
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        other => {
            eprintln!("client: unknown request `{other}` (analyze, cancel, stats, shutdown)");
            ExitCode::FAILURE
        }
    }
}

/// The client's stdout. Each line is flushed as it is written, so a
/// script sees a job's `queued` line while the job runs. Once stdout is
/// closed (`flowdroid client <addr> stats | head -1`), later lines are
/// dropped without a word: the exit code stays the request's own.
#[derive(Default)]
struct ClientOut {
    closed: bool,
}

impl ClientOut {
    fn line(&mut self, text: &str) {
        if self.closed {
            return;
        }
        let mut stdout = std::io::stdout().lock();
        if let Err(e) = writeln!(stdout, "{text}").and_then(|()| stdout.flush()) {
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                eprintln!("client: {e}");
            }
            self.closed = true;
        }
    }
}

/// Loads the app at `target` (directory or archive, [`Archive::read`])
/// into `program`, which already holds the platform stubs.
fn load_app(target: &str, program: &mut Program) -> Result<App, String> {
    let archive = Archive::read(Path::new(target))?;
    App::from_archive(program, &archive).map_err(|e| format!("{target}: {e}"))
}

fn disas(args: &[String]) -> ExitCode {
    let Some(target) = args.first() else {
        eprintln!("disas: missing app path");
        return ExitCode::FAILURE;
    };
    let mut program = Program::new();
    install_platform(&mut program);
    match load_app(target, &mut program) {
        Ok(app) => {
            print!("{}", flowdroid::frontend::emit_jasm(&program, &app.classes));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn permissions(args: &[String]) -> ExitCode {
    let Some(target) = args.first() else {
        eprintln!("permissions: missing app path");
        return ExitCode::FAILURE;
    };
    let mut program = Program::new();
    let platform = install_platform(&mut program);
    let app = match load_app(target, &mut program) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let report = flowdroid::android::analyze_permissions(&mut program, &platform, &app, "cli-perm");
    println!("required by reachable code:");
    for p in &report.required {
        println!("  {p}");
    }
    println!("declared in the manifest:");
    for p in &report.declared {
        println!("  {p}");
    }
    let over = report.over_privileged();
    if over.is_empty() {
        println!("no over-privilege.");
    } else {
        println!("over-privileged (declared but unused):");
        for p in &over {
            println!("  {p}");
        }
    }
    let missing = report.missing();
    if !missing.is_empty() {
        println!("missing (needed but not declared):");
        for p in &missing {
            println!("  {p}");
        }
    }
    ExitCode::SUCCESS
}

/// `flowdroid snapshot <platform.fdps>` — build the Android platform
/// model once and write it as a versioned, checksummed snapshot the
/// daemon can boot from (`serve --platform-snapshot`).
fn snapshot(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: flowdroid snapshot <platform.fdps>");
        return ExitCode::FAILURE;
    };
    let snap = flowdroid::android::build_snapshot();
    match flowdroid::android::save_snapshot(Path::new(path), &snap) {
        Ok(()) => {
            println!(
                "wrote {path}: {} classes, {} methods",
                snap.base.class_count(),
                snap.base.method_count()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("snapshot: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn pack(args: &[String]) -> ExitCode {
    let (dir, out) = match args {
        [dir, flag, out] if flag == "-o" => (dir, out),
        _ => {
            eprintln!("usage: flowdroid pack <app-dir> -o <app.rpk>");
            return ExitCode::FAILURE;
        }
    };
    let archive = match Archive::from_dir(Path::new(dir)) {
        Ok(archive) => archive,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match std::fs::write(out, archive.to_bytes()) {
        Ok(()) => {
            println!("packed {} entries into {out}", archive.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{out}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn droidbench() -> ExitCode {
    use flowdroid::droidbench::{all_apps, AppScore, ScoreBoard};
    use flowdroid_bench::eval::flowdroid_on;
    let mut board = ScoreBoard::new();
    for app in all_apps().iter().filter(|a| a.in_table) {
        let (found, _) = flowdroid_on(app, &InfoflowConfig::default());
        let score = AppScore::from_counts(app.expected_leaks, found);
        println!(
            "{:<28} expected {} reported {} ({}✓ {}☆ {}○)",
            app.name, app.expected_leaks, found, score.tp, score.fp, score.fn_
        );
        board.record(&format!("{:?}", app.category), score);
    }
    let total = board.total();
    println!("\n{}", board.render());
    println!(
        "precision {:.0}%  recall {:.0}%  F {:.2}",
        total.precision() * 100.0,
        total.recall() * 100.0,
        total.f_measure()
    );
    ExitCode::SUCCESS
}
