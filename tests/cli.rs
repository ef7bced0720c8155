//! Integration tests for the `flowdroid` CLI binary: pack, disas and
//! analyze round trips on a temporary app directory, `analyze` against
//! the corpus driver and the daemon on the same app, and the client
//! against a `serve` child.

use std::path::PathBuf;
use std::process::Command;

const MANIFEST: &str = r#"<manifest package="cliapp">
  <application>
    <activity android:name=".Main">
      <intent-filter><action android:name="android.intent.action.MAIN"/></intent-filter>
    </activity>
  </application>
</manifest>"#;

const CODE: &str = r#"
class cliapp.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    let o: java.lang.Object
    let tm: android.telephony.TelephonyManager
    let id: java.lang.String
    o = virtualinvoke this.<android.content.Context: java.lang.Object getSystemService(java.lang.String)>("phone")
    tm = (android.telephony.TelephonyManager) o
    id = virtualinvoke tm.<android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", id)
    return
  }
}
"#;

const CLEAN_CODE: &str = r#"
class cliapp.Main extends android.app.Activity {
  method onCreate(b: android.os.Bundle) -> void {
    staticinvoke <android.util.Log: int i(java.lang.String,java.lang.String)>("T", "nothing")
    return
  }
}
"#;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flowdroid"))
}

fn make_app(dir: &std::path::Path, code: &str) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("AndroidManifest.xml"), MANIFEST).unwrap();
    std::fs::write(dir.join("classes.jasm"), code).unwrap();
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowdroid-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn analyze_dir_reports_the_leak() {
    let dir = temp_dir("leaky");
    make_app(&dir, CODE);
    let out = bin().args(["analyze"]).arg(&dir).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 leak(s) found"), "{stdout}");
    assert_eq!(out.status.code(), Some(2), "leaks signal exit code 2");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_clean_app_exits_zero() {
    let dir = temp_dir("clean");
    make_app(&dir, CLEAN_CODE);
    let out = bin().args(["analyze"]).arg(&dir).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 leak(s) found"), "{stdout}");
    assert_eq!(out.status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pack_then_analyze_archive() {
    let dir = temp_dir("pack");
    make_app(&dir, CODE);
    let rpk = dir.join("app.rpk");
    let out = bin().args(["pack"]).arg(&dir).arg("-o").arg(&rpk).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin().args(["analyze"]).arg(&rpk).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 leak(s) found"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pack_fails_on_an_unreadable_entry_and_names_it() {
    let dir = temp_dir("pack-broken");
    make_app(&dir, CODE);
    std::fs::create_dir_all(dir.join("res/layout/broken.xml")).unwrap();
    let rpk = dir.join("app.rpk");
    let out = bin().args(["pack"]).arg(&dir).arg("-o").arg(&rpk).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("res/layout/broken.xml"), "{stderr}");
    assert!(!rpk.exists(), "no archive is written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disas_emits_reparseable_jasm() {
    let dir = temp_dir("disas");
    make_app(&dir, CODE);
    let out = bin().args(["disas"]).arg(&dir).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("class cliapp.Main extends android.app.Activity"), "{text}");
    assert!(text.contains("getDeviceId"), "{text}");
    // The emitted code re-parses.
    let mut p = flowdroid::ir::Program::new();
    flowdroid::android::install_platform(&mut p);
    let rt = flowdroid::frontend::layout::ResourceTable::new();
    flowdroid::frontend::parse_jasm(&mut p, &rt, &text).expect("disassembly re-parses");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_honors_custom_sources_file() {
    let dir = temp_dir("custom");
    make_app(&dir, CLEAN_CODE);
    // Treat Log.i's tag as a sink of everything — now even the clean
    // app's constant doesn't leak (constants are never tainted), so
    // adding a bogus *source* that matches nothing changes nothing.
    let defs = dir.join("extra.defs");
    std::fs::write(&defs, "<no.Such: java.lang.String thing()> -> _SOURCE_\n").unwrap();
    let out = bin().args(["analyze"]).arg(&dir).arg("--sources").arg(&defs).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

/// The first line's `, <duration>)` becomes `)`: the only part of a
/// report that is not a function of the program.
fn strip_duration(report: &str) -> String {
    let (head, rest) = report.split_once('\n').unwrap_or((report, ""));
    let cut = head.rfind(", ").expect("report header ends with the duration");
    format!("{})\n{rest}", &head[..cut])
}

/// `flowdroid analyze` runs an app on the job path the corpus driver
/// runs it on: on InsecureBank written to disk, it prints the full
/// report of [`flowdroid_bench::full_report`] after its `loaded` line.
#[test]
fn analyze_prints_the_corpus_driver_report() {
    let dir = temp_dir("insecurebank");
    let app = flowdroid::droidbench::insecurebank::insecure_bank();
    app.write_to_dir(&dir).unwrap();
    let out = bin().args(["analyze"]).arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (loaded, report) = stdout.split_once('\n').expect("a loaded line, then the report");
    assert!(loaded.starts_with("loaded "), "{loaded}");
    let job = flowdroid_bench::driver::bench_job("insecurebank".to_string(), &app);
    let expected = flowdroid_bench::full_report(&job, &flowdroid::core::InfoflowConfig::default());
    assert_eq!(strip_duration(report), strip_duration(&expected));
    std::fs::remove_dir_all(&dir).ok();
}

/// The `(source line, sink line, taint)` triples of a full report's
/// leaks, rendered and sorted like the leak lines of a daemon report.
fn cli_leak_lines(report: &str) -> Vec<String> {
    let line_no =
        |l: &str| l.rsplit("(line ").next().unwrap().trim_end_matches([')', ':']).to_string();
    let lines: Vec<&str> = report.lines().collect();
    let mut leaks: Vec<String> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with('[') && l.contains("] sink "))
        .map(|(i, sink)| {
            let taint = lines[i + 1].trim().strip_prefix("tainted: ").expect("tainted line");
            let source = lines[i + 2].trim();
            let source =
                if source.ends_with("<unattributed>") { "0".into() } else { line_no(source) };
            format!("  {source} -> {}  {taint}", line_no(sink))
        })
        .collect();
    leaks.sort();
    leaks
}

/// An archive whose code is only `classes.sdex` gives the same leaks
/// from `flowdroid analyze` and from a daemon serving the file.
#[test]
fn analyze_and_the_daemon_agree_on_an_sdex_only_archive() {
    use flowdroid::frontend::{parse_jasm, sdex, Archive, ResourceTable};
    use flowdroid_service::{Client, Daemon, DaemonOptions, Listen};
    let dir = temp_dir("sdex-only");
    std::fs::create_dir_all(&dir).unwrap();
    let mut p = flowdroid::ir::Program::new();
    flowdroid::android::install_platform(&mut p);
    let classes = parse_jasm(&mut p, &ResourceTable::new(), CODE).expect("code parses");
    let mut archive = Archive::new();
    archive.add("AndroidManifest.xml", MANIFEST.as_bytes());
    archive.add("classes.sdex", sdex::encode(&p, &classes));
    let rpk = dir.join("app.rpk");
    std::fs::write(&rpk, archive.to_bytes()).unwrap();

    let out = bin().args(["analyze"]).arg(&rpk).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{stdout}");
    let cli = cli_leak_lines(&stdout);
    assert_eq!(cli.len(), 1, "{stdout}");

    let daemon = Daemon::bind(DaemonOptions {
        workers: 1,
        allow_apps: vec![dir.clone()],
        ..DaemonOptions::new(Listen::parse("127.0.0.1:0"))
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().to_string();
    let accept_loop = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let mut c = Client::connect(&addr).expect("connect");
    let served = c.analyze(rpk.to_str().unwrap(), None, None);
    c.shutdown().expect("shutdown");
    accept_loop.join().expect("accept loop exits cleanly");
    let (_, result) = served.expect("the daemon serves the sdex-only archive");
    let daemon_lines: Vec<String> = result.report.lines().skip(1).map(str::to_string).collect();
    assert_eq!(daemon_lines, cli, "{}", result.report);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_fail_cleanly() {
    let out = bin().args(["analyze"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = bin().args(["analyze", "/no/such/path"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(0), "bare invocation prints usage");
}

/// A pipeline stage that quits early (`flowdroid client <addr> stats |
/// head -1`) closes the client's stdout. The client must stop writing
/// quietly: no panic, nothing on stderr, and the request's usual exit
/// code.
#[test]
fn client_stops_quietly_on_a_closed_stdout() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut serve = bin()
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut banner = String::new();
    BufReader::new(serve.stdout.take().expect("serve stdout"))
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner.trim().strip_prefix("listening on ").expect("listening banner").to_string();

    // The read end is closed before the client starts, so its first
    // write fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let stats = bin().args(["client", &addr, "stats"]).stdout(writer).output();
    // Stop the daemon before asserting, so a failure leaves no child.
    let shutdown = bin().args(["client", &addr, "shutdown"]).output().expect("shutdown");
    assert!(shutdown.status.success());
    assert!(serve.wait().expect("serve exits").success());

    let stats = stats.expect("run client");
    let stderr = String::from_utf8_lossy(&stats.stderr);
    assert!(stderr.is_empty(), "client wrote to stderr: {stderr}");
    assert_eq!(stats.status.code(), Some(0), "stats keeps its exit code");
}
