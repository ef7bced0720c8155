//! Integration tests for the `flowdroid` CLI binary: pack, disas and
//! analyze round trips on a temporary app directory, and the client
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
