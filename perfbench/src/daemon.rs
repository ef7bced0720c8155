//! Booting, probing and stopping the analysis daemon under test.

use flowdroid_service::{Client, Daemon, DaemonOptions, Listen};
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon is started.
#[derive(Clone, Debug)]
pub enum Launcher {
    /// `<binary> serve ...` as a child process: what the benchmark
    /// measures.
    Binary(PathBuf),
    /// `Daemon::bind` on a thread of this process (the smoke test).
    InProcess,
}

/// The daemon's command-line configuration.
pub struct DaemonConfig {
    /// The Unix socket it listens on. TCP is avoided: the daemon and
    /// client write a line and its newline as two segments, so Nagle's
    /// algorithm against delayed ACKs adds about 40 ms per message and
    /// would hide the analysis behind timer waits.
    pub socket: PathBuf,
    /// The `platform.fdps` snapshot it boots from.
    pub snapshot: PathBuf,
    /// The only directory it may serve apps from.
    pub allow_apps: PathBuf,
}

enum Handle {
    Child {
        child: Child,
        /// Held open so the daemon never writes to a closed pipe.
        _stdout: BufReader<ChildStdout>,
    },
    Thread(Option<JoinHandle<io::Result<()>>>),
}

/// A running daemon with one worker.
pub struct Running {
    addr: String,
    handle: Handle,
}

/// How long shutdown may take before the child is killed.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(60);

impl Running {
    /// Starts a daemon and waits until it answers its first `stats`
    /// request; returns it with the time from start to that reply.
    pub fn boot(launcher: &Launcher, cfg: &DaemonConfig) -> io::Result<(Running, Duration)> {
        let start = Instant::now();
        let (addr, handle) = match launcher {
            Launcher::Binary(bin) => {
                let mut cmd = Command::new(bin);
                cmd.args(["serve", "--workers", "1", "--listen"])
                    .arg(format!("unix:{}", cfg.socket.display()))
                    .arg("--platform-snapshot")
                    .arg(&cfg.snapshot)
                    .arg("--allow-apps")
                    .arg(&cfg.allow_apps);
                cmd.stdin(Stdio::null()).stdout(Stdio::piped());
                let mut child = cmd.spawn()?;
                let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
                let mut line = String::new();
                let read = stdout.read_line(&mut line);
                let addr = line.trim().strip_prefix("listening on ");
                let (Ok(_), Some(addr)) = (read, addr) else {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other(format!("daemon did not start: {line:?}")));
                };
                (
                    addr.to_string(),
                    Handle::Child {
                        child,
                        _stdout: stdout,
                    },
                )
            }
            Launcher::InProcess => {
                let opts = DaemonOptions {
                    workers: 1,
                    platform_snapshot: Some(cfg.snapshot.clone()),
                    allow_apps: vec![cfg.allow_apps.clone()],
                    ..DaemonOptions::new(Listen::Unix(cfg.socket.clone()))
                };
                let (tx, rx) = mpsc::channel();
                let thread = std::thread::spawn(move || {
                    let daemon = Daemon::bind(opts)?;
                    let _ = tx.send(daemon.local_addr().to_string());
                    daemon.run()
                });
                match rx.recv() {
                    Ok(addr) => (addr, Handle::Thread(Some(thread))),
                    Err(_) => {
                        let err = thread.join().expect("daemon thread panicked").err();
                        return Err(err.unwrap_or_else(|| io::Error::other("daemon exited")));
                    }
                }
            }
        };
        let running = Running { addr, handle };
        Client::connect(&running.addr)?.stats()?;
        Ok((running, start.elapsed()))
    }

    /// The daemon's address (`unix:<path>`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The daemon's `/proc/<pid>/status` file.
    pub fn status_path(&self) -> PathBuf {
        match &self.handle {
            Handle::Child { child, .. } => PathBuf::from(format!("/proc/{}/status", child.id())),
            Handle::Thread(_) => PathBuf::from("/proc/self/status"),
        }
    }

    /// Asks the daemon to drain and stop, and waits until it has.
    pub fn shutdown(mut self) -> io::Result<()> {
        Client::connect(&self.addr)?.shutdown()?;
        match &mut self.handle {
            Handle::Child { child, .. } => {
                let deadline = Instant::now() + SHUTDOWN_GRACE;
                while child.try_wait()?.is_none() {
                    if Instant::now() > deadline {
                        return Err(io::Error::other("daemon did not exit after shutdown"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            }
            Handle::Thread(thread) => thread
                .take()
                .expect("joined once")
                .join()
                .expect("daemon thread panicked"),
        }
    }
}

impl Drop for Running {
    /// A daemon left running by an error path is killed and reaped; an
    /// in-process one is asked to stop so its thread can end.
    fn drop(&mut self) {
        match &mut self.handle {
            Handle::Child { child, .. } => {
                if let Ok(None) = child.try_wait() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
            Handle::Thread(thread) => {
                if let Some(t) = thread.take() {
                    if let Ok(mut c) = Client::connect(&self.addr) {
                        let _ = c.shutdown();
                    }
                    let _ = t.join();
                }
            }
        }
    }
}

/// The peak resident set (`VmHWM`) in MiB of the process whose
/// `/proc/<pid>/status` file is `status`.
pub fn peak_rss_mb(status: &Path) -> io::Result<f64> {
    let text = std::fs::read_to_string(status)?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
    Ok(kb / 1024.0)
}
