//! Transport for the daemon: TCP or Unix-domain sockets behind one
//! address syntax.
//!
//! Addresses are plain `host:port` strings for TCP, or `unix:<path>`
//! for a Unix-domain socket. `127.0.0.1:0` binds an ephemeral port; the
//! daemon reports the resolved address so scripts can parse it.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Where the daemon listens (or a client connects).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Listen {
    /// A TCP socket address, e.g. `127.0.0.1:7433`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Listen {
    /// Parses an address string: `unix:<path>` selects a Unix socket,
    /// anything else is a TCP address.
    pub fn parse(addr: &str) -> Listen {
        match addr.strip_prefix("unix:") {
            Some(path) => Listen::Unix(PathBuf::from(path)),
            None => Listen::Tcp(addr.to_string()),
        }
    }
}

impl std::fmt::Display for Listen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Listen::Tcp(addr) => f.write_str(addr),
            Listen::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// One accepted (or dialed) connection.
///
/// TCP connections have Nagle's algorithm turned off: a message is
/// written as its line and then its newline, and on a reused
/// connection Nagle would hold that newline until the peer's delayed
/// ACK, stalling each request–reply by tens of milliseconds.
pub trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// A bound server socket.
pub enum Listener {
    /// TCP.
    Tcp(TcpListener),
    /// Unix domain.
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds the address. An existing Unix socket file is replaced
    /// (stale files from a crashed daemon would otherwise block every
    /// restart).
    pub fn bind(listen: &Listen) -> io::Result<Listener> {
        match listen {
            Listen::Tcp(addr) => TcpListener::bind(addr.as_str()).map(Listener::Tcp),
            #[cfg(unix)]
            Listen::Unix(path) => {
                let _ = std::fs::remove_file(path);
                UnixListener::bind(path).map(|l| Listener::Unix(l, path.clone()))
            }
            #[cfg(not(unix))]
            Listen::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    /// The resolved address (with the actual port for `:0` binds), in
    /// the same syntax [`Listen::parse`] accepts.
    pub fn local_addr(&self) -> io::Result<Listen> {
        match self {
            Listener::Tcp(l) => Ok(Listen::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(Listen::Unix(path.clone())),
        }
    }

    /// Blocks for the next connection.
    pub fn accept(&self) -> io::Result<Box<dyn Conn>> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Box::new(s))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Box::new(s))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Dials the address.
pub fn connect(listen: &Listen) -> io::Result<Box<dyn Conn>> {
    match listen {
        Listen::Tcp(addr) => {
            let s = TcpStream::connect(addr.as_str())?;
            s.set_nodelay(true)?;
            Ok(Box::new(s))
        }
        #[cfg(unix)]
        Listen::Unix(path) => UnixStream::connect(path).map(|s| Box::new(s) as _),
        #[cfg(not(unix))]
        Listen::Unix(_) => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_address_syntaxes() {
        assert_eq!(Listen::parse("127.0.0.1:7433"), Listen::Tcp("127.0.0.1:7433".to_string()));
        assert_eq!(Listen::parse("unix:/tmp/fd.sock"), Listen::Unix(PathBuf::from("/tmp/fd.sock")));
        assert_eq!(Listen::parse("unix:/tmp/fd.sock").to_string(), "unix:/tmp/fd.sock");
    }

    #[test]
    fn ephemeral_tcp_bind_reports_port() {
        let l = Listener::bind(&Listen::parse("127.0.0.1:0")).unwrap();
        let Listen::Tcp(addr) = l.local_addr().unwrap() else { panic!("tcp expected") };
        assert!(!addr.ends_with(":0"), "resolved address should carry the real port: {addr}");
    }
}
