#![warn(missing_docs)]

//! Where summary files live and how they are written.
//!
//! The summary cache (`flowdroid-summaries`) keeps one file per
//! `(namespace, context hash)` pair: `<root>[/ns-…]/summaries-<context
//! hash as 16 hex digits>.fdss`. This crate owns that layout — the
//! namespace → directory mapping, which must stay inside the root
//! because namespaces come off the wire — and the one atomic
//! read/write pair every store file goes through. It never interprets
//! the bytes.

use std::io;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit hash: disambiguates sanitized namespace names here and
/// is the `.fdss` wire checksum in `flowdroid-summaries`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Maps a namespace to a filesystem-safe directory component. The
/// default namespace maps to the root itself; anything unusual is
/// disambiguated with a hash so two namespaces can never collide on one
/// path.
fn namespace_component(ns: &str) -> Option<String> {
    if ns.is_empty() {
        return None;
    }
    let clean: String = ns
        .chars()
        .take(64)
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect();
    // No dot-dot runs and no leading/trailing dots: the component must
    // never look like a relative path escape.
    let clean = clean.replace("..", "__").trim_matches('.').to_string();
    if clean == ns {
        Some(format!("ns-{clean}"))
    } else {
        Some(format!("ns-{clean}-{:016x}", fnv1a64(ns.as_bytes())))
    }
}

/// The directory under `root` that holds namespace `ns`'s store files.
fn local_store_dir(root: &Path, ns: &str) -> PathBuf {
    match namespace_component(ns) {
        None => root.to_path_buf(),
        Some(c) => root.join(c),
    }
}

/// The store file for namespace `ns` and configuration fingerprint
/// `context_hash` under cache directory `root`.
pub fn store_path(root: &Path, ns: &str, context_hash: u64) -> PathBuf {
    local_store_dir(root, ns).join(format!("summaries-{context_hash:016x}.fdss"))
}

/// Reads the file at `path`, or `Ok(None)` if it does not exist.
///
/// # Errors
///
/// Returns any I/O error other than not-found.
pub fn read(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Replaces the file at `path` with `bytes` atomically (temp file +
/// rename, so readers only ever see a complete file), creating its
/// directory if needed.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().expect("store path has a parent");
    std::fs::create_dir_all(dir)?;
    let name = path.file_name().expect("store path has a file name").to_string_lossy();
    let tmp = dir.join(format!("{name}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fdstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn one_file_per_namespace_and_context() {
        let root = temp_root("layout");
        assert_eq!(store_path(&root, "", 0x2a), root.join("summaries-000000000000002a.fdss"));
        assert_eq!(
            store_path(&root, "tenant-a", 0x2a),
            root.join("ns-tenant-a").join("summaries-000000000000002a.fdss")
        );
        assert_ne!(store_path(&root, "", 1), store_path(&root, "", 2));
        assert_ne!(store_path(&root, "tenant-a", 1), store_path(&root, "tenant-b", 1));
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let root = temp_root("rw");
        let path = store_path(&root, "ns", 7);
        assert!(read(&path).unwrap().is_none(), "absent file reads as None");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(read(&path).unwrap().unwrap(), b"second");
        let entries = std::fs::read_dir(path.parent().unwrap()).unwrap().count();
        assert_eq!(entries, 1, "no temp file is left behind");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn hostile_namespaces_cannot_escape_the_root() {
        let root = temp_root("hostile");
        for ns in ["../../etc", "a/b", "..", ".hidden.", "x\0y"] {
            let dir = local_store_dir(&root, ns);
            assert!(
                dir.starts_with(&root) && dir != root,
                "namespace {ns:?} must map inside the root, got {dir:?}"
            );
            assert!(
                !dir.to_string_lossy().contains(".."),
                "namespace {ns:?} must not keep dot-dot components"
            );
        }
        // Distinct hostile namespaces stay distinct after sanitizing.
        assert_ne!(local_store_dir(&root, "a/b"), local_store_dir(&root, "a_b"));
    }
}
