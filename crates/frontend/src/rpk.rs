//! RPK: a simple archive container (the APK/zip substitute).
//!
//! An RPK bundles an app's manifest, layouts and code into one byte
//! stream, playing the role the zip-based APK plays for the original
//! FlowDroid. Format: magic `RPK1`, entry count (uleb128), then per
//! entry a uleb128-length-prefixed UTF-8 path and uleb128-length-prefixed
//! data.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

const MAGIC: &[u8; 4] = b"RPK1";

/// An archive error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveError {
    /// Description.
    pub message: String,
    /// Byte offset where reading failed.
    pub offset: usize,
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rpk error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ArchiveError {}

/// An in-memory archive: path → bytes, iterated in path order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Archive {
    entries: BTreeMap<String, Vec<u8>>,
}

impl Archive {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) an entry.
    pub fn add(&mut self, path: impl Into<String>, data: impl Into<Vec<u8>>) -> &mut Self {
        self.entries.insert(path.into(), data.into());
        self
    }

    /// The data of an entry.
    pub fn get(&self, path: &str) -> Option<&[u8]> {
        self.entries.get(path).map(Vec::as_slice)
    }

    /// The data of an entry as UTF-8 text.
    pub fn get_str(&self, path: &str) -> Option<&str> {
        self.get(path).and_then(|b| std::str::from_utf8(b).ok())
    }

    /// Iterates entries in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.entries.iter().map(|(p, d)| (p.as_str(), d.as_slice()))
    }

    /// Paths beginning with `prefix`.
    pub fn paths_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> {
        self.entries.keys().filter(move |p| p.starts_with(prefix)).map(String::as_str)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the archive has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reads an on-disk app directory into an archive with the same
    /// entries a packed app has: the required `AndroidManifest.xml`,
    /// every `res/layout/*.xml` file, and `classes.jasm` and
    /// `classes.sdex` where present. Every reader of app directories
    /// (the loader, `pack` and the daemon) goes through here.
    ///
    /// # Errors
    ///
    /// The first IO error, prefixed with the path it hit: a missing
    /// manifest, or a layout or code entry that cannot be read (such as
    /// a directory named `res/layout/x.xml`).
    pub fn from_dir(dir: &Path) -> std::io::Result<Archive> {
        let named = |path: &Path, e: std::io::Error| {
            std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
        };
        let read = |path: &Path| std::fs::read(path).map_err(|e| named(path, e));
        let mut archive = Archive::new();
        archive.add("AndroidManifest.xml", read(&dir.join("AndroidManifest.xml"))?);
        let layout_dir = dir.join("res/layout");
        if layout_dir.is_dir() {
            for entry in std::fs::read_dir(&layout_dir).map_err(|e| named(&layout_dir, e))? {
                let path = entry.map_err(|e| named(&layout_dir, e))?.path();
                let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
                if name.ends_with(".xml") {
                    archive.add(format!("res/layout/{name}"), read(&path)?);
                }
            }
        }
        for code in ["classes.jasm", "classes.sdex"] {
            let path = dir.join(code);
            if path.exists() {
                archive.add(code, read(&path)?);
            }
        }
        Ok(archive)
    }

    /// Reads the app at `path`: a directory through
    /// [`Archive::from_dir`], any other path as a packed archive file.
    /// Every reader of app paths (the CLI and the daemon) goes through
    /// here.
    ///
    /// # Errors
    ///
    /// A message naming `path`: the directory's IO error, or the file's
    /// IO or [`ArchiveError`].
    pub fn read(path: &Path) -> Result<Archive, String> {
        if path.is_dir() {
            return Archive::from_dir(path).map_err(|e| e.to_string());
        }
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Archive::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Serializes the archive.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        write_uleb(&mut out, self.entries.len() as u64);
        for (path, data) in &self.entries {
            write_uleb(&mut out, path.len() as u64);
            out.extend_from_slice(path.as_bytes());
            write_uleb(&mut out, data.len() as u64);
            out.extend_from_slice(data);
        }
        out
    }

    /// Parses an archive from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError`] on bad magic, truncation or invalid
    /// UTF-8 paths.
    pub fn from_bytes(bytes: &[u8]) -> Result<Archive, ArchiveError> {
        if bytes.len() < 4 || &bytes[..4] != MAGIC {
            return Err(ArchiveError { message: "bad magic".into(), offset: 0 });
        }
        let mut pos = 4;
        let count = read_uleb(bytes, &mut pos)? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let plen = read_uleb(bytes, &mut pos)? as usize;
            let pend = pos
                .checked_add(plen)
                .filter(|&e| e <= bytes.len())
                .ok_or(ArchiveError { message: "path overruns input".into(), offset: pos })?;
            let path = std::str::from_utf8(&bytes[pos..pend])
                .map_err(|_| ArchiveError { message: "invalid UTF-8 path".into(), offset: pos })?
                .to_owned();
            pos = pend;
            let dlen = read_uleb(bytes, &mut pos)? as usize;
            let dend = pos
                .checked_add(dlen)
                .filter(|&e| e <= bytes.len())
                .ok_or(ArchiveError { message: "data overruns input".into(), offset: pos })?;
            entries.insert(path, bytes[pos..dend].to_vec());
            pos = dend;
        }
        if pos != bytes.len() {
            return Err(ArchiveError { message: "trailing bytes".into(), offset: pos });
        }
        Ok(Archive { entries })
    }
}

fn write_uleb(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_uleb(bytes: &[u8], pos: &mut usize) -> Result<u64, ArchiveError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or(ArchiveError { message: "unexpected end of input".into(), offset: *pos })?;
        *pos += 1;
        if shift >= 64 {
            return Err(ArchiveError { message: "uleb128 overflow".into(), offset: *pos });
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut a = Archive::new();
        a.add("AndroidManifest.xml", "<manifest/>".as_bytes());
        a.add("res/layout/main.xml", "<L/>".as_bytes());
        a.add("classes.jasm", b"class A { }".to_vec());
        let bytes = a.to_bytes();
        let b = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.get_str("AndroidManifest.xml"), Some("<manifest/>"));
        assert_eq!(b.len(), 3);
        assert_eq!(b.paths_under("res/layout/").count(), 1);
    }

    #[test]
    fn empty_archive_round_trips() {
        let a = Archive::new();
        let b = Archive::from_bytes(&a.to_bytes()).unwrap();
        assert!(b.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(Archive::from_bytes(b"ZIP!").is_err());
        assert!(Archive::from_bytes(b"").is_err());
    }

    #[test]
    fn truncation_rejected() {
        let mut a = Archive::new();
        a.add("x", vec![1, 2, 3]);
        let mut bytes = a.to_bytes();
        bytes.truncate(bytes.len() - 2);
        assert!(Archive::from_bytes(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let a = Archive::new();
        let mut bytes = a.to_bytes();
        bytes.push(0);
        assert!(Archive::from_bytes(&bytes).is_err());
    }

    #[test]
    fn replace_keeps_latest() {
        let mut a = Archive::new();
        a.add("x", vec![1]).add("x", vec![2]);
        assert_eq!(a.get("x"), Some(&[2u8][..]));
        assert_eq!(a.len(), 1);
    }
}
