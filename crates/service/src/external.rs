//! Serving external apps from disk, behind an allow-list path policy.
//!
//! A daemon resolves bare names only through
//! [`crate::DaemonOptions::resolve`]; any app it reads from disk must
//! come from the filesystem the operator explicitly exposed with
//! `serve --allow-apps DIR`. Two layers:
//!
//! * [`AppPolicy`] — the sandbox. Allow-roots are canonicalized at
//!   daemon boot; every requested path is canonicalized *before* the
//!   prefix check, so `..` segments and symlinks pointing outside a
//!   root resolve to their real target and fail the check. An empty
//!   policy (no `--allow-apps`) denies every path. Policy refusals get
//!   a typed `denied` wire reply, distinct from protocol errors, so
//!   clients can tell "outside the sandbox" from "malformed app".
//! * [`load_external_job`] — the loader. Reads an on-disk app
//!   directory or a packed `.rpk` archive with
//!   [`flowdroid_frontend::Archive::read`], the reader `flowdroid
//!   analyze` uses too, and wraps the whole archive as a [`Job`]: its
//!   code may be `classes.jasm`, `classes.sdex` or both. The job name
//!   folds in a content hash: the daemon's per-app cache is keyed by
//!   name, and a cached prepared job carries its app's callgraph setup,
//!   so two different apps at the same path — or the same path edited
//!   between submissions — must never collide on a name. The hash
//!   ([`content_hash`]) covers every entry's path and bytes, each with
//!   its length, so no two archives whose entries merely concatenate to
//!   the same bytes share one, and it reads the archive a word at a
//!   time, so naming costs well under a microsecond per 10 kB. The loader only reads and names the app; parsing it is
//!   [`flowdroid_core::job::parse_job`]'s job (through
//!   [`flowdroid_core::job::prepare`] on a second submission), which the
//!   daemon skips once the name is prepared.

use flowdroid_core::{Job, Rules};
use flowdroid_frontend::rpk::Archive;
use flowdroid_ir::WordHasher;
use std::hash::Hasher;
use std::path::{Path, PathBuf};

/// The `serve --allow-apps` sandbox: the canonicalized roots external
/// app paths must resolve under.
#[derive(Clone, Debug, Default)]
pub struct AppPolicy {
    roots: Vec<PathBuf>,
}

/// Why a path was refused by [`AppPolicy::resolve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicyError {
    /// The daemon runs without `--allow-apps`: all paths are denied.
    NoRoots,
    /// The path does not exist (or cannot be canonicalized).
    NotFound(String),
    /// The canonicalized path lies outside every allow-root.
    Outside(String),
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::NoRoots => {
                write!(f, "daemon serves no external apps (start with --allow-apps DIR)")
            }
            PolicyError::NotFound(p) => write!(f, "app path `{p}` not found"),
            PolicyError::Outside(p) => {
                write!(f, "app path `{p}` resolves outside the allowed roots")
            }
        }
    }
}

impl AppPolicy {
    /// Builds the policy, canonicalizing every root now — a root that
    /// does not exist is a boot-time configuration error, not something
    /// to discover per request.
    ///
    /// # Errors
    ///
    /// Returns the canonicalization error of the first bad root.
    pub fn new(roots: &[PathBuf]) -> std::io::Result<AppPolicy> {
        let roots = roots
            .iter()
            .map(|r| {
                r.canonicalize().map_err(|e| {
                    std::io::Error::new(e.kind(), format!("--allow-apps {}: {e}", r.display()))
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(AppPolicy { roots })
    }

    /// Whether any root is configured.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Canonicalizes `path` and checks it sits under an allow-root.
    /// Canonicalization resolves symlinks and `..` segments first, so
    /// an inside-the-root symlink pointing outside is refused.
    ///
    /// # Errors
    ///
    /// [`PolicyError`] describing the refusal.
    pub fn resolve(&self, path: &str) -> Result<PathBuf, PolicyError> {
        if self.roots.is_empty() {
            return Err(PolicyError::NoRoots);
        }
        let real =
            Path::new(path).canonicalize().map_err(|_| PolicyError::NotFound(path.to_string()))?;
        if self.roots.iter().any(|r| real.starts_with(r)) {
            Ok(real)
        } else {
            Err(PolicyError::Outside(path.to_string()))
        }
    }
}

/// Whether an `analyze` request's `app` field addresses the filesystem
/// (policy territory) rather than a name the daemon resolves
/// ([`crate::DaemonOptions::resolve`]). Corpus names
/// (`droidbench/Button1`, `stress/2000`, …) never start with `/` or a
/// dot segment and never carry the `.rpk` suffix.
pub fn is_path_request(app: &str) -> bool {
    app.starts_with('/') || app.starts_with("./") || app.starts_with("../") || app.ends_with(".rpk")
}

/// The app's content hash, folded into its job name: a [`WordHasher`]
/// over the entry count, then each entry's path and bytes in path
/// order, each with its length, so entry boundaries are hashed too.
/// One flipped bit anywhere in the archive always changes it.
pub fn content_hash(archive: &Archive) -> u64 {
    let mut h = WordHasher::default();
    h.write_u64(archive.len() as u64);
    for (path, data) in archive.iter() {
        for part in [path.as_bytes(), data] {
            h.write_u64(part.len() as u64);
            h.write(part);
        }
    }
    h.finish()
}

/// Reads an external app (directory or `.rpk`, through
/// [`Archive::read`]) from an *already-policy-resolved* path into a job
/// under the built-in Android rules ([`Rules::android`]). The job name
/// is `external/<content-hash>/<stem>` — content-unique, so a cache
/// keyed by it can never serve a stale parse for an edited app. The
/// app's code is not parsed here: on the submitting connection the
/// daemon parses it with [`flowdroid_core::job::parse_job`] on the
/// name's first submission and with [`flowdroid_core::job::prepare`]
/// on its second, and parses nothing after; a malformed app is refused
/// on its first submission, never on a worker.
///
/// # Errors
///
/// A human-readable message when the path is neither a readable app
/// directory nor a well-formed archive.
pub fn load_external_job(real: &Path) -> Result<Job, String> {
    let archive = Archive::read(real)?;
    let stem = real
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("app")
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect::<String>();
    let name = format!("external/{:016x}/{stem}", content_hash(&archive));
    Ok(Job::app(name, archive, Rules::android()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("flowdroid-external-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn empty_policy_denies_everything() {
        let p = AppPolicy::default();
        assert_eq!(p.resolve("/etc/hosts"), Err(PolicyError::NoRoots));
    }

    #[test]
    fn dotdot_and_symlink_escapes_are_refused() {
        let root = tmp("policy");
        let outside = tmp("policy-outside");
        std::fs::write(outside.join("x.rpk"), b"junk").unwrap();
        std::fs::create_dir_all(root.join("sub")).unwrap();
        std::fs::write(root.join("sub/ok.rpk"), b"junk").unwrap();
        let policy = AppPolicy::new(std::slice::from_ref(&root)).unwrap();

        // Inside (even via a `..` that stays inside) resolves.
        assert!(policy.resolve(&format!("{}/sub/ok.rpk", root.display())).is_ok());
        assert!(policy.resolve(&format!("{}/sub/../sub/ok.rpk", root.display())).is_ok());

        // `..` escaping the root is refused after canonicalization.
        let escape = format!(
            "{}/sub/../../{}/x.rpk",
            root.display(),
            outside.file_name().unwrap().to_str().unwrap()
        );
        assert!(matches!(policy.resolve(&escape), Err(PolicyError::Outside(_))));

        // A symlink inside the root pointing outside is refused too.
        #[cfg(unix)]
        {
            let link = root.join("sneaky.rpk");
            std::os::unix::fs::symlink(outside.join("x.rpk"), &link).unwrap();
            assert!(matches!(policy.resolve(link.to_str().unwrap()), Err(PolicyError::Outside(_))));
        }

        let missing = format!("{}/no-such.rpk", root.display());
        assert!(matches!(policy.resolve(&missing), Err(PolicyError::NotFound(_))));

        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&outside);
    }

    #[test]
    fn missing_allow_root_fails_at_boot() {
        let bad = std::env::temp_dir().join("flowdroid-external-no-such-root");
        assert!(AppPolicy::new(&[bad]).is_err());
    }

    #[test]
    fn path_requests_are_distinguished_from_corpus_names() {
        assert!(is_path_request("/apps/a.rpk"));
        assert!(is_path_request("./a"));
        assert!(is_path_request("../a"));
        assert!(is_path_request("relative/but/packed.rpk"));
        assert!(!is_path_request("droidbench/Button1"));
        assert!(!is_path_request("stress/2000"));
        assert!(!is_path_request("insecurebank"));
    }

    #[test]
    fn apps_whose_parts_concatenate_alike_get_different_names() {
        // Same stem, and manifest + layout name + layout XML + code
        // concatenate to the same bytes in both apps.
        let write_app = |tag: &str, manifest: &str, layout: (&str, &str), code: &str| {
            let dir = tmp(tag).join("app");
            std::fs::create_dir_all(dir.join("res/layout")).unwrap();
            std::fs::write(dir.join("AndroidManifest.xml"), manifest).unwrap();
            std::fs::write(dir.join(format!("res/layout/{}.xml", layout.0)), layout.1).unwrap();
            std::fs::write(dir.join("classes.jasm"), code).unwrap();
            load_external_job(&dir).expect("loads").name
        };
        let a = write_app("concat-a", "<m/>", ("ab", "c"), "x");
        let b = write_app("concat-b", "<m/>", ("a", "bc"), "x");
        let c = write_app("concat-c", "<m/>a", ("b", "c"), "x");
        assert!(a.ends_with("/app") && b.ends_with("/app"), "{a} {b}");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        for tag in ["concat-a", "concat-b", "concat-c"] {
            let _ = std::fs::remove_dir_all(tmp(tag));
        }
    }

    #[test]
    fn content_hash_matches_the_reference_vectors() {
        let mut app = Archive::new();
        assert_eq!(content_hash(&app), 0xc6b1_dba6_ec1d_8e7d);
        app.add("AndroidManifest.xml", "<manifest package=\"p\"/>");
        app.add("classes.jasm", "class p.Main extends java.lang.Object {}");
        assert_eq!(content_hash(&app), 0x2b73_2f09_e762_3e96);
    }

    #[test]
    fn flipping_any_bit_of_an_archive_changes_its_name() {
        let code = "class p.Main extends android.app.Activity {\n  method onCreate(b: \
                    android.os.Bundle) -> void {\n    return\n  }\n}\n";
        let entries = [
            ("AndroidManifest.xml", "<manifest package=\"p\"><application/></manifest>"),
            ("res/layout/main.xml", "<LinearLayout/>"),
            ("classes.jasm", code),
        ];
        let hash = |entries: &[(&str, &[u8]); 3]| {
            let mut app = Archive::new();
            for (path, data) in entries {
                app.add(*path, *data);
            }
            content_hash(&app)
        };
        let base: [(&str, &[u8]); 3] = entries.map(|(p, d)| (p, d.as_bytes()));
        let want = hash(&base);
        for (i, (_, data)) in entries.iter().enumerate() {
            let mut bytes = data.as_bytes().to_vec();
            for bit in 0..bytes.len() * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                let mut flipped = base;
                flipped[i].1 = &bytes;
                assert_ne!(hash(&flipped), want, "entry {i}, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn an_app_directory_and_its_packed_rpk_get_one_name() {
        let root = tmp("packed");
        let dir = root.join("app");
        std::fs::create_dir_all(dir.join("res/layout")).unwrap();
        std::fs::write(dir.join("AndroidManifest.xml"), "<manifest package=\"p\"/>").unwrap();
        std::fs::write(dir.join("res/layout/main.xml"), "<LinearLayout/>").unwrap();
        std::fs::write(dir.join("res/layout/about.xml"), "<FrameLayout/>").unwrap();
        std::fs::write(dir.join("classes.jasm"), "class p.Main extends java.lang.Object {}")
            .unwrap();
        let rpk = root.join("app.rpk");
        std::fs::write(&rpk, Archive::from_dir(&dir).unwrap().to_bytes()).unwrap();
        let from_dir = load_external_job(&dir).expect("directory loads").name;
        assert_eq!(load_external_job(&rpk).expect("archive loads").name, from_dir);
        assert!(from_dir.starts_with("external/") && from_dir.ends_with("/app"), "{from_dir}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn loader_rejects_junk() {
        let d = tmp("junk");
        std::fs::write(d.join("a.rpk"), b"not an archive").unwrap();
        assert!(load_external_job(&d.join("a.rpk")).is_err());
        // A directory without the required files.
        assert!(load_external_job(&d).is_err());
        let _ = std::fs::remove_dir_all(&d);
    }
}
