//! Serving external apps from disk, behind an allow-list path policy.
//!
//! The daemon's corpus is compiled in; everything else it may analyze
//! must come from the filesystem the operator explicitly exposed with
//! `serve --allow-apps DIR`. Two layers:
//!
//! * [`AppPolicy`] — the sandbox. Allow-roots are canonicalized at
//!   daemon boot; every requested path is canonicalized *before* the
//!   prefix check, so `..` segments and symlinks pointing outside a
//!   root resolve to their real target and fail the check. An empty
//!   policy (no `--allow-apps`) denies every path. Policy refusals get
//!   a typed `denied` wire reply, distinct from protocol errors, so
//!   clients can tell "outside the sandbox" from "malformed app".
//! * [`load_external_job`] — the loader. Accepts an on-disk app
//!   directory (`AndroidManifest.xml`, `res/layout/*.xml`,
//!   `classes.jasm`) or a packed `.rpk` archive, and builds a
//!   [`CorpusJob`] whose name folds in a content hash: the daemon's
//!   per-app cache is keyed by name, and a cached prepared job carries
//!   its app's callgraph setup, so two different apps at the same path
//!   — or the same path edited between submissions — must never
//!   collide on a name. The hash covers each part's length as well as
//!   its bytes, so no two apps whose parts merely concatenate to the
//!   same bytes share one. The loader only reads and names the app;
//!   parsing it is [`flowdroid_bench::parse_job`]'s job (through
//!   [`flowdroid_bench::prepare`] on a second submission), which the
//!   daemon skips once the name is prepared.

use flowdroid_bench::{external_job, CorpusJob};
use flowdroid_frontend::rpk::Archive;
use flowdroid_ir::Fnv1a64;
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
/// (policy territory) rather than the compiled-in corpus. Corpus names
/// (`droidbench/Button1`, `stress/2000`, …) never start with `/` or a
/// dot segment and never carry the `.rpk` suffix.
pub fn is_path_request(app: &str) -> bool {
    app.starts_with('/') || app.starts_with("./") || app.starts_with("../") || app.ends_with(".rpk")
}

/// FNV-1a 64 over the app's content, folded into the job name: the
/// layout count, then each part's length and bytes, so the parts'
/// boundaries are hashed too.
fn content_hash(manifest: &str, layouts: &[(String, String)], code: &str) -> u64 {
    let mut h = Fnv1a64::default();
    h.write_u64(layouts.len() as u64);
    let layout_parts = layouts.iter().flat_map(|(name, xml)| [name.as_str(), xml.as_str()]);
    for part in std::iter::once(manifest).chain(layout_parts).chain([code]) {
        h.write_u64(part.len() as u64);
        h.write(part.as_bytes());
    }
    h.finish()
}

fn read_str(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// An app's text parts: manifest XML, (layout name, layout XML) pairs
/// and `jasm` code.
type AppParts = (String, Vec<(String, String)>, String);

/// Reads an app directory: `AndroidManifest.xml` + `classes.jasm` +
/// optional `res/layout/*.xml`.
fn load_dir(dir: &Path) -> Result<AppParts, String> {
    let manifest = read_str(&dir.join("AndroidManifest.xml"))?;
    let code = read_str(&dir.join("classes.jasm"))?;
    let mut layouts = Vec::new();
    let ldir = dir.join("res/layout");
    if ldir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&ldir)
            .map_err(|e| format!("cannot read {}: {e}", ldir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "xml"))
            .collect();
        entries.sort();
        for p in entries {
            let name = p
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("bad layout file name {}", p.display()))?
                .to_string();
            layouts.push((name, read_str(&p)?));
        }
    }
    Ok((manifest, layouts, code))
}

/// Unpacks a `.rpk` archive: same required entries as a directory, with
/// layouts under `res/layout/`. Unknown entries (e.g. a `truth.json`
/// ground-truth manifest) are ignored, matching the frontend loader.
fn load_rpk(path: &Path) -> Result<AppParts, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let ar = Archive::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let entry = |name: &str| {
        ar.get_str(name)
            .map(str::to_string)
            .ok_or_else(|| format!("{}: missing archive entry `{name}`", path.display()))
    };
    let manifest = entry("AndroidManifest.xml")?;
    let code = entry("classes.jasm")?;
    let mut names: Vec<String> = ar.paths_under("res/layout/").map(str::to_string).collect();
    names.sort();
    let mut layouts = Vec::new();
    for full in names {
        let stem = full
            .strip_prefix("res/layout/")
            .and_then(|s| s.strip_suffix(".xml"))
            .ok_or_else(|| format!("{}: bad layout entry `{full}`", path.display()))?;
        layouts.push((stem.to_string(), entry(&full)?));
    }
    Ok((manifest, layouts, code))
}

/// Reads an external app (directory or `.rpk`) from an
/// *already-policy-resolved* path into a corpus job. The job name is
/// `external/<content-hash>/<stem>` — content-unique, so a cache keyed
/// by it can never serve a stale parse for an edited app. The app's
/// code is not parsed here: on the submitting connection the daemon
/// parses it with [`flowdroid_bench::parse_job`] on the name's first
/// submission and with [`flowdroid_bench::prepare`] on its second, and
/// parses nothing after; a malformed app is refused on its first
/// submission, never on a worker.
///
/// # Errors
///
/// A human-readable message when the path is neither a readable app
/// directory nor a well-formed archive with the required entries.
pub fn load_external_job(real: &Path) -> Result<CorpusJob, String> {
    let (manifest, layouts, code) = if real.is_dir() { load_dir(real) } else { load_rpk(real) }?;
    let stem = real
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("app")
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect::<String>();
    let hash = content_hash(&manifest, &layouts, &code);
    Ok(external_job(format!("external/{hash:016x}/{stem}"), manifest, layouts, code))
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
    fn loader_rejects_junk() {
        let d = tmp("junk");
        std::fs::write(d.join("a.rpk"), b"not an archive").unwrap();
        assert!(load_external_job(&d.join("a.rpk")).is_err());
        // A directory without the required files.
        assert!(load_external_job(&d).is_err());
        let _ = std::fs::remove_dir_all(&d);
    }
}
