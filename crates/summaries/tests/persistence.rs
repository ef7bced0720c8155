//! Persistence of the shared summary store: every `(namespace,
//! context)` pair has a store file of its own, so all of them reload
//! after a restart; namespaces never observe each other's summaries; a
//! flush with nothing staged leaves the file alone; and an unusable
//! file starts the store cold with the reason recorded.

use flowdroid_summaries::{flush_dir, open_shared_ns, store_path, Lookup, SummaryStore, SymFact};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdss-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hit(dir: &Path, ns: &str, ctx: u64, sig: &str) -> bool {
    matches!(open_shared_ns(dir, ns, ctx).lookup(sig, 1, &SymFact::Zero), Lookup::Hit(_))
}

#[test]
fn two_contexts_in_one_namespace_both_reload_from_a_fresh_path() {
    let a = temp_dir("ctx-a");
    let b = temp_dir("ctx-b");
    open_shared_ns(&a, "", 10).record("<A: void ten()>", 1, SymFact::Zero, vec![]);
    open_shared_ns(&a, "", 20).record("<A: void twenty()>", 1, SymFact::Zero, vec![]);
    flush_dir(&a).unwrap();
    assert!(store_path(&a, "", 10).is_file() && store_path(&a, "", 20).is_file());

    // A path the process has never opened: both stores must come from
    // disk, not from the in-process registry.
    std::fs::rename(&a, &b).unwrap();
    for (ctx, sig) in [(10, "<A: void ten()>"), (20, "<A: void twenty()>")] {
        let store = open_shared_ns(&b, "", ctx);
        assert!(store.load_error().is_none(), "context {ctx}: {:?}", store.load_error());
        assert_eq!(store.visible_methods(), 1, "context {ctx} reloads its own summaries only");
        assert!(hit(&b, "", ctx, sig), "context {ctx} reloads warm");
    }
    assert!(!hit(&b, "", 10, "<A: void twenty()>"), "contexts never share a store");
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn namespaces_are_isolated_within_one_directory() {
    let a = temp_dir("ns-a");
    let b = temp_dir("ns-b");
    let ctx = 11;
    open_shared_ns(&a, "tenant-a", ctx).record("<A: void m()>", 1, SymFact::Zero, vec![]);
    flush_dir(&a).unwrap();
    std::fs::rename(&a, &b).unwrap();

    // Same method, same context, different namespace: no cross-hits.
    let other = open_shared_ns(&b, "tenant-b", ctx);
    assert_eq!(other.visible_methods(), 0, "tenant-b starts cold");
    assert!(!hit(&b, "tenant-b", ctx, "<A: void m()>"));
    assert!(!hit(&b, "", ctx, "<A: void m()>"), "the default namespace is a tenant too");

    // tenant-a's summaries are still there, in its own store file.
    assert!(hit(&b, "tenant-a", ctx, "<A: void m()>"));
    assert!(store_path(&b, "tenant-a", ctx).is_file());
    assert!(!store_path(&b, "tenant-b", ctx).exists(), "tenant-b never flushed anything");
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn flush_with_nothing_staged_leaves_the_file_untouched() {
    let dir = temp_dir("noop");
    let store = open_shared_ns(&dir, "", 5);
    store.record("<A: void m()>", 1, SymFact::Zero, vec![]);
    flush_dir(&dir).unwrap();
    let path = store_path(&dir, "", 5);
    let bytes = std::fs::read(&path).unwrap();
    let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();

    // Re-recording a visible entry stages nothing, so neither flush
    // rewrites the file.
    store.record("<A: void m()>", 1, SymFact::Zero, vec![]);
    assert_eq!(store.fresh_entries(), 0);
    std::thread::sleep(std::time::Duration::from_millis(20));
    flush_dir(&dir).unwrap();
    store.flush().unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    assert_eq!(std::fs::metadata(&path).unwrap().modified().unwrap(), mtime);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_store_files_start_cold_with_a_load_error() {
    let ctx = 33;
    let mut good = SummaryStore::new(ctx);
    good.insert("<A: void m()>", 1, SymFact::Zero, vec![]);
    let bytes = good.to_bytes();
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x40;
    let damaged: [(&str, Vec<u8>); 4] = [
        ("truncated", bytes[..bytes.len() / 2].to_vec()),
        ("corrupt", flipped),
        ("garbage", b"not a store".to_vec()),
        ("wrong-context", SummaryStore::new(ctx + 1).to_bytes()),
    ];
    for (tag, contents) in damaged {
        let dir = temp_dir(tag);
        let path = store_path(&dir, "", ctx);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, contents).unwrap();
        let store = open_shared_ns(&dir, "", ctx);
        assert!(store.load_error().is_some(), "{tag} file must report a load error");
        assert_eq!(store.visible_methods(), 0, "{tag} file must start cold");

        // The store stays usable: a flush replaces the bad file.
        store.record("<A: void m()>", 1, SymFact::Zero, vec![]);
        flush_dir(&dir).unwrap();
        assert_eq!(SummaryStore::from_bytes(&std::fs::read(&path).unwrap()).unwrap(), good);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The same file under its right name loads cleanly.
    let dir = temp_dir("intact");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(store_path(&dir, "", ctx), &bytes).unwrap();
    assert!(open_shared_ns(&dir, "", ctx).load_error().is_none());
    assert!(hit(&dir, "", ctx, "<A: void m()>"));
    let _ = std::fs::remove_dir_all(&dir);
}
