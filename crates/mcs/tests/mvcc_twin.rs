//! The MVCC snapshot contract (DESIGN.md §7.5), targeted: a snapshot
//! pinned before a commit never sees it. The seeded MVCC-vs-barrier
//! comparison lives in the differential harness
//! (`crates/mcs-net/tests/twin.rs`, `mvcc_catalog_equals_barrier_twin`).

use std::path::PathBuf;
use std::sync::Arc;

use mcs::{Credential, FileSpec, IndexProfile, ManualClock, Mcs, StoreConfig};

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcs_mvcc_twin_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The targeted snapshot-isolation contract at the catalog level: a
/// snapshot pinned *before* a commit never sees it, one pinned *after*
/// always does — regardless of when the read actually executes.
#[test]
fn snapshot_pinned_before_commit_never_sees_it() {
    let a = admin();
    let dir = tmpdir("pin");
    let m = Mcs::open_durable(
        &dir,
        &a,
        IndexProfile::Paper2003,
        Arc::new(ManualClock::default()),
        StoreConfig::default().with_mvcc(),
    )
    .unwrap();
    let db = Arc::clone(m.database());

    m.create_file(&a, &FileSpec::named("before.dat")).unwrap();
    let pin_before = db.pin_snapshot().expect("mvcc databases pin");
    m.create_file(&a, &FileSpec::named("after.dat")).unwrap();
    let pin_after = db.pin_snapshot().expect("mvcc databases pin");

    // Reads at the early snapshot never see the later commit, no matter
    // how long after it they run; reads at the later snapshot always do.
    let at = |epoch: u64| db.with_snapshot_at(epoch, || m.file_count().unwrap());
    assert_eq!(at(pin_before.epoch()), 1);
    assert_eq!(at(pin_after.epoch()), 2);
    let seen = db.with_snapshot_at(pin_before.epoch(), || {
        m.get_file(&a, "after.dat").is_ok()
    });
    assert!(!seen, "snapshot pinned before the commit saw it");
    assert!(db.with_snapshot_at(pin_after.epoch(), || m.get_file(&a, "after.dat").is_ok()));

    // The pins hold the vacuum horizon: with them dropped, vacuum may
    // reclaim and a fresh read sees the latest state.
    drop(pin_before);
    drop(pin_after);
    db.vacuum();
    assert_eq!(m.file_count().unwrap(), 2);

    drop(m);
    let _ = std::fs::remove_dir_all(dir);
}
