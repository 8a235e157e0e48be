//! The read-cache invalidation contract (DESIGN.md §7.3), targeted: a
//! commit stales exactly the cached entries whose input tables it
//! touched. The seeded cached-vs-uncached comparison lives in the
//! differential harness (`crates/mcs-net/tests/twin.rs`,
//! `cached_catalog_equals_uncached_twin`).

use std::sync::Arc;

use mcs::{
    AttrOp, AttrPredicate, AttrType, Attribute, CacheConfig, Credential, FileSpec, IndexProfile,
    ManualClock, Mcs, ObjectRef,
};

fn admin() -> Credential {
    Credential::new("/O=Grid/CN=admin")
}

/// A commit invalidates exactly the cached entries whose input tables it
/// touched: a write to `user_attributes` revalidates the query entry but
/// leaves collection and attribute-definition entries warm.
#[test]
fn writes_invalidate_only_touched_tables() {
    let a = admin();
    let m = Mcs::with_options_cached(
        &a,
        IndexProfile::Paper2003,
        Arc::new(ManualClock::default()),
        CacheConfig::default(),
    )
    .unwrap();
    m.define_attribute(&a, "run", AttrType::Int, "").unwrap();
    m.create_file(&a, &FileSpec::named("a.dat").attr("run", 1i64)).unwrap();
    m.create_file(&a, &FileSpec::named("b.dat").attr("run", 2i64)).unwrap();
    m.create_collection(&a, "c0", None, "").unwrap();

    let preds = [AttrPredicate { name: "run".into(), op: AttrOp::Eq, value: 1i64.into() }];
    // Fill three kinds of entries, then read them once more so each is a
    // confirmed hit before the write.
    for _ in 0..2 {
        m.query_by_attributes(&a, &preds).unwrap();
        m.get_collection(&a, "c0").unwrap();
        m.attribute_definition("run").unwrap();
    }
    let warm = m.cache_stats().unwrap();
    assert!(warm.hits >= 3, "warm-up should hit on the second pass: {warm:?}");

    // Write to user_attributes only.
    m.set_attribute(
        &a,
        &ObjectRef::File("b.dat".into()),
        &Attribute { name: "run".into(), value: 1i64.into() },
    )
    .unwrap();

    // The query entry is stale (its vector covers user_attributes)...
    let hits = m.query_by_attributes(&a, &preds).unwrap();
    assert_eq!(hits, vec![("a.dat".to_owned(), 1), ("b.dat".to_owned(), 1)]);
    let after_query = m.cache_stats().unwrap();
    assert_eq!(
        after_query.stale,
        warm.stale + 1,
        "exactly the query entry must go stale: {warm:?} -> {after_query:?}"
    );

    // ...but entries over untouched tables are still warm hits.
    m.get_collection(&a, "c0").unwrap();
    m.attribute_definition("run").unwrap();
    let still_warm = m.cache_stats().unwrap();
    assert_eq!(
        still_warm.stale, after_query.stale,
        "collection/attrdef entries must not be invalidated: {still_warm:?}"
    );
    assert!(still_warm.hits >= after_query.hits + 2);
}
