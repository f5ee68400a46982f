//! The shared session cache: one hot [`Session`] per `(application, size)`,
//! LRU-evicted under a byte budget.
//!
//! The whole point of a resident campaign server is that the expensive
//! artifacts of the fault-free run — the clean trace, the region partition,
//! DDDGs, site lists, and fork-point checkpoints — are computed once and
//! reused across requests and tenants.  [`SessionCache::session`] hands out
//! `Arc<Session>` handles; the `Session` itself is `Send + Sync` with
//! internal lazy caches, so any number of worker threads can warm and share
//! one instance concurrently.
//!
//! Sessions grow as their lazy caches fill ([`Session::resident_bytes`]),
//! so the budget is enforced on every lookup: least-recently-used sessions
//! are dropped until the estimate fits (the most recent survivor is always
//! kept — a budget smaller than one session degrades to "cache of one").
//! Eviction only drops the cache's own handle; workers holding clones keep
//! their session alive until they finish, so eviction can never corrupt an
//! in-flight campaign.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use fliptracker::Session;
use ftkr_apps::{app_by_name, AppSize};

use crate::proto::CacheStats;

/// One resident session plus its recency stamp.
struct CacheEntry {
    session: Arc<Session>,
    last_used: u64,
}

/// The guarded interior of a [`SessionCache`].
#[derive(Default)]
struct CacheInner {
    map: HashMap<(String, AppSize), CacheEntry>,
    /// Logical clock advanced on every lookup (recency, not wall time).
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A byte-budgeted LRU map from `(application, size)` to hot sessions.
pub struct SessionCache {
    budget: u64,
    inner: Mutex<CacheInner>,
}

impl SessionCache {
    /// A cache that evicts least-recently-used sessions once the resident
    /// estimate exceeds `budget_bytes`.
    pub fn new(budget_bytes: u64) -> SessionCache {
        SessionCache {
            budget: budget_bytes,
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// The hot session for an application at the quick registry size — the
    /// size campaign plans resolve against.  `None` when the registry does
    /// not know the name.
    pub fn session(&self, app: &str) -> Option<Arc<Session>> {
        // Canonicalize through the registry so "lu" and "LU" share one entry.
        let app = app_by_name(app)?;
        let key = (app.name.to_string(), app.size);
        let mut inner = self.inner.lock().expect("session cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.last_used = tick;
            inner.hits += 1;
            let hot = Arc::clone(&inner.map[&key].session);
            drop(inner);
            self.enforce_budget();
            return Some(hot);
        }
        inner.misses += 1;
        let session = Arc::new(Session::new(app));
        inner.map.insert(
            key.clone(),
            CacheEntry {
                session: Arc::clone(&session),
                last_used: tick,
            },
        );
        drop(inner);
        self.enforce_budget();
        Some(session)
    }

    /// Drop least-recently-used sessions until the resident estimate fits
    /// the budget (always keeping the most recently used one).
    fn enforce_budget(&self) {
        let mut inner = self.inner.lock().expect("session cache poisoned");
        loop {
            if inner.map.len() <= 1 {
                return;
            }
            let resident: u64 = inner.map.values().map(|e| e.session.resident_bytes()).sum();
            if resident <= self.budget {
                return;
            }
            let coldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("map non-empty");
            inner.map.remove(&coldest);
            inner.evictions += 1;
        }
    }

    /// A point-in-time snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("session cache poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            sessions: inner.map.len() as u64,
            resident_bytes: inner.map.values().map(|e| e.session.resident_bytes()).sum(),
            budget_bytes: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_inject::{CampaignTarget, TargetClass};

    #[test]
    fn hits_share_one_session_and_misses_open_one() {
        let cache = SessionCache::new(u64::MAX);
        let a = cache.session("IS").expect("IS exists");
        let b = cache.session("IS").expect("IS exists");
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit");
        let c = cache.session("is").expect("names are case-insensitive");
        assert!(Arc::ptr_eq(&a, &c));
        assert!(cache.session("NOPE").is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.sessions, 1);
    }

    #[test]
    fn a_tight_budget_evicts_the_least_recently_used_session() {
        // Warm two sessions past a 1 MiB budget: traces alone are larger, so
        // each new arrival evicts the previous (least recently used) one.
        let cache = SessionCache::new(1 << 20);
        let is = cache.session("IS").unwrap();
        let _ = is.clean_trace();
        assert!(is.resident_bytes() > 1 << 20, "IS trace exceeds the budget");
        let lu = cache.session("LU").unwrap();
        let _ = lu.clean_trace();
        let _ = cache.session("LU").unwrap();
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert_eq!(stats.sessions, 1, "only the newest survives: {stats:?}");
        // The evicted IS session comes back as a (cold) miss.
        let is_again = cache.session("IS").unwrap();
        assert!(!Arc::ptr_eq(&is, &is_again), "IS was evicted and reopened");
        // The old handle still works: eviction drops the cache's Arc only.
        assert!(is.clean_steps() > 0);
    }

    #[test]
    fn concurrent_workers_share_a_hot_session_and_match_a_cold_one() {
        let cache = Arc::new(SessionCache::new(u64::MAX));
        let plan = {
            let s = cache.session("IS").unwrap();
            let region = s.app().regions[0].clone();
            s.plan(
                CampaignTarget::Region { name: region },
                TargetClass::Internal,
                8,
            )
            .unwrap()
            .with_seed(11)
        };
        let reports: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let plan = plan.clone();
                    scope.spawn(move || {
                        let session = cache.session("IS").unwrap();
                        session.run_plan_analyzed(&plan).unwrap().to_json()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every concurrent run through the shared hot session is
        // byte-identical to a cold, single-threaded session's run.
        let cold = Session::by_name("IS")
            .unwrap()
            .run_plan_analyzed(&plan)
            .unwrap()
            .to_json();
        for r in &reports {
            assert_eq!(r, &cold);
        }
        assert_eq!(cache.stats().sessions, 1, "one shared session served all");
    }
}
