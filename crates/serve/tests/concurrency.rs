//! Concurrency invariants of the serve core: coalescing compiles once,
//! quota rejections poison nothing, drain finishes in-flight work, and
//! the counters are exact under multi-threaded load.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use slp_driver::json::Json;
use slp_driver::CompileCache;
use slp_serve::{Handler, QuotaConfig, ServeConfig};

const SRC: &str = "kernel k { array A: f64[16]; array B: f64[16]; \
                   for i in 0..16 { A[i] = A[i] + B[i]; } }";

fn unique_src(tag: u64) -> String {
    format!(
        "kernel u{tag} {{ array A: f64[16]; \
         for i in 0..16 {{ A[i] = A[i] + {}.0; }} }}",
        tag % 100
    )
}

fn compile_line(id: u64, tenant: &str, source: &str) -> String {
    Json::obj(vec![
        ("v", Json::num(1)),
        ("id", Json::num(id)),
        ("tenant", Json::str(tenant)),
        ("cmd", Json::str("compile")),
        ("source", Json::str(source)),
    ])
    .to_compact()
}

fn handler(config: ServeConfig) -> Handler {
    Handler::new(Arc::new(CompileCache::in_memory(256)), config)
}

/// N concurrent identical requests compile exactly once: one leader
/// stores, everyone else coalesces onto it (or hits the cache if it
/// arrives after the leader finished) and is answered with the leader's
/// kernel.
#[test]
fn coalesced_fingerprints_compile_once() {
    const N: u64 = 8;
    // The hold keeps the leader's slot occupied long enough that the
    // siblings reliably arrive while it is in flight.
    let handler = handler(ServeConfig {
        compile_hold_ms: 100,
        ..ServeConfig::default()
    });
    let responses: Vec<Json> = thread::scope(|scope| {
        let workers: Vec<_> = (0..N)
            .map(|id| {
                let handler = &handler;
                scope.spawn(move || handler.handle_line(&compile_line(id, "", SRC)).json)
            })
            .collect();
        (workers.into_iter())
            .map(|w| w.join().expect("worker"))
            .collect()
    });
    fn cache_of(response: &Json) -> Option<&str> {
        response.get("cache").and_then(Json::string)
    }
    let leader = (responses.iter())
        .find(|r| cache_of(r) == Some("compiled"))
        .expect("one request led");
    for response in &responses {
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        for field in ["fingerprint", "stmts", "superwords", "vectorized_stmts"] {
            assert!(leader.get(field).is_some(), "{field}");
            assert_eq!(
                response.get(field),
                leader.get(field),
                "{field} of a {:?} answer",
                cache_of(response)
            );
        }
    }
    let summary = handler.summary();
    let stats = handler.cache().stats();
    assert_eq!(stats.stores, 1, "exactly one compile may store");
    assert_eq!(summary.compiled, N);
    assert_eq!(
        summary.coalesced + summary.cache_hits,
        N - 1,
        "everyone but the leader reuses its work: {summary:?}"
    );
    assert!(
        summary.coalesced >= 1,
        "the hold guarantees real coalescing"
    );
    assert_eq!(summary.errors, 0);
}

const OOB: &str = "kernel oob { array A: f64[8]; for i in 0..8 { A[i+1] = 2.0; } }";

fn assert_s114(response: &slp_serve::Response) {
    let json = &response.json;
    assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(json.get("code").and_then(Json::string), Some("S114"));
    assert!(
        json.get("error")
            .and_then(Json::string)
            .is_some_and(|e| e.contains("proven memory-unsafe")),
        "{}",
        json.to_compact()
    );
}

/// The S114 rejection is decided by the one frontend run behind the
/// cache lookup and is never stored: the same unsafe source asked twice
/// misses twice, is rejected twice, and counts as no compile.
#[test]
fn a_proven_unsafe_kernel_is_rejected_every_time_and_never_stored() {
    let handler = handler(ServeConfig::default());
    for id in 0..2 {
        assert_s114(&handler.handle_line(&compile_line(id, "", OOB)));
    }
    let summary = handler.summary();
    let stats = handler.cache().stats();
    assert_eq!(summary.rejected_unsafe, 2);
    assert_eq!(summary.errors, 2);
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.compiled, 0);
    assert_eq!((stats.misses, stats.stores), (2, 0));
}

/// N concurrent requests for one unsafe source all get S114 — the leader
/// from its own frontend run, the followers from the leader's published
/// error — and the counter invariant is untouched by them.
#[test]
fn followers_of_an_unsafe_leader_are_rejected_with_it() {
    const N: u64 = 8;
    let handler = handler(ServeConfig {
        compile_hold_ms: 100,
        ..ServeConfig::default()
    });
    thread::scope(|scope| {
        for id in 0..N {
            let handler = &handler;
            scope.spawn(move || assert_s114(&handler.handle_line(&compile_line(id, "", OOB))));
        }
    });
    let summary = handler.summary();
    let stats = handler.cache().stats();
    assert_eq!(summary.rejected_unsafe, N);
    assert_eq!(summary.errors, N);
    // Only leaders look the key up; the hold guarantees some request
    // waited on a leader's slot.
    assert!((1..N).contains(&stats.misses), "{stats:?}");
    assert_eq!(summary.compiled, 0);
    assert_eq!(
        summary.compiled,
        stats.stores + summary.cache_hits + summary.coalesced,
        "{summary:?} {stats:?}"
    );
    assert_eq!(handler.active(), 0);
}

/// Quota exhaustion rejects with `S121` and touches nothing shared:
/// the rejected source is not cached, not compiled, and compiles fine
/// for a tenant with budget.
#[test]
fn quota_exhaustion_is_typed_and_poisons_nothing() {
    let handler = handler(ServeConfig {
        quota_overrides: vec![(
            "metered".to_string(),
            QuotaConfig {
                capacity: 2.0,
                refill_per_sec: 0.0,
            },
        )],
        ..ServeConfig::default()
    });

    // Two distinct sources fit the budget...
    for tag in 0..2 {
        let r = handler.handle_line(&compile_line(tag, "metered", &unique_src(tag)));
        assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)), "within quota");
    }
    // ...the third is rejected with the stable code...
    let rejected_src = unique_src(99);
    let r = handler.handle_line(&compile_line(2, "metered", &rejected_src));
    assert_eq!(r.json.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(r.json.get("code").and_then(Json::string), Some("S121"));

    let stats = handler.cache().stats();
    assert_eq!(stats.stores, 2, "the rejected request must not store");

    // ...and the rejected source is untainted: an unmetered tenant
    // compiles it from scratch.
    let r = handler.handle_line(&compile_line(3, "other", &rejected_src));
    assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        r.json.get("cache").and_then(Json::string),
        Some("compiled"),
        "a rejection must not have primed the cache"
    );

    let summary = handler.summary();
    assert_eq!(summary.rejected_quota, 1);
    assert_eq!(summary.compiled, 3);
    // Anonymous-tenant traffic is not metered by an override.
    let r = handler.handle_line(&compile_line(4, "", &unique_src(7)));
    assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)));
}

/// The token bucket refills over wall time.
#[test]
fn quota_refills_over_time() {
    let handler = handler(ServeConfig {
        quota: Some(QuotaConfig {
            capacity: 1.0,
            refill_per_sec: 50.0,
        }),
        ..ServeConfig::default()
    });
    let r = handler.handle_line(&compile_line(0, "t", SRC));
    assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)));
    let r = handler.handle_line(&compile_line(1, "t", SRC));
    assert_eq!(r.json.get("code").and_then(Json::string), Some("S121"));
    // 50 tokens/s: one full token well within 100 ms.
    thread::sleep(Duration::from_millis(100));
    let r = handler.handle_line(&compile_line(2, "t", SRC));
    assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)), "bucket refilled");
}

/// Past the admission cap requests are rejected with `S120` instead of
/// queueing.
#[test]
fn admission_cap_rejects_overload() {
    let handler = Arc::new(Handler::new(
        Arc::new(CompileCache::in_memory(64)),
        ServeConfig {
            max_in_flight: 1,
            compile_hold_ms: 200,
            ..ServeConfig::default()
        },
    ));
    let leader = {
        let handler = Arc::clone(&handler);
        thread::spawn(move || handler.handle_line(&compile_line(0, "", SRC)))
    };
    // Let the leader through the gate, then overflow it with a
    // *different* source (the same one would coalesce, not reject).
    while handler.active() == 0 {
        thread::sleep(Duration::from_millis(1));
    }
    let r = handler.handle_line(&compile_line(1, "", &unique_src(1)));
    assert_eq!(r.json.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(r.json.get("code").and_then(Json::string), Some("S120"));
    let leader_response = leader.join().expect("leader thread");
    assert_eq!(leader_response.json.get("ok"), Some(&Json::Bool(true)));
    let summary = handler.summary();
    assert_eq!(summary.rejected_overload, 1);
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.compiled, 1);
}

/// Drain: in-flight compiles complete and are answered; new ones are
/// rejected with `S122`.
#[test]
fn graceful_drain_completes_in_flight_compiles() {
    let handler = Arc::new(Handler::new(
        Arc::new(CompileCache::in_memory(64)),
        ServeConfig {
            compile_hold_ms: 150,
            ..ServeConfig::default()
        },
    ));
    let inflight = {
        let handler = Arc::clone(&handler);
        thread::spawn(move || handler.handle_line(&compile_line(0, "", SRC)))
    };
    while handler.active() == 0 {
        thread::sleep(Duration::from_millis(1));
    }
    handler.begin_drain();
    // New work is refused...
    let r = handler.handle_line(&compile_line(1, "", &unique_src(2)));
    assert_eq!(r.json.get("code").and_then(Json::string), Some("S122"));
    // ...but the admitted compile runs to a successful answer.
    let response = inflight.join().expect("in-flight thread");
    assert_eq!(response.json.get("ok"), Some(&Json::Bool(true)));
    let summary = handler.summary();
    assert_eq!(summary.compiled, 1);
    assert_eq!(summary.errors, 1, "only the drained request errored");
}

/// The counters add up exactly under contended mixed load:
/// every accepted compile is a store, a cache hit or a coalesce.
#[test]
fn counters_are_exact_under_concurrent_load() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 25;
    let handler = handler(ServeConfig::default());
    thread::scope(|scope| {
        for t in 0..THREADS {
            let handler = &handler;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let line = match i % 5 {
                        // Shared sources: hits/coalesces after first use.
                        0..=2 => compile_line(t * PER_THREAD + i, "", SRC),
                        // Unique source per (thread, i): always compiles.
                        3 => compile_line(t * PER_THREAD + i, "", &unique_src(t * PER_THREAD + i)),
                        // Malformed.
                        _ => "{\"v\":1,\"cmd\":\"compile\"}".to_string(),
                    };
                    handler.handle_line(&line);
                }
            });
        }
    });
    let summary = handler.summary();
    let stats = handler.cache().stats();
    let total = THREADS * PER_THREAD;
    let malformed = THREADS * PER_THREAD.div_ceil(5);
    assert_eq!(summary.requests, total);
    assert_eq!(summary.errors, malformed);
    assert_eq!(summary.accepted, total - malformed);
    assert_eq!(summary.compiled, summary.accepted);
    assert_eq!(
        summary.compiled,
        stats.stores + summary.cache_hits + summary.coalesced,
        "every compile is exactly one of stored/hit/coalesced: {summary:?} {stats:?}"
    );
    assert_eq!(summary.rejected_overload, 0);
    assert_eq!(summary.rejected_quota, 0);
    assert_eq!(handler.active(), 0, "the admission gauge returns to zero");
}

/// Panic isolation: a compile that panics — injected here *while
/// holding the in-flight table lock*, poisoning it — degrades to an
/// `S112` answer for the leader AND for every coalesced follower
/// (nobody hangs on the slot), and the handler keeps answering
/// afterwards even though one of its mutexes was poisoned.
#[test]
fn injected_panic_degrades_to_s112_and_the_server_keeps_answering() {
    const FOLLOWERS: u64 = 3;
    let handler = Arc::new(Handler::new(
        Arc::new(CompileCache::in_memory(64)),
        ServeConfig {
            compile_hold_ms: 100,
            panic_on_name: Some("boom".to_string()),
            ..ServeConfig::default()
        },
    ));
    let boom_line = |id: u64| {
        Json::obj(vec![
            ("v", Json::num(1)),
            ("id", Json::num(id)),
            ("cmd", Json::str("compile")),
            ("name", Json::str("boom")),
            ("source", Json::str(SRC)),
        ])
        .to_compact()
    };

    // A leader plus followers racing onto the same fingerprint. Every
    // one must get a typed S112 answer — whether it led (its own panic,
    // caught by the guarded entry point), coalesced onto the doomed
    // slot (the publish guard's answer), or retried as a fresh leader.
    let mut clients = Vec::new();
    for id in 0..=FOLLOWERS {
        let handler = Arc::clone(&handler);
        clients.push(thread::spawn(move || {
            handler.handle_line_guarded(&boom_line(id))
        }));
        // Stagger so followers arrive while the leader holds the slot.
        thread::sleep(Duration::from_millis(10));
    }
    for client in clients {
        let response = client.join().expect("client thread must not die").json;
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            response.get("code").and_then(Json::string),
            Some("S112"),
            "{}",
            response.to_compact()
        );
    }

    // The in-flight table is empty again (the guard retired the slot)...
    assert_eq!(handler.active(), 0);
    // ...and the handler still serves everything, through the poisoned
    // lock: a fresh compile, a quota-metered path, stats and metrics.
    let r = handler.handle_line_guarded(&compile_line(90, "tenant", &unique_src(5)));
    assert_eq!(
        r.json.get("ok"),
        Some(&Json::Bool(true)),
        "a panicked request must not wedge later compiles: {}",
        r.json.to_compact()
    );
    let r = handler.handle_line_guarded("{\"v\":1,\"id\":91,\"cmd\":\"stats\"}");
    assert_eq!(r.json.get("ok"), Some(&Json::Bool(true)));
    assert!(handler.metrics_text().contains("slp_serve_requests_total"));
    let summary = handler.summary();
    assert!(
        summary.errors > FOLLOWERS,
        "every doomed request counted as an error: {summary:?}"
    );
}

/// The metrics exposition reflects the same counters.
#[test]
fn metrics_text_matches_summary() {
    let handler = handler(ServeConfig::default());
    handler.handle_line(&compile_line(0, "", SRC));
    handler.handle_line(&compile_line(1, "", SRC));
    handler.handle_line("garbage");
    let text = handler.metrics_text();
    assert!(text.contains("slp_serve_requests_total 3\n"), "{text}");
    assert!(text.contains("slp_serve_compiled_total 2\n"), "{text}");
    assert!(text.contains("slp_serve_cache_hits_total 1\n"), "{text}");
    assert!(text.contains("slp_serve_errors_total 1\n"), "{text}");
    assert!(text.contains("slp_serve_active 0\n"), "{text}");
    // Exactly one compile ran: its phase telemetry is exported.
    assert!(
        text.contains("slp_phase_nanos_total{phase="),
        "phase telemetry missing:\n{text}"
    );
}

fn cache_of(response: &slp_serve::Response) -> Option<String> {
    (response.json.get("cache").and_then(Json::string)).map(str::to_string)
}

/// A memory hit is answered before the dedup slot, and each request is counted
/// as one lookup: N distinct sources then M repeats read N misses, M
/// memory hits and N stores. An `S113` or `S114` request counts its one
/// miss and stores nothing.
#[test]
fn each_request_counts_one_lookup() {
    const N: u64 = 4;
    const M: u64 = 6;
    let handler = handler(ServeConfig::default());
    for tag in 0..N {
        let r = handler.handle_line(&compile_line(tag, "", &unique_src(tag)));
        assert_eq!(cache_of(&r).as_deref(), Some("compiled"));
    }
    for i in 0..M {
        let r = handler.handle_line(&compile_line(N + i, "", &unique_src(i % N)));
        assert_eq!(cache_of(&r).as_deref(), Some("memory"));
    }
    let stats = handler.cache().stats();
    assert_eq!(
        (
            stats.misses,
            stats.memory_hits,
            stats.disk_hits,
            stats.stores
        ),
        (N, M, 0, N)
    );
    let summary = handler.summary();
    assert_eq!((summary.compiled, summary.cache_hits), (N + M, M));
    assert_eq!(
        summary.compiled,
        stats.stores + summary.cache_hits + summary.coalesced
    );

    let expired = compile_line(90, "", &unique_src(90)).replacen('{', "{\"budget_ms\":0,", 1);
    let r = handler.handle_line(&expired);
    assert_eq!(r.json.get("code").and_then(Json::string), Some("S113"));
    assert_s114(&handler.handle_line(&compile_line(91, "", OOB)));
    let stats = handler.cache().stats();
    assert_eq!((stats.misses, stats.stores), (N + 2, N));
    assert_eq!(handler.summary().compiled, N + M);
}

/// A leader held in its slot still gathers the requests that arrive
/// meanwhile: their lookups before the slot miss uncounted, they wait on
/// the slot, and only the leader's lookup counts.
#[test]
fn a_held_leader_still_coalesces_its_followers() {
    const FOLLOWERS: u64 = 3;
    let handler = Arc::new(handler(ServeConfig {
        compile_hold_ms: 300,
        ..ServeConfig::default()
    }));
    let leader = {
        let handler = Arc::clone(&handler);
        thread::spawn(move || handler.handle_line(&compile_line(0, "", SRC)))
    };
    while handler.active() == 0 {
        thread::sleep(Duration::from_millis(1));
    }
    let followers: Vec<_> = (1..=FOLLOWERS)
        .map(|id| {
            let handler = Arc::clone(&handler);
            thread::spawn(move || handler.handle_line(&compile_line(id, "", SRC)))
        })
        .collect();
    let leader = leader.join().expect("leader thread");
    assert_eq!(cache_of(&leader).as_deref(), Some("compiled"));
    for follower in followers {
        let r = follower.join().expect("follower thread");
        assert_eq!(cache_of(&r).as_deref(), Some("coalesced"));
    }
    let stats = handler.cache().stats();
    assert_eq!((stats.misses, stats.memory_hits, stats.stores), (1, 0, 1));
    let summary = handler.summary();
    assert_eq!(
        (summary.compiled, summary.coalesced),
        (1 + FOLLOWERS, FOLLOWERS)
    );
}

/// A disk-tier hit is read by the leader's lookup, promoted to memory
/// once and counted once: the next request for it is a memory hit,
/// answered before the slot.
#[test]
fn a_disk_hit_is_promoted_once_and_counted_once() {
    let dir = std::env::temp_dir().join(format!("slp-serve-disk-hit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk_backed = || {
        let cache = CompileCache::with_disk(8, &dir);
        Handler::new(Arc::new(cache), ServeConfig::default())
    };
    let first = disk_backed().handle_line(&compile_line(0, "", SRC));
    assert_eq!(cache_of(&first).as_deref(), Some("compiled"));

    let handler = disk_backed();
    for (id, tier) in [(1, "disk"), (2, "memory")] {
        let r = handler.handle_line(&compile_line(id, "", SRC));
        assert_eq!(cache_of(&r).as_deref(), Some(tier));
    }
    let stats = handler.cache().stats();
    assert_eq!(
        (
            stats.disk_hits,
            stats.memory_hits,
            stats.misses,
            stats.stores
        ),
        (1, 1, 0, 0)
    );
    assert_eq!(handler.summary().cache_hits, 2);
    std::fs::remove_dir_all(&dir).expect("remove the scratch cache");
}
