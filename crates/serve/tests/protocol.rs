//! Wire-protocol pinning: the v1 envelope, the legacy bare form, the
//! stable `S1xx` error codes, and the strategy strings the docs
//! promise.

use std::io::Cursor;
use std::sync::Arc;

use slp_core::Strategy;
use slp_driver::json::Json;
use slp_driver::{CompileCache, ServeSummary};
use slp_serve::{serve_handler, Handler, ServeConfig};

const SRC: &str = "kernel k { array A: f64[16]; array B: f64[16]; \
                   for i in 0..16 { A[i] = A[i] + B[i]; } }";

/// Drives `lines` through a fresh default handler over the stdio
/// adapter and returns the parsed responses plus the summary.
fn run(lines: &str) -> (Vec<Json>, ServeSummary) {
    run_with(lines, ServeConfig::default())
}

fn run_with(lines: &str, config: ServeConfig) -> (Vec<Json>, ServeSummary) {
    let handler = Handler::new(Arc::new(CompileCache::in_memory(8)), config);
    let mut out = Vec::new();
    let summary = serve_handler(Cursor::new(lines), &mut out, &handler).expect("serve I/O");
    let responses = String::from_utf8(out)
        .expect("utf8 output")
        .lines()
        .map(|l| Json::parse(l).expect("response parses"))
        .collect();
    (responses, summary)
}

fn compile_v1(id: u64, tenant: &str, source: &str) -> String {
    Json::obj(vec![
        ("v", Json::num(1)),
        ("id", Json::num(id)),
        ("tenant", Json::str(tenant)),
        ("cmd", Json::str("compile")),
        ("name", Json::str("k")),
        ("source", Json::str(source)),
    ])
    .to_compact()
}

#[test]
fn v1_envelope_round_trips_with_id_echo() {
    let (responses, summary) = run(&format!(
        "{}\n{}\n",
        compile_v1(7, "team-a", SRC),
        compile_v1(8, "team-a", SRC)
    ));
    assert_eq!(responses.len(), 2);
    for (r, id) in responses.iter().zip([7, 8]) {
        assert_eq!(r.get("v").and_then(Json::u64), Some(1));
        assert_eq!(r.get("id").and_then(Json::u64), Some(id));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    }
    assert_eq!(
        responses[0].get("cache").and_then(Json::string),
        Some("compiled")
    );
    assert_eq!(
        responses[1].get("cache").and_then(Json::string),
        Some("memory")
    );
    assert_eq!(summary.compiled, 2);
    assert_eq!(summary.cache_hits, 1);
}

#[test]
fn v1_echoes_string_ids_verbatim() {
    let line = format!("{{\"v\":1,\"id\":\"req-xyz\",\"cmd\":\"compile\",\"source\":{SRC:?}}}");
    let (responses, _) = run(&line);
    assert_eq!(
        responses[0].get("id").and_then(Json::string),
        Some("req-xyz")
    );
}

/// The compat contract: a bare legacy request gets the historical
/// response shape — no `v`, no `id`, errors use `kind` — while a v1
/// request gets the envelope. One server, both shapes.
#[test]
fn legacy_requests_still_get_legacy_responses() {
    let legacy_ok = format!("{{\"cmd\":\"compile\",\"name\":\"k\",\"source\":{SRC:?}}}");
    let legacy_bad = "{\"cmd\":\"compile\",\"source\":\"kernel {\"}".to_string();
    let v1_bad = "{\"v\":1,\"id\":3,\"cmd\":\"compile\",\"source\":\"kernel {\"}".to_string();
    let (responses, _) = run(&format!("{legacy_ok}\n{legacy_bad}\n{v1_bad}\n"));

    // Legacy success: ok plus payload, no envelope keys.
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(responses[0].get("v"), None);
    assert_eq!(responses[0].get("id"), None);
    assert_eq!(
        responses[0].get("cache").and_then(Json::string),
        Some("compiled")
    );

    // Legacy failure: `kind`, not `code`.
    assert_eq!(responses[1].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        responses[1].get("kind").and_then(Json::string),
        Some("parse")
    );
    assert_eq!(responses[1].get("code"), None);
    assert_eq!(responses[1].get("v"), None);

    // The same failure under v1: `code`, not `kind`, id echoed.
    assert_eq!(responses[2].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        responses[2].get("code").and_then(Json::string),
        Some("S110")
    );
    assert_eq!(responses[2].get("kind"), None);
    assert_eq!(responses[2].get("id").and_then(Json::u64), Some(3));
}

#[test]
fn error_codes_are_stable() {
    let cases: Vec<(String, &str)> = vec![
        // Unknown command.
        ("{\"v\":1,\"cmd\":\"frobnicate\"}".into(), "S101"),
        // Unsupported version.
        ("{\"v\":2,\"cmd\":\"ping\"}".into(), "S102"),
        // Missing source.
        ("{\"v\":1,\"cmd\":\"compile\"}".into(), "S100"),
        // Unknown strategy string.
        (
            format!("{{\"v\":1,\"cmd\":\"compile\",\"source\":{SRC:?},\"strategy\":\"warp\"}}"),
            "S100",
        ),
        // Source does not parse.
        (
            "{\"v\":1,\"cmd\":\"compile\",\"source\":\"kernel {\"}".into(),
            "S110",
        ),
        // Parses but fails semantic validation (zero-extent array).
        (
            "{\"v\":1,\"cmd\":\"compile\",\"source\":\"kernel bad { array A: f64[0]; \
             for i in 0..4 { A[0] = A[0] + 1.0; } }\"}"
                .into(),
            "S111",
        ),
    ];
    let lines: String = cases.iter().map(|(l, _)| format!("{l}\n")).collect();
    let (responses, summary) = run(&lines);
    for ((line, code), response) in cases.iter().zip(&responses) {
        assert_eq!(
            response.get("ok"),
            Some(&Json::Bool(false)),
            "{line} should fail"
        );
        assert_eq!(
            response.get("code").and_then(Json::string),
            Some(*code),
            "wrong code for {line}"
        );
    }
    assert_eq!(summary.errors, cases.len() as u64);
}

/// A budget is a deadline the compile itself checks: `budget_ms: 0` has
/// passed by the first checkpoint on any machine, so the request answers
/// `S113` without a sleep anywhere — and without a trace: nothing stored,
/// nothing counted as compiled, nothing left in flight, and the same
/// kernel compiles and caches normally afterwards.
#[test]
fn an_expired_budget_answers_s113_and_leaves_no_trace() {
    let handler = Handler::with_cache(CompileCache::in_memory(8));
    let unbudgeted = compile_v1(41, "", SRC);
    let budgeted = unbudgeted.replacen('{', "{\"budget_ms\":0,", 1);
    let legacy = format!("{{\"cmd\":\"compile\",\"source\":{SRC:?},\"budget_ms\":0}}");

    let timed_out = handler.handle_line(&budgeted).json;
    assert_eq!(timed_out.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(timed_out.get("code").and_then(Json::string), Some("S113"));
    assert_eq!(timed_out.get("id").and_then(Json::u64), Some(41));
    let timed_out = handler.handle_line(&legacy).json;
    assert_eq!(
        timed_out.get("kind").and_then(Json::string),
        Some("timeout")
    );
    assert_eq!(handler.cache().stats().stores, 0);
    assert_eq!(handler.summary().compiled, 0);
    assert_eq!(handler.summary().errors, 2);
    assert_eq!(handler.active(), 0);

    for disposition in ["compiled", "memory"] {
        let served = handler.handle_line(&unbudgeted).json;
        assert_eq!(
            served.get("cache").and_then(Json::string),
            Some(disposition),
            "{}",
            served.to_compact()
        );
    }
    assert_eq!(handler.cache().stats().stores, 1);
}

/// Tentpole regression: a kernel the certificate pass proves
/// memory-unsafe is rejected with the stable `S114` code *before* any
/// compile work — the compiler never runs, so nothing is cached — and
/// the session keeps serving. Legacy clients see the same rejection as
/// `kind: "unsafe"`.
#[test]
fn proven_unsafe_kernels_are_rejected_before_compilation() {
    let oob = "kernel oob { array A: f64[8]; for i in 0..8 { A[i+1] = 2.0; } }";
    let legacy = format!("{{\"cmd\":\"compile\",\"name\":\"oob\",\"source\":{oob:?}}}");
    let lines = format!(
        "{}\n{legacy}\n{}\n",
        compile_v1(1, "", oob),
        compile_v1(2, "", SRC)
    );
    let (responses, summary) = run(&lines);

    // v1: typed S114 rejection naming the faulting access.
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        responses[0].get("code").and_then(Json::string),
        Some("S114")
    );
    assert!(
        responses[0]
            .get("error")
            .and_then(Json::string)
            .is_some_and(|e| e.contains("proven memory-unsafe")),
        "{}",
        responses[0].to_compact()
    );

    // Legacy: same gate, historical shape.
    assert_eq!(responses[1].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        responses[1].get("kind").and_then(Json::string),
        Some("unsafe")
    );

    // The session keeps serving, and the safe compile still works.
    assert_eq!(responses[2].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(summary.rejected_unsafe, 2);
    assert_eq!(summary.errors, 2);
    // The unsafe kernel never reached the compiler: one compile total.
    assert_eq!(summary.compiled, 1);
}

/// A character outside the BMP sent as a surrogate-pair escape — how
/// Python's `json.dumps` writes it by default — is the same request as
/// the character sent raw. A lone or reversed surrogate is still refused.
#[test]
fn surrogate_pair_escapes_decode_to_one_character() {
    let raw = compile_v1(1, "", &format!("// {}\n{SRC}", '\u{1f600}'));
    let escaped = raw.replace('\u{1f600}', "\\ud83d\\ude00");
    let handler = Handler::with_cache(CompileCache::in_memory(8));
    let without_wall_nanos = |line: &str| {
        let Json::Obj(mut pairs) = handler.handle_line(line).json else {
            panic!("a response is an object");
        };
        pairs.retain(|(key, _)| key != "wall_nanos");
        Json::Obj(pairs).to_compact()
    };
    let compiled = without_wall_nanos(&raw);
    assert!(compiled.contains("\"cache\":\"compiled\""), "{compiled}");
    let hit = without_wall_nanos(&raw);
    assert!(hit.contains("\"cache\":\"memory\""), "{hit}");
    assert_eq!(without_wall_nanos(&escaped), hit);

    // Refused at the end of the first escape, as before pairs decoded.
    let at = raw.find('\u{1f600}').expect("raw emoji") + "\\ud83d".len();
    let refusal = format!("invalid request JSON: non-scalar \\u escape at byte {at}");
    for lone in ["\\ud83d", "\\ude00", "\\ude00\\ud83d", "\\ud83d\\u0041"] {
        let response = handler.handle_line(&raw.replace('\u{1f600}', lone)).json;
        let error = response.get("error").and_then(Json::string);
        assert_eq!(error, Some(refusal.as_str()), "{lone}");
    }
}

#[test]
fn unparseable_lines_answer_in_the_legacy_shape() {
    // Garbage cannot name a protocol version, so even v1 clients must
    // accept the legacy shape here; the presence of `code` (and absence
    // of `kind`) is how the shapes stay distinguishable — except for
    // this one case, which both generations report identically.
    let (responses, _) = run("{this is not json\n");
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        responses[0].get("kind").and_then(Json::string),
        Some("request")
    );
    assert_eq!(responses[0].get("v"), None);
}

/// Satellite regression: a request line past the configured byte cap
/// is answered with the stable `S103` error — in the legacy shape,
/// since an unread line cannot name a protocol version — and the
/// session keeps serving the lines after it.
#[test]
fn oversized_lines_answer_s103_and_the_session_survives() {
    let config = ServeConfig {
        max_line_bytes: 256,
        ..ServeConfig::default()
    };
    // An otherwise-valid compile whose source alone blows the cap.
    let huge = compile_v1(
        1,
        "",
        &format!("kernel k {{ {} }}", "array A: f64[16]; ".repeat(100)),
    );
    assert!(huge.len() > 256);
    let lines = format!("{huge}\n{}\n", compile_v1(2, "", SRC));
    let (responses, summary) = run_with(&lines, config);
    assert_eq!(responses.len(), 2);

    // The oversized line: a typed rejection, legacy-shaped.
    assert_eq!(responses[0].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        responses[0].get("kind").and_then(Json::string),
        Some("request")
    );
    assert!(
        responses[0]
            .get("error")
            .and_then(Json::string)
            .is_some_and(|e| e.contains("256-byte cap")),
        "{}",
        responses[0].to_compact()
    );

    // The line after it is served normally.
    assert_eq!(responses[1].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(responses[1].get("id").and_then(Json::u64), Some(2));
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.errors, 1);
}

/// The cap is byte-exact (a line at the cap passes) and `0` disables
/// it entirely.
#[test]
fn line_cap_boundary_and_opt_out() {
    let at_cap = compile_v1(1, "", SRC);
    let (responses, _) = run_with(
        &format!("{at_cap}\n"),
        ServeConfig {
            max_line_bytes: at_cap.len(),
            ..ServeConfig::default()
        },
    );
    assert_eq!(
        responses[0].get("ok"),
        Some(&Json::Bool(true)),
        "a line exactly at the cap must pass: {}",
        responses[0].to_compact()
    );

    // Cap disabled: a multi-megabyte line (a valid kernel padded with
    // whitespace) is read in full and compiles.
    let huge = compile_v1(2, "", &format!("{}{}", " ".repeat(1 << 21), SRC));
    let (responses, _) = run_with(
        &format!("{huge}\n"),
        ServeConfig {
            max_line_bytes: 0,
            ..ServeConfig::default()
        },
    );
    assert_eq!(
        responses[0].get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        responses[0].to_compact()
    );
}

/// Satellite regression: the usage docs list exactly the strategy
/// strings the parser accepts — including `optimal` and the
/// `auto-adjacent` alias — and every documented string compiles.
#[test]
fn documented_strategy_strings_round_trip() {
    let documented = [
        "scalar",
        "native",
        "auto-adjacent",
        "slp",
        "global",
        "optimal",
    ];
    for name in documented {
        // The parser accepts every documented string...
        let strategy: Strategy = name
            .parse()
            .unwrap_or_else(|_| panic!("documented strategy {name:?} must parse"));
        // ...the canonical rendering parses back to the same strategy...
        assert_eq!(
            strategy.cli_name().parse(),
            Ok(strategy),
            "cli_name of {name:?} must round-trip"
        );
        // ...and a wire request naming it compiles.
        let line =
            format!("{{\"v\":1,\"cmd\":\"compile\",\"source\":{SRC:?},\"strategy\":{name:?}}}");
        let (responses, _) = run(&line);
        assert_eq!(
            responses[0].get("ok"),
            Some(&Json::Bool(true)),
            "documented strategy {name:?} must compile: {}",
            responses[0].to_compact()
        );
    }
    // The alias is an alias, not a distinct strategy: both names land on
    // the same pipeline and so the same cache key.
    assert_eq!(
        "auto-adjacent".parse::<Strategy>(),
        "native".parse::<Strategy>()
    );
}

#[test]
fn ping_stats_and_shutdown_verbs() {
    let lines = format!(
        "{}\n{}\n{}\n{}\n{}\n",
        "{\"v\":1,\"id\":1,\"cmd\":\"ping\"}",
        compile_v1(2, "", SRC),
        "{\"v\":1,\"id\":3,\"cmd\":\"stats\"}",
        "{\"cmd\":\"stats\"}",
        "{\"v\":1,\"id\":4,\"cmd\":\"shutdown\"}",
    );
    let (responses, summary) = run(&lines);
    assert_eq!(responses.len(), 5);
    assert_eq!(responses[0].get("pong"), Some(&Json::Bool(true)));

    // v1 stats: serve counters, cache counters, gauges.
    let stats = &responses[2];
    assert_eq!(stats.get("id").and_then(Json::u64), Some(3));
    let serve = stats.get("serve").expect("v1 stats carry serve counters");
    assert_eq!(serve.get("compiled").and_then(Json::u64), Some(1));
    assert!(stats.get("cache").is_some());
    assert_eq!(stats.get("draining"), Some(&Json::Bool(false)));

    // Legacy stats: the historical flat shape.
    let legacy = &responses[3];
    assert!(legacy.get("cache").is_some());
    assert_eq!(legacy.get("compiled").and_then(Json::u64), Some(1));
    assert_eq!(legacy.get("serve"), None);

    // Shutdown acknowledges in-envelope and ends the loop.
    assert_eq!(responses[4].get("shutdown"), Some(&Json::Bool(true)));
    assert_eq!(responses[4].get("id").and_then(Json::u64), Some(4));
    assert_eq!(summary.requests, 5);
}

#[test]
fn shutdown_stops_the_loop_before_later_lines() {
    let (responses, summary) = run("{\"cmd\":\"shutdown\"}\n{\"cmd\":\"stats\"}\n");
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].get("shutdown"), Some(&Json::Bool(true)));
    assert_eq!(summary.requests, 1);
}

#[test]
fn coalesced_marker_never_appears_uncontended() {
    // Single-threaded traffic can never coalesce; the cache field must
    // be one of the tier names.
    let (responses, summary) = run(&format!(
        "{}\n{}\n",
        compile_v1(1, "", SRC),
        compile_v1(2, "", SRC)
    ));
    for r in &responses {
        let cache = r.get("cache").and_then(Json::string).expect("cache field");
        assert!(["compiled", "memory", "disk"].contains(&cache), "{cache}");
    }
    assert_eq!(summary.coalesced, 0);
}
