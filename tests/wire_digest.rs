//! Byte goldens of the wire: what `parse_request` makes of the
//! `serve_warm` pool lines and of seeded mutations of them, the bytes the
//! handler answers on every `S1xx` path reachable without timing, and the
//! writer's output for the `compile_cold` kernels.
//!
//! A change to the JSON scanner, the request parser, the handler or the
//! writer must leave every row identical. On a mismatch the test prints
//! the table it computed. The table was re-recorded once, when the
//! `SlpConfig` record lost its two off-by-default extension flags and
//! the `CompileStats` record lost the dependence-refutation counter: the
//! previous codec, changed only to stop writing those three keys and to
//! decode them as their defaults, computes exactly this table. The two
//! `encode_kernel` rows changed again when the lint catalogue gained
//! V305: every payload carries a format stamp hashed from its schema,
//! which lists the lint codes, and with the stamp pinned to its old value
//! the codec computes the previous rows.
//!
//! Mutations holding a `\uD800`–`\uDFFF` escape are skipped: surrogate
//! pairs decode to one character since these digests were taken, and
//! `surrogate_pair_escapes_decode_to_one_character` in
//! `crates/serve/tests/protocol.rs` pins that.

use std::io::Cursor;

use slp_core::{SlpConfig, Strategy};
use slp_driver::json::Json;
use slp_driver::{compile_source, encode_kernel, parse_machine, CompileCache, CompileRequest};
use slp_driver::{Fingerprint, VerifyLevel};
use slp_serve::protocol::{parse_request, Envelope, Request};
use slp_serve::{serve_handler, Handler, QuotaConfig, ServeConfig};

/// FNV-1a over a sequence of byte strings, each closed by a separator.
struct Digest {
    hash: u64,
    count: u64,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            count: 0,
        }
    }

    fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.count += 1;
    }
}

/// SplitMix64: the mutation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next()) * n as u128) >> 64) as usize
    }
}

/// The kernel set of the benchmark at scale 1: Table 3, then branchy.
fn kernels() -> Vec<(String, String)> {
    let mut kernels: Vec<(String, String)> = (slp::suite::catalog().into_iter())
        .map(|spec| (spec.name.to_string(), slp::suite::source(spec.name, 1)))
        .collect();
    for name in slp::suite::branchy_catalog() {
        kernels.push((name.to_string(), slp::suite::branchy_source(name, 1)));
    }
    kernels
}

fn text(s: &str) -> String {
    Json::str(s).to_compact()
}

/// A request line as top-level members, each `(key, value as JSON text)`.
type Members = Vec<(String, String)>;

fn render(members: &Members) -> String {
    let body: Vec<String> = (members.iter())
        .map(|(k, v)| format!("{}:{v}", text(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The 160 `serve_warm` pool lines (kernel × machine × vectorizing
/// scheme), member for member as the benchmark sends them.
fn pool() -> Vec<Members> {
    let mut lines = Vec::new();
    for (name, source) in kernels() {
        for machine in ["intel", "amd"] {
            for (strategy, layout) in [
                ("native", false),
                ("slp", false),
                ("global", false),
                ("global", true),
            ] {
                let member = |k: &str, v: String| (k.to_string(), v);
                lines.push(vec![
                    member("v", "1".to_string()),
                    member("id", text(&format!("p{}", lines.len()))),
                    member("cmd", text("compile")),
                    member("name", text(&name)),
                    member("source", text(&source)),
                    member("strategy", text(strategy)),
                    member("layout", layout.to_string()),
                    member("machine", text(machine)),
                    member("verify", text("static")),
                ]);
            }
        }
    }
    lines
}

fn envelope_text(e: &Envelope) -> String {
    format!("v1={} id={} tenant={:?}", e.v1, e.id.to_compact(), e.tenant)
}

/// A canonical rendering of everything a parsed request carries.
fn request_text(request: Request) -> String {
    match request {
        Request::Compile {
            envelope,
            request,
            budget_ms,
        } => format!(
            "compile {} name={:?} source={:?} fp={} budget={budget_ms:?}",
            envelope_text(&envelope),
            request.name,
            request.source,
            request.fingerprint().to_hex()
        ),
        Request::Stats(e) => format!("stats {}", envelope_text(&e)),
        Request::Ping(e) => format!("ping {}", envelope_text(&e)),
        Request::Shutdown(e) => format!("shutdown {}", envelope_text(&e)),
        Request::Malformed(json) => format!("malformed {}", json.to_compact()),
    }
}

/// Whether `line` holds a `\u` escape of a UTF-16 surrogate.
fn has_surrogate_escape(line: &str) -> bool {
    line.as_bytes().windows(4).any(|w| {
        w[0] == b'\\' && w[1] == b'u' && matches!(w[2], b'd' | b'D') && {
            matches!(w[3], b'8'..=b'9' | b'a'..=b'f' | b'A'..=b'F')
        }
    })
}

/// Characters a flip or an insertion puts into a line.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', ':', ',', '"', '\\', ' ', '\t', '\n', '0', '1', '9', '-', '+', '.', 'e',
    'E', 't', 'n', 'f', 'u', 'l', '/', 'x', 'A', 'é', '😀', '\u{1}',
];

const MUTATIONS: [&str; 8] = [
    "truncate",
    "flip",
    "insert",
    "delete",
    "duplicate",
    "whitespace",
    "key-escape",
    "wrap",
];

/// A random char boundary of `s`, `0..=len`.
fn boundary(rng: &mut Rng, s: &str) -> usize {
    let mut at = rng.below(s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

fn whitespace(rng: &mut Rng) -> String {
    (0..rng.below(3))
        .map(|_| [' ', '\t', '\n', '\r'][rng.below(4)])
        .collect()
}

/// Mutation `kind` of the line `members` render to.
fn mutate(rng: &mut Rng, kind: usize, members: &Members) -> String {
    let line = render(members);
    match MUTATIONS[kind] {
        "truncate" => line[..boundary(rng, &line)].to_string(),
        "flip" | "insert" | "delete" => {
            let at = boundary(rng, &line).min(line.len() - 1);
            let at = (0..=at)
                .rev()
                .find(|&i| line.is_char_boundary(i))
                .unwrap_or(0);
            let width = line[at..].chars().next().map_or(0, char::len_utf8);
            let c = ALPHABET[rng.below(ALPHABET.len())];
            match MUTATIONS[kind] {
                "flip" => format!("{}{c}{}", &line[..at], &line[at + width..]),
                "insert" => format!("{}{c}{}", &line[..at], &line[at..]),
                _ => format!("{}{}", &line[..at], &line[at + width..]),
            }
        }
        "duplicate" => {
            let mut members = members.clone();
            let mut copy = members[rng.below(members.len())].clone();
            if rng.below(2) == 0 {
                copy.1 = members[rng.below(members.len())].1.clone();
            }
            let at = rng.below(members.len() + 1);
            members.insert(at, copy);
            render(&members)
        }
        "whitespace" => {
            let mut out = whitespace(rng);
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let ws: Vec<String> = (0..3).map(|_| whitespace(rng)).collect();
                out.push_str(&format!("{}{}{}:{}{v}", ws[0], text(k), ws[1], ws[2]));
            }
            out.push_str(&whitespace(rng));
            out.push('}');
            out.push_str(&whitespace(rng));
            out
        }
        "key-escape" => {
            let m = rng.below(members.len());
            let key = &members[m].0;
            let at = rng.below(key.len());
            let escape = if rng.below(2) == 0 {
                format!("\\u{:04x}", key.as_bytes()[at])
            } else {
                format!("\\u{:04X}", key.as_bytes()[at])
            };
            let body: Vec<String> = (members.iter().enumerate())
                .map(|(i, (k, v))| {
                    let k = if i == m {
                        format!("\"{}{escape}{}\"", &key[..at], &key[at + 1..])
                    } else {
                        text(k)
                    };
                    format!("{k}:{v}")
                })
                .collect();
            format!("{{{}}}", body.join(","))
        }
        _ => match rng.below(3) {
            0 => format!("[{line}]"),
            1 => format!("[ {line} , 1 ]"),
            _ => format!("[{line},{line}]"),
        },
    }
}

/// Masks the timings of a response line: the digits of `wall_nanos` and
/// of every number inside `phase_nanos`.
fn mask(line: &str) -> String {
    let mut out = line.to_string();
    for (key, close) in [
        ("\"wall_nanos\":", &[',', '}'][..]),
        ("\"phase_nanos\":", &['}']),
    ] {
        let Some(at) = out.find(key) else { continue };
        let start = at + key.len();
        let end = out[start..].find(close).map_or(out.len(), |n| start + n);
        let mut masked = String::new();
        for c in out[start..end].chars() {
            if !c.is_ascii_digit() {
                masked.push(c);
            } else if !masked.ends_with('#') {
                masked.push('#');
            }
        }
        out.replace_range(start..end, &masked);
    }
    out
}

const SRC: &str = "kernel k { array A: f64[16]; array B: f64[16]; \
                   for i in 0..16 { A[i] = A[i] + B[i]; } }";
const SRC2: &str = "kernel j { array A: f64[32]; scalar s: f64; \
                    for i in 0..32 { A[i] = A[i] * s; } }";
const OOB: &str = "kernel oob { array A: f64[8]; for i in 0..8 { A[i+1] = 2.0; } }";
const INVALID: &str = "kernel bad { array A: f64[0]; for i in 0..4 { A[0] = A[0] + 1.0; } }";

/// A v1 compile line: the envelope with `id`, then `extra` members.
fn v1(id: &str, source: &str, extra: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":{id},\"cmd\":\"compile\",\"name\":\"k\",\"source\":{}{extra}}}",
        text(source)
    )
}

fn legacy(source: &str, extra: &str) -> String {
    format!(
        "{{\"cmd\":\"compile\",\"name\":\"k\",\"source\":{}{extra}}}",
        text(source)
    )
}

/// One session of the response table: a handler set up one way and the
/// lines sent to it.
struct Session {
    label: &'static str,
    config: ServeConfig,
    drain: bool,
    lines: Vec<String>,
}

fn sessions() -> Vec<Session> {
    let plain = vec![
        v1("1", SRC, ""),
        v1("\"two\"", SRC, ""),
        legacy(SRC, ""),
        legacy(SRC2, ""),
        v1("3", SRC2, ",\"verify\":\"none\""),
        v1("4", SRC, ",\"verify\":\"prove\""),
        v1("5", SRC, ",\"verify\":\"full\",\"tenant\":\"team-a\""),
        v1(
            "6",
            SRC2,
            ",\"machine\":\"amd\",\"layout\":true,\"unroll\":2",
        ),
        v1("7", SRC2, ",\"strategy\":\"slp\",\"layout\":false"),
        v1("-0", SRC, ""),
        v1("1.5", SRC, ""),
        v1("-3e2", SRC, ""),
        v1("{\"a\":[1,null,true]}", SRC, ""),
        v1("\"a\\\"b\\\\c\\u0001\\u00e9é😀\\n\\t/\"", SRC, ""),
        // S100.
        "{this is not json".to_string(),
        "{\"v\":1,\"id\":5}".to_string(),
        "{\"v\":1,\"id\":6,\"cmd\":\"compile\"}".to_string(),
        v1("8", SRC, ",\"strategy\":\"warp\""),
        v1("9", SRC, ",\"machine\":\"vax\""),
        v1("10", SRC, ",\"verify\":\"maybe\""),
        v1("11", SRC, ",\"unroll\":\"x\""),
        v1("12", SRC, ",\"unroll\":1.5"),
        v1("13", SRC, ",\"layout\":1"),
        v1("14", SRC, ",\"budget_ms\":-1"),
        "{\"v\":1,\"id\":15,\"cmd\":\"compile\",\"source\":5}".to_string(),
        "{\"v\":1,\"id\":16,\"cmd\":7}".to_string(),
        "[1,2]".to_string(),
        "\"str\"".to_string(),
        "null".to_string(),
        "{}".to_string(),
        "{\"cmd\":\"compile\"}".to_string(),
        "{\"v\":1,\"id\":17,\"cmd\":\"compile\",\"source\":\"x\\q\"}".to_string(),
        "{\"v\":1,\"id\":18,\"cmd\":\"compile\",\"source\":\"x\"} trailing".to_string(),
        "{\"v\":1,\"id\":19,\"cmd\":\"compile\",\"source\":\"\\u12\"}".to_string(),
        "{\"v\":1,\"id\":01e,\"cmd\":\"ping\"}".to_string(),
        // S101.
        "{\"v\":1,\"id\":20,\"cmd\":\"frobnicate\"}".to_string(),
        "{\"cmd\":\"frobnicate\"}".to_string(),
        // S102.
        "{\"v\":2,\"id\":21,\"cmd\":\"ping\"}".to_string(),
        "{\"v\":\"1\",\"id\":22,\"cmd\":\"ping\"}".to_string(),
        "{\"v\":1.5,\"cmd\":\"ping\"}".to_string(),
        "{\"v\":null,\"id\":{\"a\":[1,2]},\"cmd\":\"ping\",\"tenant\":7}".to_string(),
        // S110, S111, S113, S114.
        v1("23", "kernel {", ""),
        legacy("kernel {", ""),
        v1("24", INVALID, ""),
        legacy(INVALID, ""),
        v1("25", SRC2, ",\"budget_ms\":0,\"strategy\":\"native\""),
        legacy(SRC2, ",\"budget_ms\":0,\"strategy\":\"native\""),
        v1("26", OOB, ""),
        legacy(OOB, ""),
        // The other verbs.
        "{\"v\":1,\"id\":27,\"cmd\":\"ping\"}".to_string(),
        "{\"cmd\":\"ping\"}".to_string(),
        "{\"v\":1,\"id\":28,\"cmd\":\"stats\"}".to_string(),
        "{\"cmd\":\"stats\"}".to_string(),
        "{\"v\":1,\"id\":29,\"cmd\":\"shutdown\"}".to_string(),
    ];
    let gated = || {
        vec![
            v1("1", SRC, ""),
            legacy(SRC, ""),
            "{\"cmd\":\"ping\"}".into(),
        ]
    };
    let quota = QuotaConfig {
        capacity: 0.0,
        refill_per_sec: 0.0,
    };
    vec![
        Session {
            label: "responses default",
            config: ServeConfig::default(),
            drain: false,
            lines: plain,
        },
        Session {
            label: "responses S121",
            config: ServeConfig {
                quota: Some(quota),
                ..ServeConfig::default()
            },
            drain: false,
            lines: gated(),
        },
        Session {
            label: "responses S122",
            config: ServeConfig::default(),
            drain: true,
            lines: gated(),
        },
        Session {
            label: "responses S112",
            config: ServeConfig {
                panic_on_name: Some("k".to_string()),
                ..ServeConfig::default()
            },
            drain: false,
            lines: gated(),
        },
        Session {
            label: "responses S103",
            config: ServeConfig {
                max_line_bytes: 64,
                ..ServeConfig::default()
            },
            drain: false,
            lines: vec![v1("1", SRC, ""), "{\"cmd\":\"ping\"}".into()],
        },
    ]
}

fn handler_for(session: &Session) -> Handler {
    let handler = Handler::new(
        std::sync::Arc::new(CompileCache::in_memory(16)),
        session.config.clone(),
    );
    if session.drain {
        handler.begin_drain();
    }
    handler
}

fn computed() -> Vec<(String, u64, u64)> {
    let mut table = Vec::new();
    let mut row =
        |label: &str, digest: Digest| table.push((label.to_string(), digest.count, digest.hash));

    // Parsed requests: the pool, then the mutations by kind.
    let pool = pool();
    assert_eq!(pool.len(), 160);
    let mut digest = Digest::new();
    for members in &pool {
        digest.add(request_text(parse_request(&render(members))).as_bytes());
    }
    row("parse pool", digest);
    let mut by_kind: Vec<Digest> = MUTATIONS.iter().map(|_| Digest::new()).collect();
    let mut rng = Rng(0x5eed_0026);
    let mut skipped = Digest::new();
    for _ in 0..4000 {
        let members = &pool[rng.below(pool.len())];
        let kind = rng.below(MUTATIONS.len());
        let line = mutate(&mut rng, kind, members);
        if has_surrogate_escape(&line) {
            skipped.add(line.as_bytes());
            continue;
        }
        by_kind[kind].add(request_text(parse_request(&line)).as_bytes());
    }
    for (kind, digest) in MUTATIONS.iter().zip(by_kind) {
        row(&format!("parse {kind}"), digest);
    }
    row("parse skipped", skipped);

    // Response bytes, through the stdio session and through the handler.
    for session in sessions() {
        let handler = handler_for(&session);
        let mut out = Vec::new();
        let input = session.lines.join("\n");
        serve_handler(Cursor::new(input), &mut out, &handler).expect("in-memory I/O");
        let out = String::from_utf8(out).expect("responses are UTF-8");
        let handler = handler_for(&session);
        let mut direct = String::new();
        for line in &session.lines {
            let cap = handler.max_line_bytes();
            let response = if cap != 0 && line.len() > cap {
                handler.reject_oversized_line()
            } else {
                handler.handle_line_guarded(line)
            };
            direct.push_str(&response.json.to_compact());
            direct.push('\n');
            if response.shutdown {
                break;
            }
        }
        let masked: Vec<String> = out.lines().map(mask).collect();
        let direct: Vec<String> = direct.lines().map(mask).collect();
        assert_eq!(masked, direct, "{}", session.label);
        let mut digest = Digest::new();
        for line in &masked {
            digest.add(line.as_bytes());
        }
        row(session.label, digest);
    }

    // Writer output over the `compile_cold` kernels.
    let (mut compact, mut pretty, mut hex) = (Digest::new(), Digest::new(), Digest::new());
    for (name, source) in kernels() {
        for machine in ["intel", "amd"] {
            let machine = parse_machine(machine).expect("a machine");
            let of = |strategy| SlpConfig::for_machine(machine.clone(), strategy);
            for config in [
                of(Strategy::Scalar),
                of(Strategy::Native),
                of(Strategy::Baseline),
                of(Strategy::Holistic),
                of(Strategy::Holistic).with_layout(),
            ] {
                let req = CompileRequest {
                    name: name.clone(),
                    source: source.clone(),
                    config,
                    verify: VerifyLevel::Static,
                };
                let out = compile_source(&req, None).expect("compiles");
                let json = encode_kernel(&out.kernel);
                compact.add(json.to_compact().as_bytes());
                pretty.add(json.to_pretty().as_bytes());
                hex.add(out.fingerprint.to_hex().as_bytes());
            }
        }
    }
    row("encode_kernel compact", compact);
    row("encode_kernel pretty", pretty);
    row("fingerprint to_hex", hex);
    let mut edges = Digest::new();
    for fp in [
        Fingerprint(0, 0),
        Fingerprint(u64::MAX, 1),
        Fingerprint(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210),
    ] {
        edges.add(fp.to_hex().as_bytes());
    }
    row("fingerprint edges", edges);
    table
}

/// `(label, items, FNV-1a)` as recorded.
const RECORDED: &[(&str, u64, u64)] = &[
    ("parse pool", 160, 0x87296d25e9e1b485),
    ("parse truncate", 499, 0x05a5e19ac5148a0d),
    ("parse flip", 504, 0x1377ac65804432b8),
    ("parse insert", 493, 0x0e507d3ace2474b2),
    ("parse delete", 455, 0x7876fcd2f8e22c34),
    ("parse duplicate", 480, 0x6cca3fadd1916b69),
    ("parse whitespace", 507, 0xfa99d103d0874194),
    ("parse key-escape", 545, 0x77064d18a5e70f12),
    ("parse wrap", 517, 0x82e1c257ce732d8e),
    ("parse skipped", 0, 0xcbf29ce484222325),
    ("responses default", 54, 0x3c46f9611c837a91),
    ("responses S121", 3, 0x8ff0e22c2ec1402d),
    ("responses S122", 3, 0xcd9c7f298b5380a4),
    ("responses S112", 3, 0x6636b112641dd8ec),
    ("responses S103", 2, 0x4e41c7f17526c76e),
    ("encode_kernel compact", 200, 0x1b3be0e1cda9f3c3),
    ("encode_kernel pretty", 200, 0xb704153f2e4cd22d),
    ("fingerprint to_hex", 200, 0xe740bb868e54603e),
    ("fingerprint edges", 3, 0x4b11f15bfecc41bf),
];

#[test]
fn wire_bytes_are_the_recorded_ones() {
    let table = computed();
    let rendered: Vec<String> = (table.iter())
        .map(|(label, count, hash)| format!("    ({label:?}, {count}, 0x{hash:016x}),"))
        .collect();
    let recorded: Vec<(String, u64, u64)> = (RECORDED.iter())
        .map(|&(label, count, hash)| (label.to_string(), count, hash))
        .collect();
    assert!(
        table == recorded,
        "wire digests differ; computed:\n{}",
        rendered.join("\n")
    );
}
