//! Seeded input generation. The program under test only ever sees the
//! text produced here; `--seed` drives every shuffle, draw and name.

use slp_core::{MachineConfig, SlpConfig, Strategy};
use slp_driver::json::Json;
use slp_driver::{CompileRequest, VerifyLevel};

/// SplitMix64: tiny, seedable, and good enough to shuffle and draw.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    /// The next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over everything a workload feeds the system, printed as
/// `input_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Mixes `bytes` in, followed by a separator.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xFF]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The two machine models of the paper's evaluation, by wire name.
pub const MACHINES: [&str; 2] = ["intel", "amd"];

/// The machine description behind a wire name of [`MACHINES`].
pub fn machine(name: &str) -> MachineConfig {
    slp_driver::parse_machine(name).expect("a machine name of MACHINES")
}

/// A compilation scheme of §7, plus the solver-backed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No SLP: the code speed-ups are normalised to.
    Scalar,
    /// The native compiler's adjacent-statement vectorizer.
    Native,
    /// Larsen & Amarasinghe's SLP.
    Slp,
    /// The paper's holistic optimizer.
    Global,
    /// Global plus the §5 data layout stage.
    GlobalLayout,
    /// Branch-and-bound packing under a node cap (no deadline, so the
    /// search and its result repeat exactly).
    Optimal,
}

/// Solver node cap of [`Scheme::Optimal`].
pub const OPT_NODE_CAP: u64 = 500;

impl Scheme {
    /// The five schemes of the heuristic workloads, in figure order.
    pub const FIVE: [Scheme; 5] = [
        Scheme::Scalar,
        Scheme::Native,
        Scheme::Slp,
        Scheme::Global,
        Scheme::GlobalLayout,
    ];

    /// The four vectorizing schemes the compile service is asked for.
    pub const VECTORIZING: [Scheme; 4] = [
        Scheme::Native,
        Scheme::Slp,
        Scheme::Global,
        Scheme::GlobalLayout,
    ];

    /// The `strategy` and `layout` fields of a wire request.
    pub fn wire(self) -> (&'static str, bool) {
        match self {
            Scheme::Scalar => ("scalar", false),
            Scheme::Native => ("native", false),
            Scheme::Slp => ("slp", false),
            Scheme::Global => ("global", false),
            Scheme::GlobalLayout => ("global", true),
            Scheme::Optimal => ("optimal", false),
        }
    }

    /// The pipeline configuration of this scheme on `machine`, built
    /// from the library's own types — independently of the wire parse.
    pub fn config(self, machine: MachineConfig) -> SlpConfig {
        let strategy = match self {
            Scheme::Scalar => Strategy::Scalar,
            Scheme::Native => Strategy::Native,
            Scheme::Slp => Strategy::Baseline,
            Scheme::Global | Scheme::GlobalLayout => Strategy::Holistic,
            Scheme::Optimal => Strategy::Optimal,
        };
        let config = SlpConfig::for_machine(machine, strategy);
        match self {
            Scheme::GlobalLayout => config.with_layout(),
            Scheme::Optimal => config.with_opt_budget(0, OPT_NODE_CAP),
            _ => config,
        }
    }
}

/// One kernel of the benchmark's kernel set.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Its name (also the name in `kernel <name> {`).
    pub name: String,
    /// Its `slp-lang` source text.
    pub source: String,
}

/// The kernel set at problem scale `scale`: the 16 Table 3 kernels and
/// the 4 branchy kernels. `smoke` keeps five small ones, so that a
/// debug-build test run stays short.
pub fn kernels(scale: usize, smoke: bool) -> Vec<Kernel> {
    const SMOKE: [&str; 5] = ["soplex", "dealII", "sp", "abs", "clamp"];
    let table3 = slp_suite::catalog().into_iter().map(|spec| Kernel {
        name: spec.name.to_string(),
        source: slp_suite::source(spec.name, scale),
    });
    let branchy = slp_suite::branchy_catalog().into_iter().map(|name| Kernel {
        name: name.to_string(),
        source: slp_suite::branchy_source(name, scale),
    });
    table3
        .chain(branchy)
        .filter(|k| !smoke || SMOKE.contains(&k.name.as_str()))
        .collect()
}

/// One (kernel, machine, scheme) combination: a job of the offline
/// workloads, an entry of the serve workloads' request pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Triple {
    /// Index into the kernel set.
    pub kernel: usize,
    /// Index into [`MACHINES`].
    pub machine: usize,
    /// The scheme.
    pub scheme: Scheme,
}

/// Every kernel × machine × scheme of `schemes`, kernel-major.
pub fn triples(kernels: usize, schemes: &[Scheme]) -> Vec<Triple> {
    let mut out = Vec::with_capacity(kernels * MACHINES.len() * schemes.len());
    for kernel in 0..kernels {
        for machine in 0..MACHINES.len() {
            for &scheme in schemes {
                out.push(Triple {
                    kernel,
                    machine,
                    scheme,
                });
            }
        }
    }
    out
}

/// The library-side request of `triple` over `source`.
pub fn compile_request(
    name: &str,
    source: &str,
    triple: Triple,
    verify: VerifyLevel,
) -> CompileRequest {
    CompileRequest {
        name: name.to_string(),
        source: source.to_string(),
        config: triple.scheme.config(machine(MACHINES[triple.machine])),
        verify,
    }
}

/// What a serve response must look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `ok`, answered from the memory tier or an in-flight compile.
    Hit,
    /// `ok`, compiled by this request.
    Compiled,
    /// `ok:false` with this `S1xx` code.
    Code(&'static str),
    /// Unparseable line: `ok:false` in the legacy shape (`kind`
    /// `request`, no `id`), which is how the protocol answers a line
    /// that cannot name a version.
    BadLine,
}

/// One request of a serve workload.
#[derive(Debug, Clone)]
pub struct Request {
    /// The line to send, without the newline.
    pub line: String,
    /// Its `id`.
    pub id: String,
    /// What the response must be.
    pub expect: Expect,
    /// Kernel name and source sent, for requests that should compile.
    pub kernel: Option<Kernel>,
    /// The pool entry the request was made from.
    pub entry: usize,
    /// Which kind of job this is, below [`Pool::kinds`]: requests of
    /// one kind ask the service for the same work.
    pub kind: usize,
}

const NAME_MARK: &str = "@@NAME@@";

/// The serve workloads' request pool: every kernel × vectorizing
/// scheme × machine as a v1 `compile` line.
#[derive(Debug, Clone)]
pub struct Pool {
    /// What each entry compiles.
    pub triples: Vec<Triple>,
    kernels: Vec<Kernel>,
    /// Each entry's line after the `id` field, the kernel's name
    /// replaced by [`NAME_MARK`] wherever it occurs.
    tails: Vec<String>,
}

impl Pool {
    /// The pool over `kernels`.
    pub fn new(kernels: Vec<Kernel>) -> Pool {
        let triples = triples(kernels.len(), &Scheme::VECTORIZING);
        let tails = triples
            .iter()
            .map(|t| {
                let k = &kernels[t.kernel];
                let (strategy, layout) = t.scheme.wire();
                let body = Json::obj([
                    ("cmd", Json::str("compile")),
                    ("name", Json::str(NAME_MARK)),
                    ("source", Json::str(rename(&k.source, &k.name, NAME_MARK))),
                    ("strategy", Json::str(strategy)),
                    ("layout", Json::Bool(layout)),
                    ("machine", Json::str(MACHINES[t.machine])),
                    ("verify", Json::str("static")),
                ])
                .to_compact();
                body[1..].to_string()
            })
            .collect();
        Pool {
            triples,
            kernels,
            tails,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Kinds of job the streams over this pool send: one per entry, and
    /// one per error class of `serve_cold`.
    pub fn kinds(&self) -> usize {
        self.len() + 3
    }

    /// Whether the pool has no entries.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// The kernel entry `entry` compiles, under its own name.
    pub fn kernel(&self, entry: usize) -> &Kernel {
        &self.kernels[self.triples[entry].kernel]
    }

    fn line(&self, entry: usize, id: &str, name: &str) -> String {
        format!(
            "{{\"v\":1,\"id\":\"{id}\",{}",
            self.tails[entry].replace(NAME_MARK, name)
        )
    }

    /// Entry `entry` under its own kernel name: the same bytes on every
    /// call but for the `id`, so it hits once cached.
    pub fn request(&self, entry: usize, id: String) -> Request {
        let kernel = self.kernel(entry).clone();
        Request {
            line: self.line(entry, &id, &kernel.name),
            id,
            expect: Expect::Hit,
            kernel: Some(kernel),
            entry,
            kind: entry,
        }
    }
}

/// `source` with its `kernel <from> {` header renamed to `to`.
fn rename(source: &str, from: &str, to: &str) -> String {
    let header = format!("kernel {from} {{");
    assert!(source.starts_with(&header), "source opens with its header");
    format!("kernel {to} {{{}", &source[header.len()..])
}

/// `serve_warm`'s stream for one connection: the pool in a fresh seeded
/// order, round after round — uniform draws, stratified so that every
/// stretch of the stream has the same mix.
#[derive(Debug)]
pub struct WarmStream<'a> {
    pool: &'a Pool,
    rng: Rng,
    conn: usize,
    seq: u64,
    round: Vec<usize>,
}

impl<'a> WarmStream<'a> {
    /// The stream of connection `conn` under `seed`.
    pub fn new(pool: &'a Pool, seed: u64, conn: usize) -> Self {
        WarmStream {
            pool,
            rng: Rng::new(seed, 0x100 + conn as u64),
            conn,
            seq: 0,
            round: Vec::new(),
        }
    }
}

impl Iterator for WarmStream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.round.is_empty() {
            self.round = (0..self.pool.len()).collect();
            self.rng.shuffle(&mut self.round);
        }
        let entry = self.round.pop()?;
        let id = format!("c{}-{}", self.conn, self.seq);
        self.seq += 1;
        Some(self.pool.request(entry, id))
    }
}

/// A request class of `serve_cold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// A pool entry with its kernel renamed: compiles.
    Valid(usize),
    /// A source whose certificate proves an out-of-bounds access.
    OutOfBounds,
    /// Half a request line.
    BadLine,
    /// A source without its closing brace.
    Syntax,
}

/// `serve_cold`'s stream for one connection: every request unique. A
/// round is every pool entry once with its kernel renamed (90 %), plus
/// 5 % provably out-of-bounds sources, 3 % unparseable lines and 2 %
/// source syntax errors, in a seeded order.
#[derive(Debug)]
pub struct ColdStream<'a> {
    pool: &'a Pool,
    rng: Rng,
    seed: u64,
    conn: usize,
    seq: u64,
    round: Vec<Class>,
}

impl<'a> ColdStream<'a> {
    /// The stream of connection `conn` under `seed`.
    pub fn new(pool: &'a Pool, seed: u64, conn: usize) -> Self {
        ColdStream {
            pool,
            rng: Rng::new(seed, 0x200 + conn as u64),
            seed,
            conn,
            seq: 0,
            round: Vec::new(),
        }
    }

    /// How often each error class occurs in a round: per 90 valid
    /// requests 5, 3 and 2.
    fn error_classes(pool: &Pool) -> [(Class, usize); 3] {
        let per_90 = |n: usize| (pool.len() * n + 45) / 90;
        [
            (Class::OutOfBounds, per_90(5)),
            (Class::BadLine, per_90(3)),
            (Class::Syntax, per_90(2)),
        ]
    }

    /// Requests per round.
    pub fn round_len(pool: &Pool) -> usize {
        let errors: usize = ColdStream::error_classes(pool).iter().map(|c| c.1).sum();
        pool.len() + errors
    }

    fn fresh_round(&mut self) -> Vec<Class> {
        let mut round: Vec<Class> = (0..self.pool.len()).map(Class::Valid).collect();
        for (class, count) in ColdStream::error_classes(self.pool) {
            round.extend(std::iter::repeat_n(class, count));
        }
        self.rng.shuffle(&mut round);
        round
    }
}

impl Iterator for ColdStream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.round.is_empty() {
            self.round = self.fresh_round();
        }
        let class = self.round.pop()?;
        let entry = match class {
            Class::Valid(entry) => entry,
            _ => self.rng.below(self.pool.len() as u64) as usize,
        };
        let base = self.pool.kernel(entry);
        let name = format!("{}_{}_{}_{}", base.name, self.seed, self.conn, self.seq);
        let id = format!("c{}-{}", self.conn, self.seq);
        self.seq += 1;
        let error_line = |source: String| {
            Json::obj([
                ("v", Json::num(1)),
                ("id", Json::str(id.as_str())),
                ("cmd", Json::str("compile")),
                ("name", Json::str(name.as_str())),
                ("source", Json::str(source)),
            ])
            .to_compact()
        };
        let (line, expect, kernel) = match class {
            Class::Valid(_) => {
                let source = rename(&base.source, &base.name, &name);
                let line = self.pool.line(entry, &id, &name);
                (line, Expect::Compiled, Some(Kernel { name, source }))
            }
            Class::OutOfBounds => {
                // The last iteration reads `A[n - 1 + past]`: out of
                // bounds for every input, which the certificate proves.
                let n = 8 + self.rng.below(56);
                let past = 1 + self.rng.below(8);
                let source = format!(
                    "kernel {name} {{ array A: f64[{n}]; array B: f64[{n}]; \
                     for i in 0..{n} {{ B[i] = A[i+{past}] * 2.0; }} }}"
                );
                (error_line(source), Expect::Code("S114"), None)
            }
            Class::BadLine => {
                let valid = self.pool.line(entry, &id, &name);
                (valid[..valid.len() / 2].to_string(), Expect::BadLine, None)
            }
            Class::Syntax => {
                let source = rename(&base.source, &base.name, &name);
                let open = source.trim_end().strip_suffix('}').expect("closing brace");
                (error_line(open.to_string()), Expect::Code("S110"), None)
            }
        };
        let kind = match class {
            Class::Valid(entry) => entry,
            Class::OutOfBounds => self.pool.len(),
            Class::BadLine => self.pool.len() + 1,
            Class::Syntax => self.pool.len() + 2,
        };
        Some(Request {
            line,
            id,
            expect,
            kernel,
            entry,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_uniform_enough() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(8, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next()).collect::<Vec<_>>());
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[a.below(10) as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| (800..1200).contains(&c)),
            "{counts:?}"
        );
        let mut v: Vec<u32> = (0..50).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn kernel_set_and_pool_have_the_documented_sizes() {
        let ks = kernels(1, false);
        assert_eq!(ks.len(), 20);
        assert_eq!(triples(ks.len(), &Scheme::FIVE).len(), 200);
        let pool = Pool::new(ks);
        assert_eq!(pool.len(), 160);
        assert_eq!(kernels(1, true).len(), 5);
    }

    #[test]
    fn pool_lines_parse_to_the_library_side_request() {
        let pool = Pool::new(kernels(1, true));
        for entry in 0..pool.len() {
            let req = pool.request(entry, format!("x-{entry}"));
            let slp_serve::protocol::Request::Compile { request, .. } =
                slp_serve::protocol::parse_request(&req.line)
            else {
                panic!("pool line {entry} is not a compile request");
            };
            let k = req.kernel.expect("kernel");
            let lib = compile_request(&k.name, &k.source, pool.triples[entry], VerifyLevel::Static);
            assert_eq!(request.source, lib.source);
            assert_eq!(request.name, lib.name);
            assert_eq!(request.fingerprint(), lib.fingerprint());
        }
    }

    #[test]
    fn cold_stream_is_unique_and_mixed() {
        let pool = Pool::new(kernels(1, false));
        let round = ColdStream::round_len(&pool);
        assert_eq!(round, 160 + 9 + 5 + 4);
        let reqs: Vec<Request> = ColdStream::new(&pool, 11, 0).take(3 * round).collect();
        let mut lines: Vec<&str> = reqs.iter().map(|r| r.line.as_str()).collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), 3 * round);
        let count = |e: Expect| reqs.iter().filter(|r| r.expect == e).count();
        assert_eq!(count(Expect::Compiled), 3 * 160);
        assert_eq!(count(Expect::Code("S114")), 3 * 9);
        assert_eq!(count(Expect::BadLine), 3 * 5);
        assert_eq!(count(Expect::Code("S110")), 3 * 4);
        // Every round compiles every pool entry once.
        let mut entries: Vec<usize> = reqs[..round]
            .iter()
            .filter(|r| r.expect == Expect::Compiled)
            .map(|r| r.entry)
            .collect();
        entries.sort_unstable();
        assert_eq!(entries, (0..160).collect::<Vec<_>>());

        let again: Vec<String> = ColdStream::new(&pool, 11, 0)
            .take(50)
            .map(|r| r.line)
            .collect();
        assert!(again.iter().zip(&reqs).all(|(a, b)| *a == b.line));
        let other: Vec<String> = ColdStream::new(&pool, 12, 0)
            .take(50)
            .map(|r| r.line)
            .collect();
        assert!(other.iter().zip(&reqs).all(|(a, b)| *a != b.line));
    }

    #[test]
    fn warm_stream_draws_every_entry_once_per_round() {
        let pool = Pool::new(kernels(1, true));
        let mut entries: Vec<usize> = WarmStream::new(&pool, 3, 1)
            .take(pool.len())
            .map(|r| r.entry)
            .collect();
        assert_ne!(entries, (0..pool.len()).collect::<Vec<_>>());
        entries.sort_unstable();
        assert_eq!(entries, (0..pool.len()).collect::<Vec<_>>());
    }
}
