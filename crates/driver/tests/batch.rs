//! Integration tests of the batch layer: panic isolation, time budgets,
//! graceful degradation to scalar, hard failures for bad input, and
//! determinism of output order and bytes across thread counts.

use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use slp_core::{MachineConfig, PackOutcome, PackRequest, Packer, SlpConfig, Strategy};
use slp_driver::{
    compile_batch, compile_guarded, encode_kernel, BatchConfig, CompileCache, CompileRequest,
    DriverError, VerifyLevel,
};

const GOOD: &str = "kernel good { array A: f64[16]; array B: f64[16]; \
                    for i in 0..16 { A[i] = A[i] + B[i]; } }";

fn request(name: &str, source: &str, config: SlpConfig) -> CompileRequest {
    CompileRequest {
        name: name.to_string(),
        source: source.to_string(),
        config,
        verify: VerifyLevel::Static,
    }
}

fn holistic() -> SlpConfig {
    SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic)
}

/// A test packer: runs its closure on every block it is asked to pack,
/// then keeps the heuristic incumbent. The closure is where a test
/// injects a panic, a stall or a probe into the pipeline.
struct Injected<F>(F);

impl<F: Fn() + Send + Sync> Packer for Injected<F> {
    fn pack(&self, req: &PackRequest<'_>) -> PackOutcome {
        (self.0)();
        PackOutcome {
            schedule: req.incumbent.clone(),
            cost: req.incumbent_cost,
            lower_bound: 0.0,
            nodes: 0,
            degraded: true,
        }
    }
}

/// `Strategy::Optimal` with `inject` run inside the pipeline, in the
/// solver's slot.
fn injected(inject: impl Fn() + Send + Sync + 'static) -> SlpConfig {
    SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Optimal)
        .with_packer(Injected(inject))
}

/// A packer that panics — exactly the in-pipeline panic the guard must
/// contain.
fn panicking() -> SlpConfig {
    injected(|| panic!("injected failure for batch tests"))
}

#[test]
fn panicking_kernel_degrades_to_scalar_and_the_rest_compile() {
    let requests = vec![
        request("first", GOOD, holistic()),
        request("bomb", GOOD, panicking()),
        request("last", GOOD, holistic()),
    ];
    let outcomes = compile_batch(&requests, None, &BatchConfig::default());

    assert_eq!(outcomes.len(), 3);
    assert_eq!(outcomes[0].name, "first");
    assert!(outcomes[0].is_clean());
    assert_eq!(outcomes[2].name, "last");
    assert!(outcomes[2].is_clean());

    let bomb = &outcomes[1];
    let reason = bomb.degraded.as_deref().expect("degradation recorded");
    assert!(reason.contains("panic"), "reason: {reason}");
    assert!(reason.contains("injected failure"), "reason: {reason}");
    let kernel = &bomb
        .result
        .as_ref()
        .expect("scalar fallback compiled")
        .kernel;
    assert!(matches!(kernel.config.strategy, Strategy::Scalar));
    assert_eq!(kernel.stats.superwords, 0);
}

#[test]
fn over_budget_kernel_degrades_to_scalar() {
    let requests = vec![
        // The deadline does not reach into a packer that ignores its
        // `stop_at`: it is checked when the packer returns.
        request(
            "slow",
            GOOD,
            injected(|| thread::sleep(Duration::from_millis(50))),
        ),
        request("fast", GOOD, holistic()),
    ];
    let config = BatchConfig {
        budget_ms: Some(10),
        ..BatchConfig::default()
    };
    let outcomes = compile_batch(&requests, None, &config);

    let slow = &outcomes[0];
    let reason = slow.degraded.as_deref().expect("timeout recorded");
    assert!(reason.contains("10 ms"), "reason: {reason}");
    let kernel = &slow
        .result
        .as_ref()
        .expect("scalar fallback compiled")
        .kernel;
    assert!(matches!(kernel.config.strategy, Strategy::Scalar));

    assert!(outcomes[1].is_clean());
}

#[test]
fn a_guarded_compile_runs_on_the_thread_that_asked() {
    let seen: Arc<Mutex<Vec<ThreadId>>> = Arc::new(Mutex::new(Vec::new()));
    // Notes the thread the pipeline ran on, then panics if asked to.
    let probed = |fail: bool| {
        let seen = Arc::clone(&seen);
        let config = injected(move || {
            seen.lock().unwrap().push(thread::current().id());
            assert!(!fail, "no");
        });
        request("k", GOOD, config)
    };
    let me = thread::current().id();

    compile_guarded(&probed(false), None, None).expect("clean compile");
    let rejected = compile_guarded(&probed(true), None, Some(60_000));
    assert!(
        matches!(rejected, Err(DriverError::Panic(_))),
        "{rejected:?}"
    );
    compile_guarded(&probed(false), None, Some(60_000)).expect("the retry compiles");
    assert_eq!(*seen.lock().unwrap(), [me; 3]);

    // One batch worker compiles all of its kernels itself.
    seen.lock().unwrap().clear();
    let requests = [probed(false), probed(false), probed(false)];
    let config = BatchConfig {
        threads: 1,
        ..BatchConfig::default()
    };
    assert!(compile_batch(&requests, None, &config)
        .iter()
        .all(|o| o.is_clean()));
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 3);
    assert!(
        seen[0] != me && seen.iter().all(|id| *id == seen[0]),
        "{seen:?}"
    );
}

/// The deadline is checked inside the solver, not only around it: a solve
/// that takes `T` unbudgeted gives up within a fraction of `T` under a
/// budget of `T/10`, whatever the machine's speed.
#[test]
fn a_budget_stops_the_solver_mid_search() {
    // No wall deadline of the solver's own, and a node cap `milc`'s one
    // block exhausts (it is still open at 48 000 nodes). Optimized code
    // solves several times faster, so release takes eight times the
    // nodes to clear the 50 ms floor below.
    let max_nodes = if cfg!(debug_assertions) {
        3_000
    } else {
        24_000
    };
    let config = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Optimal)
        .with_opt_budget(0, max_nodes);
    let req = request("milc", &slp_suite::source("milc", 1), config);

    let start = Instant::now();
    let free = compile_guarded(&req, None, None).expect("compiles");
    let unbudgeted = start.elapsed();
    assert!(free.kernel.stats.opt_degraded, "the node cap was exhausted");
    // ≈ 700 ms in the test profile at 3 000 nodes, ≈ 110–130 ms optimized
    // at 24 000: a tenth of it is still many clock ticks and thousands of
    // solver nodes.
    assert!(unbudgeted >= Duration::from_millis(50), "{unbudgeted:?}");

    let cache = CompileCache::in_memory(4);
    let budget_ms = (unbudgeted / 10).as_millis() as u64;
    let start = Instant::now();
    let result = compile_guarded(&req, Some(&cache), Some(budget_ms));
    let budgeted = start.elapsed();
    assert_eq!(result.err(), Some(DriverError::Timeout(budget_ms)));
    assert!(budgeted < unbudgeted / 2, "{budgeted:?} of {unbudgeted:?}");
    assert_eq!(cache.stats().stores, 0, "a timeout stores nothing");
}

#[test]
fn bad_input_is_a_hard_failure_not_a_degradation() {
    let requests = vec![
        request("broken", "kernel oops {", holistic()),
        request("fine", GOOD, holistic()),
    ];
    let outcomes = compile_batch(&requests, None, &BatchConfig::default());

    assert!(outcomes[0].degraded.is_none(), "parse errors never degrade");
    assert!(matches!(outcomes[0].result, Err(DriverError::Parse(_))));
    assert!(outcomes[1].is_clean());
}

#[test]
fn disabling_degradation_surfaces_the_original_error() {
    let requests = vec![request("bomb", GOOD, panicking())];
    let config = BatchConfig {
        degrade: false,
        ..BatchConfig::default()
    };
    let outcomes = compile_batch(&requests, None, &config);
    assert!(outcomes[0].degraded.is_none());
    assert!(matches!(outcomes[0].result, Err(DriverError::Panic(_))));
}

#[test]
fn thread_count_changes_neither_order_nor_bytes() {
    let corpus = slp_suite::corpus(42, 10);
    let requests: Vec<CompileRequest> = corpus
        .iter()
        .map(|(name, source)| request(name, source, holistic()))
        .collect();

    let reference: Vec<(String, String)> = compile_batch(&requests, None, &BatchConfig::default())
        .iter()
        .map(|o| {
            let kernel = &o.result.as_ref().expect("corpus compiles").kernel;
            (o.name.clone(), encode_kernel(kernel).to_compact())
        })
        .collect();

    for threads in [1, 2, 8] {
        let config = BatchConfig {
            threads,
            ..BatchConfig::default()
        };
        let run: Vec<(String, String)> = compile_batch(&requests, None, &config)
            .iter()
            .map(|o| {
                let kernel = &o.result.as_ref().expect("corpus compiles").kernel;
                (o.name.clone(), encode_kernel(kernel).to_compact())
            })
            .collect();
        assert_eq!(run, reference, "threads={threads} diverged");
    }
}

#[test]
fn batch_shares_the_cache_across_duplicate_sources() {
    let corpus = slp_suite::corpus(3, 6);
    let requests: Vec<CompileRequest> = corpus
        .iter()
        .map(|(name, source)| request(name, source, holistic()))
        .collect();

    let cache = CompileCache::in_memory(64);
    let first = compile_batch(&requests, Some(&cache), &BatchConfig::default());
    assert!(first.iter().all(|o| o.is_clean()));

    let second = compile_batch(&requests, Some(&cache), &BatchConfig::default());
    assert!(second
        .iter()
        .all(|o| o.result.as_ref().expect("compiles").cache_hit()));
}
