//! Parallel batch compilation with panic isolation, time budgets and
//! graceful degradation.
//!
//! A batch shards its requests across a scoped worker pool. Each request
//! compiles inside a guard ([`compile_guarded`]) on the thread that asked:
//!
//! * a panicking compile (an optimizer invariant violation, a panicking
//!   installed packer) is caught by `catch_unwind` and reported as
//!   [`DriverError::Panic`] without printing a backtrace or taking the
//!   worker down, and
//! * a time budget is a cooperative deadline: the first checkpoint past
//!   it answers [`DriverError::Timeout`], and nothing is left running
//!   behind a timeout. The checkpoints are after the frontend, inside the
//!   pipeline (listed at [`slp_core::compile_within`]), after it, and
//!   after each verification step. The budget bounds those stages to the
//!   next checkpoint; it does not pre-empt code it cannot see into: a
//!   caller-installed packer that ignores [`slp_core::PackRequest::stop_at`]
//!   and the differential VM runs (`verify: "full"`, the `prove` fallback)
//!   hold the calling thread until they return and are checked then.
//!
//! With [`BatchConfig::degrade`] set (the default), a panicked or
//! timed-out kernel is recompiled under [`Strategy::Scalar`] with the
//! layout stage off — the configuration that exercises none of the
//! optimizer — so the batch still produces a runnable kernel for every
//! well-formed input. The degradation is recorded, never silent. Parse
//! and validation errors are the *input's* fault and are reported as
//! hard failures without a scalar retry.
//!
//! Output order is deterministic: results are addressed by input index,
//! so neither the thread count nor scheduling jitter can reorder them.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Once};
use std::thread;

use slp_core::Strategy;

use crate::{
    CachedCompile, CompileCache, CompileOutcome, CompileRequest, DriverError, Fingerprint,
    SharedOutcome,
};

thread_local! {
    /// Whether this thread is inside [`guarded`]'s `catch_unwind`. The
    /// panic hook installed there stays quiet for such a panic — it comes
    /// back as a [`DriverError::Panic`] — and for no other.
    static GUARDED: Cell<bool> = const { Cell::new(false) };
}

static SILENCER: Once = Once::new();

fn install_panic_silencer() {
    SILENCER.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            // `try_with`: a panic while the thread's locals are being torn
            // down is not a guarded one.
            if !GUARDED.try_with(Cell::get).unwrap_or(false) {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// [`crate::compile_source`] with the miss compiled in panic isolation
/// under an optional time budget (the module docs say what each means),
/// on the calling thread.
///
/// A [`DriverError::Panic`] or [`DriverError::Timeout`] stores nothing,
/// so neither can poison the cache, and no work outlives this call.
pub fn compile_guarded(
    req: &CompileRequest,
    cache: Option<&CompileCache>,
    budget_ms: Option<u64>,
) -> Result<CompileOutcome, DriverError> {
    compile_keyed(req, req.fingerprint(), cache, budget_ms).map(SharedOutcome::into_owned)
}

/// [`compile_guarded`] for a caller that already holds the request's
/// key and only reads the result: `fp` must be `req.fingerprint()`. The
/// serve handler keys its dedup table by the fingerprint, so a request is
/// hashed once, and answers from the shared entry, so no kernel is copied.
pub fn compile_keyed(
    req: &CompileRequest,
    fp: Fingerprint,
    cache: Option<&CompileCache>,
    budget_ms: Option<u64>,
) -> Result<SharedOutcome, DriverError> {
    crate::cached(fp, cache, || guarded(req, budget_ms))
}

/// Runs [`crate::compile_uncached`] under `catch_unwind`.
fn guarded(req: &CompileRequest, budget_ms: Option<u64>) -> Result<CachedCompile, DriverError> {
    install_panic_silencer();
    // Restored, not cleared: an installed packer may itself compile guarded.
    let outer = GUARDED.replace(true);
    let result = panic::catch_unwind(AssertUnwindSafe(|| crate::compile_uncached(req, budget_ms)));
    GUARDED.set(outer);
    result.unwrap_or_else(|payload| Err(DriverError::Panic(panic_message(payload.as_ref()))))
}

/// Knobs of [`compile_batch`].
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Per-kernel compile budget in milliseconds; `None` means
    /// unbounded.
    pub budget_ms: Option<u64>,
    /// Whether a panicked or timed-out kernel is retried under
    /// [`Strategy::Scalar`] instead of failing the entry.
    pub degrade: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            threads: 0,
            budget_ms: None,
            degrade: true,
        }
    }
}

/// The batch's verdict on one request.
#[derive(Debug)]
pub struct KernelOutcome {
    /// The request's display name.
    pub name: String,
    /// The compilation result. When `degraded` is set, this is the
    /// *scalar fallback's* result.
    pub result: Result<CompileOutcome, DriverError>,
    /// `Some(why)` when the requested configuration failed and the
    /// entry was recompiled under [`Strategy::Scalar`]; the payload
    /// describes the original failure.
    pub degraded: Option<String>,
}

impl KernelOutcome {
    /// Whether this entry produced a kernel at the *requested*
    /// configuration (no degradation, no error).
    pub fn is_clean(&self) -> bool {
        self.result.is_ok() && self.degraded.is_none()
    }
}

fn scalar_fallback(req: &CompileRequest) -> CompileRequest {
    let mut fallback = req.clone();
    fallback.config.strategy = Strategy::Scalar;
    fallback.config.layout = false;
    // The fallback must exercise as little machinery as possible: the
    // scalar strategy never calls an installed packer, which may be the
    // very thing that panicked or hung.
    fallback
}

fn run_one(
    req: &CompileRequest,
    cache: Option<&CompileCache>,
    config: &BatchConfig,
) -> KernelOutcome {
    let mut result = compile_guarded(req, cache, config.budget_ms);
    let mut degraded = None;
    if let (Err(err @ (DriverError::Panic(_) | DriverError::Timeout(_))), true) =
        (&result, config.degrade)
    {
        degraded = Some(err.to_string());
        result = compile_guarded(&scalar_fallback(req), cache, config.budget_ms);
    }
    KernelOutcome {
        name: req.name.clone(),
        result,
        degraded,
    }
}

/// Applies `f` to every item of `items` across a scoped worker pool and
/// returns the results *in input order*.
///
/// Workers pull indices from a shared atomic counter, so load balances
/// dynamically, but results are written back by index: neither the
/// thread count nor scheduling jitter can reorder the output. `threads`
/// of `0` means one worker per available core; the pool never exceeds
/// the item count. This is the engine under [`compile_batch`], exported
/// so other front-ends (the benchmark harness's independent kernel runs,
/// figure regeneration) can share the same deterministic fan-out.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = match threads {
        0 => thread::available_parallelism().map_or(1, |p| p.get()),
        t => t,
    }
    .min(n);

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i, &items[i]);
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, result) in rx {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index produced exactly one result"))
        .collect()
}

/// Compiles `requests` across a scoped worker pool.
///
/// Runs on [`parallel_map`]: output is always in input order with one
/// entry per request, regardless of thread count or scheduling. The
/// batch never aborts — every entry carries its own success, degradation
/// or failure.
pub fn compile_batch(
    requests: &[CompileRequest],
    cache: Option<&CompileCache>,
    config: &BatchConfig,
) -> Vec<KernelOutcome> {
    parallel_map(requests, config.threads, |_, req| {
        run_one(req, cache, config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{MachineConfig, PackOutcome, PackRequest, Packer, SlpConfig};

    struct Panicking;

    impl Packer for Panicking {
        fn pack(&self, _: &PackRequest<'_>) -> PackOutcome {
            panic!("rejected")
        }
    }

    #[test]
    fn a_caught_panic_leaves_the_thread_unguarded_and_usable() {
        let config = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Optimal);
        let mut req = CompileRequest {
            name: "k".to_string(),
            source: "kernel k { array A: f64[8]; for i in 0..8 { A[i] = 2.0; } }".to_string(),
            config: config.clone().with_packer(Panicking),
            verify: crate::VerifyLevel::None,
        };
        let caught = compile_guarded(&req, None, None);
        assert!(matches!(caught, Err(DriverError::Panic(_))), "{caught:?}");
        // The silencing flag went back down: a panic of this thread's own
        // would be reported as loudly as ever.
        assert!(!GUARDED.get());
        req.config = config;
        compile_guarded(&req, None, None).expect("the same thread compiles again");
        assert!(!GUARDED.get());
    }
}
