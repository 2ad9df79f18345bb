//! Build identity, and the in-memory build cache of the serial replay.
//!
//! Synthesizing and cost-measuring a protected design dominates a
//! point's evaluation; the wake axis only changes the power-network
//! transient and the Monte-Carlo recovery run. [`BuildKey`] names a
//! build by the configuration that actually determines the netlist, so
//! a space with three wake strategies needs a third of the naive build
//! count. [`crate::explore_env`] runs one pool task per key, which
//! loads or builds it once and then evaluates its wake points; no two
//! tasks ever want the same build.
//!
//! [`SynthCache`] is a plain map from key to build. It serves only the
//! benchmark's serial replay of the explore handler (with
//! [`crate::evaluate_point`]) and goes when that replay does.
//!
//! Panic safety: a builder that panics leaves nothing behind, so the
//! next lookup for its key builds afresh, and
//! [`SynthCache::try_get_or_build`] reports the panic as an error.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};

/// Identity of a synthesized build (wake strategy excluded on purpose).
/// The benchmark's replay builds these too, so its shape stays.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BuildKey {
    /// Design label (e.g. `fifo32x32`).
    pub design: String,
    /// Chain count `W`.
    pub chains: usize,
    /// Code display name (stable per [`scanguard_core::CodeChoice`]).
    pub code: String,
    /// Manufacturing-test width `T`, when the space requests the test
    /// mode — the concatenation muxes change the netlist, so builds at
    /// different widths must not alias.
    pub test_width: Option<usize>,
}

impl BuildKey {
    /// The canonical content string this key addresses: what the
    /// persistent store hashes (together with its version salt) to name
    /// the entry on disk.
    #[must_use]
    pub fn content(&self) -> String {
        match self.test_width {
            Some(t) => format!("{}/W{}/{}/T{t}", self.design, self.chains, self.code),
            None => format!("{}/W{}/{}/T-", self.design, self.chains, self.code),
        }
    }
}

/// Build reuse in one exploration run, reported alongside its results:
/// one miss per distinct build, a hit for every other point. The
/// benchmark's replay writes these too, so its shape stays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Points that reused a build made for an earlier wake variant.
    pub hits: usize,
    /// Distinct builds (= unique keys).
    pub misses: usize,
}

/// A build attempt panicked. Nothing was cached, so the next lookup
/// for the same key retries the build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildPanic {
    /// The panic payload, rendered (`&str`/`String` payloads verbatim,
    /// anything else as a placeholder).
    pub message: String,
}

impl std::fmt::Display for BuildPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "builder panicked: {}", self.message)
    }
}

impl std::error::Error for BuildPanic {}

/// Runs `build`, turning a panic into a [`BuildPanic`] instead of
/// unwinding.
pub(crate) fn catch_build<T>(build: impl FnOnce() -> T) -> Result<T, BuildPanic> {
    std::panic::catch_unwind(AssertUnwindSafe(build)).map_err(|payload| BuildPanic {
        message: panic_message(payload.as_ref()),
    })
}

/// A memoizing build cache: one build per [`BuildKey`]. Only the
/// benchmark's serial replay uses it (with [`crate::evaluate_point`]),
/// so `new` and `get_or_build` keep their signatures until that replay
/// goes, and the cache with it.
#[derive(Debug)]
pub struct SynthCache<T> {
    builds: Mutex<HashMap<BuildKey, Arc<T>>>,
}

impl<T> Default for SynthCache<T> {
    fn default() -> Self {
        SynthCache {
            builds: Mutex::new(HashMap::new()),
        }
    }
}

impl<T> SynthCache<T> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached value for `key`, running `build` if absent.
    ///
    /// # Panics
    ///
    /// Re-raises a builder panic; the key stays absent, so a later
    /// lookup runs a fresh build (see
    /// [`try_get_or_build`](Self::try_get_or_build) for the
    /// error-returning form).
    pub fn get_or_build<F: FnOnce() -> T>(&self, key: BuildKey, build: F) -> Arc<T> {
        match self.try_get_or_build(key, build) {
            Ok(v) => v,
            Err(p) => panic!("{p}"),
        }
    }

    /// [`get_or_build`](Self::get_or_build), with builder panics
    /// converted to an error instead of unwinding. The map lock is not
    /// held while `build` runs; callers that race on an absent key may
    /// each build it, and the first value stored wins.
    ///
    /// # Errors
    ///
    /// [`BuildPanic`] when `build` panicked; nothing is cached.
    ///
    /// # Panics
    ///
    /// Propagates a poisoned map lock.
    pub fn try_get_or_build<F: FnOnce() -> T>(
        &self,
        key: BuildKey,
        build: F,
    ) -> Result<Arc<T>, BuildPanic> {
        if let Some(v) = self.builds.lock().expect("cache lock").get(&key) {
            return Ok(Arc::clone(v));
        }
        let value = Arc::new(catch_build(build)?);
        let mut map = self.builds.lock().expect("cache lock");
        Ok(Arc::clone(map.entry(key).or_insert(value)))
    }
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(w: usize) -> BuildKey {
        BuildKey {
            design: "d".into(),
            chains: w,
            code: "c".into(),
            test_width: None,
        }
    }

    #[test]
    fn second_lookup_reuses_the_build() {
        let cache = SynthCache::new();
        let a = cache.get_or_build(key(4), || 42);
        let b = cache.get_or_build(key(4), || unreachable!("must be cached"));
        assert_eq!(*a, 42);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn distinct_keys_build_separately() {
        let cache = SynthCache::new();
        assert_eq!(*cache.get_or_build(key(4), || 1), 1);
        assert_eq!(*cache.get_or_build(key(8), || 2), 2);
        assert_eq!(*cache.get_or_build(key(4), || unreachable!("cached")), 1);
    }

    #[test]
    fn key_content_is_stable() {
        assert_eq!(key(4).content(), "d/W4/c/T-");
        let mut k = key(8);
        k.test_width = Some(2);
        assert_eq!(k.content(), "d/W8/c/T2");
    }

    #[test]
    fn panicked_build_leaves_the_slot_retryable() {
        // Regression: a panicking builder used to be able to wedge
        // every later request for the same key; now it reports the
        // panic and the next lookup rebuilds.
        let cache: SynthCache<u32> = SynthCache::new();
        let err = cache
            .try_get_or_build(key(4), || panic!("synthesis exploded"))
            .unwrap_err();
        assert!(err.message.contains("synthesis exploded"), "{err}");
        let v = cache
            .try_get_or_build(key(4), || 9)
            .expect("slot must be retryable after a panic");
        assert_eq!(*v, 9);
    }

    #[test]
    fn get_or_build_repanics_but_does_not_wedge() {
        let cache: SynthCache<u32> = SynthCache::new();
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_build(key(4), || panic!("first attempt"))
        }));
        assert!(unwound.is_err());
        assert_eq!(*cache.get_or_build(key(4), || 5), 5);
    }
}
