//! Content-addressed result cache for deterministic simulation cells.
//!
//! Every experiment cell in this workspace is a pure function of its
//! canonical spec string (the `kvspec` rendering of a `JobSpec`, plus
//! axis context), and 1-vs-N worker bit-identity is CI-pinned — so a
//! cell's result can be memoized on disk and reused forever, as long
//! as three things hold:
//!
//! 1. **Keys are canonical**: [`Key`] hashes the exact spec string
//!    with two SplitMix64 lanes, salted with [`CACHE_EPOCH`] so a
//!    semantics change can never let a stale entry alias a fresh one.
//! 2. **Writes are atomic**: [`Cache::publish`] goes through a temp
//!    file + rename, so racing `--jobs` workers leave one valid entry.
//! 3. **Hits are byte-identical to cold runs**: the [`codec`] module
//!    round-trips every `u64` and `f64` bit-exactly, so tables,
//!    `--json` documents and `--record` exports cannot tell a warm
//!    run from a cold one (pinned in `crates/core/tests/determinism.rs`).
//!
//! Reads are corruption-tolerant: a damaged, truncated or
//! foreign-epoch entry is a miss, and the caller re-simulates.
//! "Dependency-free" the same way `xrun` is: nothing outside this
//! workspace and `std`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod json;
mod key;
mod store;

pub use key::{Key, CACHE_EPOCH};
pub use obs::CacheCounters;
pub use store::{write_atomic, Cache, CacheStats, DEFAULT_DIR};
