//! Content-addressed result caching.
//!
//! `Machine::run` is deterministic in `(arch, program, ctx, seed)`, so a
//! simulation result can be reused whenever those inputs recur — across
//! batches, campaigns and (with the on-disk store) processes. The cache key
//! is a 128-bit hash over a canonical encoding of exactly those inputs —
//! FNV-1a over strings, a word-wise multiply-xor fold over numeric fields
//! (keys are almost entirely instruction words, and hashing them a byte at
//! a time showed up in campaign dispatch time): two independent 64-bit
//! lanes keep accidental collisions far below any realistic campaign size.
//!
//! One store type serves every content-addressed result: [`TaskCache<V>`],
//! an in-memory map with hit/miss/put counters. The simulation cache is
//! [`SimCache`] = `TaskCache<f64>`, the only instance with an on-disk
//! store: an append-only text file of `key result` lines, results stored
//! as `f64::to_bits` hex so a reloaded value is bit-identical to the
//! freshly simulated one — caching never changes experiment output.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use wmm_obs::{Class, Counter, MetricsRegistry};
use wmm_sim::isa::{AccessOrd, Instr, Loc, Mispredict};
use wmmbench::exec::SimJob;

/// One 64-bit FNV-1a lane.
struct Fnv(u64);

impl Fnv {
    fn new(basis: u64) -> Self {
        Fnv(basis)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        // Word-wise fold: finalize the word through the SplitMix64 mixer,
        // then one FNV-style xor-multiply round. Equivalent dispersion to
        // the byte loop at a sixteenth of the work.
        let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = (self.0 ^ (z ^ (z >> 31))).wrapping_mul(0x100_0000_01b3);
    }
    fn bytes(&mut self, bs: &[u8]) {
        self.u64(bs.len() as u64);
        for &b in bs {
            self.byte(b);
        }
    }
}

/// Two independent lanes (distinct offset bases) hashed in lockstep.
///
/// Public so other content-addressed results (e.g. the analysis tasks run
/// through [`crate::jobs`]) key into the same 128-bit space with the same
/// collision odds as the simulation cache.
pub struct Fnv128(Fnv, Fnv);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// Fresh hasher over both lanes.
    #[must_use]
    pub fn new() -> Self {
        // Lane 0: the standard FNV-1a offset basis; lane 1: an arbitrary
        // odd constant so the lanes decorrelate.
        Fnv128(
            Fnv::new(0xcbf2_9ce4_8422_2325),
            Fnv::new(0x9e37_79b9_7f4a_7c15),
        )
    }
    /// Fold one word into both lanes.
    pub fn u64(&mut self, v: u64) {
        self.0.u64(v);
        self.1.u64(v ^ 0xa5a5_a5a5_a5a5_a5a5);
    }
    /// Fold one float (by bit pattern) into both lanes.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Fold a length-prefixed byte string into both lanes.
    pub fn bytes(&mut self, bs: &[u8]) {
        self.0.bytes(bs);
        self.1.bytes(bs);
    }
    /// The 128-bit digest.
    #[must_use]
    pub fn finish(self) -> u128 {
        ((self.0 .0 as u128) << 64) | self.1 .0 as u128
    }
}

fn hash_loc(h: &mut Fnv128, loc: &Loc) {
    match loc {
        Loc::Private(l) => {
            h.u64(0);
            h.u64(*l);
        }
        Loc::SharedRo(l) => {
            h.u64(1);
            h.u64(*l);
        }
        Loc::SharedRw(l) => {
            h.u64(2);
            h.u64(*l);
        }
    }
}

fn hash_ord(h: &mut Fnv128, ord: &AccessOrd) {
    h.u64(match ord {
        AccessOrd::Plain => 0,
        AccessOrd::Acquire => 1,
        AccessOrd::Release => 2,
    });
}

fn hash_instr(h: &mut Fnv128, instr: &Instr) {
    match instr {
        Instr::Nop => h.u64(0),
        Instr::MovImm => h.u64(1),
        Instr::Alu => h.u64(2),
        Instr::CmpImm => h.u64(3),
        Instr::CondBranch(m) => {
            h.u64(4);
            match m {
                Mispredict::Never => h.u64(0),
                Mispredict::Rate(r) => {
                    h.u64(1);
                    h.f64(*r);
                }
                Mispredict::Workload => h.u64(2),
            }
        }
        Instr::StackPush => h.u64(5),
        Instr::StackPop => h.u64(6),
        Instr::Load { loc, ord } => {
            h.u64(7);
            hash_loc(h, loc);
            hash_ord(h, ord);
        }
        Instr::Store { loc, ord } => {
            h.u64(8);
            hash_loc(h, loc);
            hash_ord(h, ord);
        }
        Instr::Cas { loc, success_prob } => {
            h.u64(9);
            hash_loc(h, loc);
            h.f64(*success_prob);
        }
        Instr::Fence(k) => {
            h.u64(10);
            h.u64(*k as u64);
        }
        Instr::CostLoop { iters, stack_spill } => {
            h.u64(11);
            h.u64(*iters);
            h.u64(*stack_spill as u64);
        }
        Instr::Compute { cycles } => {
            h.u64(12);
            h.u64(*cycles as u64);
        }
    }
}

/// The content address of one simulation cell: a stable 128-bit hash of
/// everything `Machine::run` depends on — architecture label, workload
/// context, seed and the full instruction stream.
pub fn job_key(job: &SimJob<'_>) -> u128 {
    let mut h = Fnv128::new();
    h.bytes(job.machine.spec().arch.label().as_bytes());
    let ctx = &job.ctx;
    h.bytes(ctx.name.as_bytes());
    h.f64(ctx.bp_pressure);
    h.f64(ctx.load_pressure);
    h.f64(ctx.l1_miss_rate);
    h.f64(ctx.dram_frac);
    h.f64(ctx.noise_amp);
    h.u64(job.seed);
    h.u64(job.program.threads.len() as u64);
    for thread in &job.program.threads {
        h.u64(thread.len() as u64);
        for instr in thread {
            hash_instr(&mut h, instr);
        }
    }
    h.finish()
}

/// A read-out of a [`TaskCache`]'s counters.
///
/// Everything except `lock_wait_ns` is deterministic given the cache state
/// and the batch sequence (entries, hit/miss/put counts, and the
/// disk-append accounting); `lock_wait_ns` is a wall-clock measurement of
/// time spent waiting for the disk lane's append lock and is
/// observational.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently held in the in-memory map.
    pub entries: u64,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed. Only lookups count: a sited job simulates
    /// without looking up, so the executor's count of simulated jobs is
    /// [`Telemetry::cache_misses`](crate::Telemetry::cache_misses), not
    /// this.
    pub misses: u64,
    /// First-writer inserts (repeat puts of a key count nothing).
    pub puts: u64,
    /// Lines appended to the disk lane.
    pub disk_appends: u64,
    /// Bytes appended to the disk lane (newlines included).
    pub disk_append_bytes: u64,
    /// Wall nanoseconds spent waiting on the disk lane's append lock
    /// (observational — never on the `get` hot path).
    pub lock_wait_ns: u64,
}

/// The simulation-result cache: content address to simulated wall time.
pub type SimCache = TaskCache<f64>;

/// A content-addressed `u128 -> V` store: an in-memory map with hit/miss
/// counters and, for `f64` results ([`TaskCache::with_disk`]), an
/// append-only on-disk store shared across processes.
///
/// The counters are `wmm-obs` handles and the cache's only record of its
/// traffic: [`TaskCache::stats`] reads them, and an executor indexes them
/// in its metrics registry ([`TaskCache::index_metrics`]).
pub struct TaskCache<V> {
    mem: Mutex<HashMap<u128, V>>,
    /// Backing file, its append lock (so disk I/O never holds up readers
    /// of the map) and the value's 64-bit encoding. Only
    /// [`TaskCache::with_disk`] builds one, so the encoding is always
    /// `f64::to_bits`.
    #[allow(clippy::type_complexity)]
    disk: Option<(PathBuf, Mutex<()>, fn(&V) -> u64)>,
    entries: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    puts: Arc<Counter>,
    disk_appends: Arc<Counter>,
    disk_append_bytes: Arc<Counter>,
    lock_wait_ns: Arc<Counter>,
}

impl<V: Clone> TaskCache<V> {
    /// A purely in-memory cache.
    #[must_use]
    pub fn in_memory() -> Self {
        TaskCache {
            mem: Mutex::new(HashMap::new()),
            disk: None,
            entries: Arc::default(),
            hits: Arc::default(),
            misses: Arc::default(),
            puts: Arc::default(),
            disk_appends: Arc::default(),
            disk_append_bytes: Arc::default(),
            lock_wait_ns: Arc::default(),
        }
    }

    /// Look up a result, counting the hit or miss.
    pub fn get(&self, key: u128) -> Option<V> {
        let found = self.mem.lock().expect("cache poisoned").get(&key).cloned();
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Store a result (first writer wins) and append it to the disk store,
    /// if any.
    ///
    /// The in-memory insert decides, under the map lock, whether this call
    /// is the first writer of `key`; the disk append then happens *outside*
    /// that lock, on the disk lane's own lock, so file I/O never blocks
    /// concurrent `get`/`put` traffic on other keys. Append failures are
    /// ignored: the disk store is an optimisation, never a correctness
    /// input.
    pub fn put(&self, key: u128, value: &V) {
        let first_insert = match self.mem.lock().expect("cache poisoned").entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(value.clone());
                self.entries.inc();
                true
            }
        };
        if !first_insert {
            return;
        }
        self.puts.inc();
        if let Some((path, append, bits)) = &self.disk {
            let wait = std::time::Instant::now();
            let _append = append.lock().expect("disk lane poisoned");
            self.lock_wait_ns.add(wait.elapsed().as_nanos() as u64);
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let line = format!("{key:032x} {:016x}", bits(value));
                if writeln!(f, "{line}").is_ok() {
                    self.disk_appends.inc();
                    self.disk_append_bytes.add(line.len() as u64 + 1);
                }
            }
        }
    }

    /// Entries currently held (the map only grows, so this is a count of
    /// first inserts plus entries loaded from disk).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.get() as usize
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup count that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookup count that missed.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// A read-out of every counter.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            puts: self.puts.get(),
            disk_appends: self.disk_appends.get(),
            disk_append_bytes: self.disk_append_bytes.get(),
            lock_wait_ns: self.lock_wait_ns.get(),
        }
    }

    /// Index the counter handles in `registry` as `{prefix}.<counter>`:
    /// structural (the executor looks up and inserts on its calling
    /// thread) except `lock_wait_ns`; `disk_appends` stays unindexed.
    pub fn index_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        for (name, class, handle) in [
            ("entries", Class::Structural, &self.entries),
            ("hits", Class::Structural, &self.hits),
            ("misses", Class::Structural, &self.misses),
            ("puts", Class::Structural, &self.puts),
            (
                "disk_append_bytes",
                Class::Structural,
                &self.disk_append_bytes,
            ),
            ("lock_wait_ns", Class::Observational, &self.lock_wait_ns),
        ] {
            registry.index_counter(&format!("{prefix}.{name}"), class, handle);
        }
    }
}

impl TaskCache<f64> {
    /// A cache backed by `path`: existing entries are loaded eagerly and
    /// new results are appended as they are produced, one
    /// `{key:032x} {bits:016x}` line each (the value as `f64::to_bits`
    /// hex, so a reloaded result is bit-identical to the freshly simulated
    /// one). Unreadable lines are skipped (a torn final line from a killed
    /// run is harmless).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the parent directory or
    /// reading an existing store.
    pub fn with_disk(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let mut mem = HashMap::new();
        if path.exists() {
            for line in std::fs::read_to_string(&path)?.lines() {
                if let Some((key, val)) = parse_line(line) {
                    mem.entry(key).or_insert(val);
                }
            }
        } else if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let loaded = mem.len() as u64;
        let cache = TaskCache {
            mem: Mutex::new(mem),
            disk: Some((path, Mutex::new(()), |v: &f64| v.to_bits())),
            ..TaskCache::in_memory()
        };
        cache.entries.add(loaded);
        Ok(cache)
    }
}

/// Parse one disk-store line. The writer always emits exactly 32 hex chars
/// of key and 16 of value, so anything narrower is a torn line from a
/// killed run — it must be rejected, not parsed: a truncated value like
/// `3ff` is still valid hex and would otherwise load as a silently wrong
/// result under a valid key prefix.
fn parse_line(line: &str) -> Option<(u128, f64)> {
    let (key, val) = line.split_once(' ')?;
    if key.len() != 32 || val.len() != 16 {
        return None;
    }
    Some((
        u128::from_str_radix(key, 16).ok()?,
        f64::from_bits(u64::from_str_radix(val, 16).ok()?),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::arch::armv8_xgene1;
    use wmm_sim::machine::{Program, WorkloadCtx};
    use wmm_sim::Machine;

    fn job(machine: &Machine, cycles: u32, seed: u64) -> SimJob<'_> {
        SimJob {
            machine,
            program: Program::new(vec![vec![Instr::Compute { cycles }]]),
            ctx: WorkloadCtx::default(),
            seed,
            sited: false,
        }
    }

    #[test]
    fn key_is_stable_and_input_sensitive() {
        let machine = Machine::new(armv8_xgene1());
        let a = job_key(&job(&machine, 100, 7));
        assert_eq!(a, job_key(&job(&machine, 100, 7)), "stable");
        assert_ne!(a, job_key(&job(&machine, 101, 7)), "program-sensitive");
        assert_ne!(a, job_key(&job(&machine, 100, 8)), "seed-sensitive");
        let mut noisy = job(&machine, 100, 7);
        noisy.ctx.noise_amp = 0.5;
        assert_ne!(a, job_key(&noisy), "ctx-sensitive");
    }

    #[test]
    fn instr_encoding_distinguishes_variants() {
        let machine = Machine::new(armv8_xgene1());
        let mk = |instr: Instr| SimJob {
            machine: &machine,
            program: Program::new(vec![vec![instr]]),
            ctx: WorkloadCtx::default(),
            seed: 0,
            sited: false,
        };
        let keys: Vec<u128> = [
            Instr::Nop,
            Instr::StackPush,
            Instr::Load {
                loc: Loc::Private(0),
                ord: AccessOrd::Plain,
            },
            Instr::Load {
                loc: Loc::SharedRw(0),
                ord: AccessOrd::Plain,
            },
            Instr::Load {
                loc: Loc::Private(0),
                ord: AccessOrd::Acquire,
            },
            Instr::Store {
                loc: Loc::Private(0),
                ord: AccessOrd::Plain,
            },
        ]
        .into_iter()
        .map(|i| job_key(&mk(i)))
        .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn memory_cache_round_trips() {
        let cache = SimCache::in_memory();
        assert_eq!(cache.get(42), None);
        cache.put(42, &1.5);
        assert_eq!(cache.get(42), Some(1.5));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Repeat puts of a key are not first-writer inserts.
        cache.put(42, &1.5);
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.hits, stats.misses, stats.puts),
            (1, 1, 1, 1)
        );
        assert_eq!(
            (stats.disk_appends, stats.disk_append_bytes),
            (0, 0),
            "no disk lane, no append accounting"
        );
    }

    #[test]
    fn disk_stats_count_appended_lines_and_bytes() {
        let dir = std::env::temp_dir().join("wmm-harness-cache-stats-test");
        let path = dir.join("stats.cache");
        let _ = std::fs::remove_file(&path);
        let cache = SimCache::with_disk(&path).unwrap();
        cache.put(1, &0.5);
        cache.put(2, &1.5);
        cache.put(1, &0.5); // duplicate: no new line
        let stats = cache.stats();
        assert_eq!((stats.puts, stats.disk_appends), (2, 2));
        // Each line is 32 hex key + space + 16 hex value + newline = 50.
        assert_eq!(stats.disk_append_bytes, 100);
        assert_eq!(
            stats.disk_append_bytes,
            std::fs::metadata(&path).unwrap().len(),
            "byte accounting matches the file"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_cache_persists_bit_exact() {
        let dir = std::env::temp_dir().join("wmm-harness-cache-test");
        let path = dir.join("sim.cache");
        let _ = std::fs::remove_file(&path);
        let value = 1_234.000_000_001_f64;
        {
            let cache = SimCache::with_disk(&path).unwrap();
            cache.put(7, &value);
            cache.put(u128::MAX, &-0.0);
        }
        let cache = SimCache::with_disk(&path).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(7).map(f64::to_bits), Some(value.to_bits()));
        assert_eq!(
            cache.get(u128::MAX).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_format_is_one_hex_key_and_value_bits_per_line() {
        // Pin the on-disk format with lines written by hand, not through
        // `put`: existing cache files must keep loading, bit for bit.
        let dir = std::env::temp_dir().join("wmm-harness-cache-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("format.cache");
        let entries = [
            (
                0x0123_4567_89ab_cdef_fedc_ba98_7654_3210_u128,
                1_234.000_000_001_f64,
            ),
            (1, -0.0),
            (u128::MAX, f64::MIN_POSITIVE / 3.0),
        ];
        let text: String = entries
            .iter()
            .map(|(key, value)| format!("{:032x} {:016x}\n", key, value.to_bits()))
            .collect();
        std::fs::write(&path, text).unwrap();
        let cache = SimCache::with_disk(&path).unwrap();
        assert_eq!(cache.len(), entries.len());
        for (key, value) in entries {
            assert_eq!(cache.get(key).map(f64::to_bits), Some(value.to_bits()));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_line_is_rejected_not_misparsed() {
        // A killed run can tear the last append anywhere. Every prefix of a
        // valid line must parse to nothing — never to a wrong (key, value).
        let full = format!("{:032x} {:016x}", 0xdead_beef_u128, 1.5f64.to_bits());
        assert!(parse_line(&full).is_some());
        for cut in 0..full.len() {
            assert_eq!(
                parse_line(&full[..cut]),
                None,
                "prefix of {cut} chars must not parse"
            );
        }
        // A torn-then-appended reload drops only the torn line.
        let dir = std::env::temp_dir().join("wmm-harness-cache-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.cache");
        let good = format!("{:032x} {:016x}\n", 7_u128, 2.5f64.to_bits());
        let torn = &full[..40]; // full key, space, truncated value
        std::fs::write(&path, format!("{good}{torn}")).unwrap();
        let cache = SimCache::with_disk(&path).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(7), Some(2.5));
        assert_eq!(cache.get(0xdead_beef), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_puts_stay_consistent() {
        let dir = std::env::temp_dir().join("wmm-harness-cache-mt-test");
        let path = dir.join("concurrent.cache");
        let _ = std::fs::remove_file(&path);
        let cache = SimCache::with_disk(&path).unwrap();
        // 8 threads hammer 256 keys; every key is written by several
        // threads with the same (deterministic) value, interleaved with
        // reads. The map and the disk store must both end up with exactly
        // one entry per key, bit-exact.
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..256u128 {
                        let key = (i * 0x9e37) % 256;
                        cache.put(key, &(key as f64 * 0.125 + 1.0));
                        if t % 2 == 0 {
                            let got = cache.get(key).expect("just put");
                            assert_eq!(got, key as f64 * 0.125 + 1.0);
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 256);
        // Reload from disk: append-only file must hold every key exactly
        // once (first-writer-wins under the map lock) and parse cleanly.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 256, "one disk line per unique key");
        let reloaded = SimCache::with_disk(&path).unwrap();
        assert_eq!(reloaded.len(), 256);
        for i in 0..256u128 {
            assert_eq!(reloaded.get(i), Some(i as f64 * 0.125 + 1.0));
        }
        let _ = std::fs::remove_file(&path);
    }
}
