//! A single set-associative cache with true-LRU replacement.

use serde::{Deserialize, Serialize};
use ses_types::{Addr, ConfigError};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Block (line) size in bytes; must be a power of two.
    pub block_bytes: u64,
    /// Ways per set.
    pub associativity: usize,
    /// Hit latency in cycles, as seen by the requester of this level.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Validates the geometry and returns the number of sets.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any dimension is zero, not a power of
    /// two where required, or inconsistent.
    pub fn sets(&self) -> Result<usize, ConfigError> {
        if self.block_bytes == 0 || !self.block_bytes.is_power_of_two() {
            return Err(ConfigError::new("block size must be a power of two"));
        }
        if self.associativity == 0 {
            return Err(ConfigError::new("associativity must be at least 1"));
        }
        let blocks = self.size_bytes / self.block_bytes;
        if blocks == 0 || !self.size_bytes.is_multiple_of(self.block_bytes) {
            return Err(ConfigError::new(
                "cache size must be a multiple of block size",
            ));
        }
        if !blocks.is_multiple_of(self.associativity as u64) {
            return Err(ConfigError::new(
                "block count must be divisible by associativity",
            ));
        }
        let sets = (blocks / self.associativity as u64) as usize;
        if !sets.is_power_of_two() {
            return Err(ConfigError::new("set count must be a power of two"));
        }
        Ok(sets)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// LRU age: 0 = most recently used.
    age: u32,
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The block was present.
    Hit,
    /// The block was absent; if a dirty victim was evicted its base address
    /// is reported so the next level (or a π directory) can be informed.
    Miss {
        /// Base address of the evicted dirty block, if any.
        dirty_victim: Option<Addr>,
    },
}

/// One level of set-associative, write-back, write-allocate cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// All lines in one allocation, set-major: way `w` of set `s` is
    /// `lines[s * ways + w]`.
    lines: Vec<Option<Line>>,
    ways: usize,
    set_bits: u32,
    set_mask: u64,
    block_shift: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors from [`CacheConfig::sets`].
    pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
        let sets = config.sets()?;
        Ok(Cache {
            config,
            lines: vec![None; sets * config.associativity],
            ways: config.associativity,
            set_bits: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            block_shift: config.block_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        })
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn index_tag(&self, addr: Addr) -> (usize, u64) {
        let block = addr.as_u64() >> self.block_shift;
        ((block & self.set_mask) as usize, block >> self.set_bits)
    }

    /// Where set `set_idx`'s ways sit in `lines`.
    fn ways_of(&self, set_idx: usize) -> std::ops::Range<usize> {
        set_idx * self.ways..(set_idx + 1) * self.ways
    }

    /// Looks up `addr`, allocating on miss (write-allocate) and marking the
    /// line dirty when `is_write`. Uses true-LRU replacement.
    pub fn access(&mut self, addr: Addr, is_write: bool) -> LookupOutcome {
        let (set_idx, tag) = self.index_tag(addr);
        let set_bits = self.set_bits;
        let block_shift = self.block_shift;
        let ways = self.ways_of(set_idx);
        let set = &mut self.lines[ways];

        if let Some(pos) = set
            .iter()
            .position(|l| l.map(|l| l.tag == tag).unwrap_or(false))
        {
            let hit_age = set[pos].unwrap().age;
            for line in set.iter_mut().flatten() {
                if line.age < hit_age {
                    line.age += 1;
                }
            }
            let line = set[pos].as_mut().expect("hit line exists");
            line.age = 0;
            line.dirty |= is_write;
            self.hits += 1;
            return LookupOutcome::Hit;
        }

        self.misses += 1;
        // Choose victim: an invalid way, else the oldest line.
        let victim_pos = set.iter().position(|l| l.is_none()).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .max_by_key(|(_, l)| l.map(|l| l.age).unwrap_or(u32::MAX))
                .map(|(i, _)| i)
                .expect("non-empty set")
        });
        let dirty_victim = set[victim_pos].filter(|l| l.dirty).map(|l| {
            let block = (l.tag << set_bits) | set_idx as u64;
            Addr::new(block << block_shift)
        });
        for line in set.iter_mut().flatten() {
            line.age += 1;
        }
        set[victim_pos] = Some(Line {
            tag,
            dirty: is_write,
            age: 0,
        });
        LookupOutcome::Miss { dirty_victim }
    }

    /// Whether `addr`'s block is currently resident (no state change).
    pub fn probe(&self, addr: Addr) -> bool {
        let (set_idx, tag) = self.index_tag(addr);
        self.lines[self.ways_of(set_idx)]
            .iter()
            .any(|l| l.map(|l| l.tag == tag).unwrap_or(false))
    }

    /// Cumulative hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio over all accesses so far (0 when idle).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Clears statistics only, keeping contents (used after cache warm-up).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.lines.fill(None);
        self.hits = 0;
        self.misses = 0;
    }

    /// Captures the resident lines and statistics.
    ///
    /// The image stores only occupied lines, so snapshotting a large,
    /// mostly-empty cache (the 10 MB L2 under a small workload) is far
    /// cheaper than cloning the dense way arrays.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut lines = Vec::new();
        for (i, line) in self.lines.iter().enumerate() {
            if let Some(l) = line {
                lines.push(SavedLine {
                    set: (i / self.ways) as u32,
                    way: (i % self.ways) as u8,
                    tag: l.tag,
                    dirty: l.dirty,
                    age: l.age,
                });
            }
        }
        CacheSnapshot {
            lines,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Restores contents and statistics from a snapshot taken on a cache
    /// of identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot references sets or ways outside this cache's
    /// geometry.
    pub fn restore(&mut self, snapshot: &CacheSnapshot) {
        self.lines.fill(None);
        for l in &snapshot.lines {
            assert!(
                (l.way as usize) < self.ways,
                "snapshot way outside this cache"
            );
            self.lines[l.set as usize * self.ways + l.way as usize] = Some(Line {
                tag: l.tag,
                dirty: l.dirty,
                age: l.age,
            });
        }
        self.hits = snapshot.hits;
        self.misses = snapshot.misses;
    }
}

#[derive(Debug, Clone, Copy)]
struct SavedLine {
    set: u32,
    way: u8,
    tag: u64,
    dirty: bool,
    age: u32,
}

/// Compact image of one cache's contents and statistics (occupied lines
/// only), produced by [`Cache::snapshot`] and consumed by
/// [`Cache::restore`].
#[derive(Debug, Clone)]
pub struct CacheSnapshot {
    lines: Vec<SavedLine>,
    hits: u64,
    misses: u64,
}

impl CacheSnapshot {
    /// Number of resident lines captured.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            block_bytes: 64,
            associativity: 2,
            hit_latency: 2,
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        let ok = CacheConfig {
            size_bytes: 8192,
            block_bytes: 64,
            associativity: 4,
            hit_latency: 2,
        };
        assert_eq!(ok.sets().unwrap(), 32);
        let bad_block = CacheConfig {
            block_bytes: 48,
            ..ok
        };
        assert!(bad_block.sets().is_err());
        let bad_assoc = CacheConfig {
            associativity: 0,
            ..ok
        };
        assert!(bad_assoc.sets().is_err());
        let bad_div = CacheConfig {
            associativity: 3,
            ..ok
        };
        assert!(bad_div.sets().is_err());
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny();
        let a = Addr::new(0x1000);
        assert!(matches!(c.access(a, false), LookupOutcome::Miss { .. }));
        assert_eq!(c.access(a, false), LookupOutcome::Hit);
        assert!(c.probe(a));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three blocks mapping to the same set (set stride = 4 sets * 64B).
        let a = Addr::new(0);
        let b = Addr::new(256);
        let d = Addr::new(512);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU, b is LRU
        c.access(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = tiny();
        let a = Addr::new(0);
        let b = Addr::new(256);
        let d = Addr::new(512);
        c.access(a, true); // dirty
        c.access(b, false);
        match c.access(d, false) {
            LookupOutcome::Miss { dirty_victim } => {
                assert_eq!(dirty_victim, Some(Addr::new(0)), "a was dirty LRU")
            }
            LookupOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn clean_victim_not_reported() {
        let mut c = tiny();
        c.access(Addr::new(0), false);
        c.access(Addr::new(256), false);
        match c.access(Addr::new(512), false) {
            LookupOutcome::Miss { dirty_victim } => assert_eq!(dirty_victim, None),
            LookupOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = tiny();
        c.access(Addr::new(0), false);
        c.access(Addr::new(0), true); // dirty via hit
        c.access(Addr::new(256), false);
        match c.access(Addr::new(512), false) {
            LookupOutcome::Miss { dirty_victim } => assert_eq!(dirty_victim, Some(Addr::new(0))),
            LookupOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(Addr::new(0), true);
        c.reset();
        assert!(!c.probe(Addr::new(0)));
        assert_eq!(c.hits() + c.misses(), 0);
        assert_eq!(c.miss_ratio(), 0.0);
    }

    #[test]
    fn snapshot_restore_roundtrips_contents_lru_and_stats() {
        let mut c = tiny();
        c.access(Addr::new(0), true);
        c.access(Addr::new(256), false);
        c.access(Addr::new(64), false);
        let snap = c.snapshot();
        assert_eq!(snap.resident_lines(), 3);

        // Diverge, then restore.
        c.access(Addr::new(512), false); // evicts the LRU of set 0
        c.access(Addr::new(512), false);
        c.restore(&snap);
        assert_eq!(c.hits(), snap.hits);
        assert_eq!(c.misses(), snap.misses);
        assert!(c.probe(Addr::new(0)));
        assert!(c.probe(Addr::new(256)));
        assert!(!c.probe(Addr::new(512)));

        // LRU ages restored: the next conflict miss in set 0 must evict
        // the same victim as it would have originally (addr 0 is LRU).
        let mut replayed = tiny();
        replayed.restore(&snap);
        replayed.access(Addr::new(512), false);
        c.access(Addr::new(512), false);
        assert_eq!(c.probe(Addr::new(0)), replayed.probe(Addr::new(0)));
        assert_eq!(c.probe(Addr::new(256)), replayed.probe(Addr::new(256)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for i in 0..4 {
            c.access(Addr::new(i * 64), false);
        }
        for i in 0..4 {
            assert!(c.probe(Addr::new(i * 64)), "set {i} retained");
        }
    }
}
