//! Characterization cache shared across clusters, threads — and runs.
//!
//! The paper's pre-characterization step ("performed … during a
//! pre-characterization step", §2) is meant to run **once per library
//! cell**, not once per net: a design has millions of nets but only
//! hundreds of (cell, drive-state) pairs. [`NoiseModelLibrary`] memoizes
//! all five per-cell artifacts —
//!
//! * the Eq. (1) load curve (exact reuse: it depends only on the cell,
//!   its drive state, and the characterization options),
//! * the holding resistance (exact reuse),
//! * the propagated-noise table (reused across *similar* output loads:
//!   loads are quantized into ×1.2 geometric buckets, matching the
//!   load-binning practice of commercial characterization flows),
//! * Thevenin aggressor fits (exact reuse keyed by the aggressor's Π
//!   load bits — rarely shared *within* one design, whose Π values are
//!   continuous, but hit exactly across repeated runs of the same
//!   design, which is what the persistent cache serves),
//! * noisy-receiver rejection curves (exact reuse per receiver cell,
//!   width grid, and solver),
//!
//! so an SNA run over a whole design pays characterization costs
//! proportional to library diversity, not design size.
//!
//! Every key embeds FNV-1a fingerprints of the full [`Technology`] and
//! [`CharacterizeOptions`] (the same fingerprint discipline
//! `sna_spice::tran::TranWorkspace` uses to reject stale reuse), so two
//! technologies that share a name but differ in any model parameter can
//! never alias, and a cache persisted to disk (see [`cache`], the
//! `sna-libcache-v1` format) can be validated entry-by-entry at load
//! time. The retired `backend` field of the options selects nothing and
//! is not part of the options fingerprint.
//!
//! The store is internally sharded (`RwLock<HashMap>` per shard, keyed by
//! hash) with atomically aggregated hit/miss counters, so a parallel flow
//! (`sna-flow`) can share one library by `&` reference across worker
//! threads: concurrent lookups of *different* cells proceed without
//! contention, and a cache hit never blocks behind a characterization in
//! progress (characterization runs outside any lock). Two threads racing on
//! the same cold key may both characterize; the artifacts are deterministic
//! functions of the key, so whichever insert lands first wins and results
//! are identical either way. Entries remember whether they came off disk,
//! so [`LibraryStats`] can split hits into warm-process hits and
//! `disk_hits`, and count `disk_misses` (artifacts a loaded cache did not
//! contain) and `stale_rejected` (on-disk entries refused at load time).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use sna_cells::characterize::{
    characterize_load_curve, characterize_propagated_noise_with, characterize_thevenin_with,
    holding_resistance, CharacterizeOptions, LoadCurve, PropagatedNoiseTable, TheveninDriver,
    TheveninLoad,
};
use sna_cells::{Cell, DriverMode, Technology};
use sna_obs::{phase_span, Fnv, Phase};
use sna_spice::devices::{MosPolarity, MosfetModel};
use sna_spice::error::{Error, Result};
use sna_spice::solver::SolverKind;
use sna_spice::units::PS;

use crate::nrc::{characterize_nrc_with, NoiseRejectionCurve};

#[path = "libcache.rs"]
pub mod cache;

/// Stable `(tag, argument)` encoding of a [`SolverKind`] for fingerprints
/// and the on-disk cache format.
pub fn solver_code(solver: SolverKind) -> (u8, u64) {
    match solver {
        SolverKind::Auto => (0, 0),
        SolverKind::AutoThreshold(n) => (1, n as u64),
        SolverKind::Dense => (2, 0),
        SolverKind::Sparse => (3, 0),
    }
}

/// Inverse of [`solver_code`]; `None` for an unknown tag (e.g. a cache
/// file written by a future schema).
pub fn solver_from_code(tag: u8, arg: u64) -> Option<SolverKind> {
    match tag {
        0 => Some(SolverKind::Auto),
        1 => Some(SolverKind::AutoThreshold(arg as usize)),
        2 => Some(SolverKind::Dense),
        3 => Some(SolverKind::Sparse),
        _ => None,
    }
}

fn write_mosfet(h: &mut Fnv, m: &MosfetModel) {
    h.write_u8(match m.polarity {
        MosPolarity::Nmos => 0,
        MosPolarity::Pmos => 1,
    });
    for v in [
        m.vt0, m.kp, m.lambda, m.gamma, m.phi, m.cox, m.cgso, m.cgdo, m.cj,
    ] {
        h.write_f64(v);
    }
}

/// FNV-1a fingerprint of every model parameter of a [`Technology`].
///
/// Keys embed this alongside the technology *name*, so two corners that
/// happen to share a name but differ in any device or metal parameter can
/// never alias in the cache — the same guarantee that makes one library
/// safely shareable across a multi-corner sweep.
pub fn tech_fingerprint(tech: &Technology) -> u64 {
    let mut h = Fnv::new();
    h.write_str(&tech.name);
    h.write_f64(tech.vdd);
    h.write_f64(tech.l_min);
    write_mosfet(&mut h, &tech.nmos);
    write_mosfet(&mut h, &tech.pmos);
    h.write_f64(tech.wn_unit);
    h.write_f64(tech.wp_unit);
    h.write_usize(tech.metals.len());
    for m in &tech.metals {
        h.write_u8(m.level);
        h.write_f64(m.r_per_m);
        h.write_f64(m.cg_per_m);
        h.write_f64(m.cc_per_m);
    }
    h.finish()
}

/// FNV-1a fingerprint of the characterization options that affect artifact
/// *values*: the voltage grid and every Newton tolerance.
///
/// `opts.backend` selects nothing and is left out, so fingerprints (and
/// persisted cache files) match those written before it was retired.
pub fn opts_fingerprint(opts: &CharacterizeOptions) -> u64 {
    let mut h = Fnv::new();
    h.write_usize(opts.grid);
    h.write_f64(opts.v_min_frac);
    h.write_f64(opts.v_max_frac);
    h.write_usize(opts.newton.max_iter);
    h.write_f64(opts.newton.vntol);
    h.write_f64(opts.newton.reltol);
    h.write_f64(opts.newton.abstol);
    h.write_f64(opts.newton.max_step);
    let (tag, arg) = solver_code(opts.newton.solver);
    h.write_u8(tag);
    h.write_u64(arg);
    h.finish()
}

/// Identity of a library cell: technology (name + full model fingerprint),
/// cell type, and drive strength.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CellIdent {
    tech: String,
    tech_fp: u64,
    cell_tag: &'static str,
    strength_bits: u64,
}

impl CellIdent {
    fn new(cell: &Cell) -> Self {
        CellIdent {
            tech: cell.tech.name.clone(),
            tech_fp: tech_fingerprint(&cell.tech),
            cell_tag: cell.cell_type.tag(),
            strength_bits: cell.strength.to_bits(),
        }
    }
}

/// Identity of a (cell, drive-state, options) triple, hashable across f64
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CellKey {
    ident: CellIdent,
    noisy_input: usize,
    level_bits: Vec<u64>,
    opts_fp: u64,
}

impl CellKey {
    fn new(cell: &Cell, mode: &DriverMode, opts: &CharacterizeOptions) -> Self {
        CellKey {
            ident: CellIdent::new(cell),
            noisy_input: mode.noisy_input,
            level_bits: mode.input_levels.iter().map(|v| v.to_bits()).collect(),
            opts_fp: opts_fingerprint(opts),
        }
    }
}

/// Identity of a Thevenin aggressor fit: cell identity, transition edge,
/// input slew, and the exact bits of the Π (or lumped) load it was fit
/// against.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TheveninKey {
    ident: CellIdent,
    rising: bool,
    slew_bits: u64,
    /// `[variant, a, b, c]`: `[0, cap, 0, 0]` for `Lumped(cap)`,
    /// `[1, c_near, r, c_far]` for `Pi`.
    load_bits: [u64; 4],
    opts_fp: u64,
}

impl TheveninKey {
    fn new(
        cell: &Cell,
        rising: bool,
        input_slew: f64,
        load: &TheveninLoad,
        opts: &CharacterizeOptions,
    ) -> Self {
        let load_bits = match *load {
            TheveninLoad::Lumped(cap) => [0, cap.to_bits(), 0, 0],
            TheveninLoad::Pi { c_near, r, c_far } => {
                [1, c_near.to_bits(), r.to_bits(), c_far.to_bits()]
            }
        };
        TheveninKey {
            ident: CellIdent::new(cell),
            rising,
            slew_bits: input_slew.to_bits(),
            load_bits,
            opts_fp: opts_fingerprint(opts),
        }
    }
}

/// Identity of a noise-rejection curve: receiver cell, polarity, width
/// grid, and solver.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct NrcKey {
    ident: CellIdent,
    input_low: bool,
    width_bits: Vec<u64>,
    solver: (u8, u64),
}

impl NrcKey {
    fn new(receiver: &Cell, input_low: bool, widths: &[f64], solver: SolverKind) -> Self {
        NrcKey {
            ident: CellIdent::new(receiver),
            input_low,
            width_bits: widths.iter().map(|w| w.to_bits()).collect(),
            solver: solver_code(solver),
        }
    }
}

/// Geometric load bucket (×1.2 steps) for propagated-noise tables.
///
/// # Errors
///
/// Rejects non-positive or non-finite capacitances: `ln` of those yields a
/// garbage bucket (and previously only a `debug_assert!` guarded this, so
/// release builds silently cached tables at meaningless loads).
fn load_bucket(cap: f64) -> Result<i32> {
    if !cap.is_finite() || cap <= 0.0 {
        return Err(Error::InvalidAnalysis(format!(
            "propagated-noise load capacitance must be positive and finite, got {cap:e}"
        )));
    }
    Ok((cap.ln() / 1.2_f64.ln()).round() as i32)
}

/// Representative capacitance of a bucket (its geometric center).
fn bucket_cap(bucket: i32) -> f64 {
    1.2_f64.powi(bucket)
}

/// Kinds of characterization artifacts the cache distinguishes.
///
/// All five are cached in the library's sharded maps and are eligible for
/// on-disk persistence via [`cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ArtifactKind {
    /// Eq. (1) load curves.
    LoadCurve = 0,
    /// Holding resistances.
    HoldingR = 1,
    /// Propagated-noise tables.
    PropTable = 2,
    /// Thevenin aggressor fits (keyed by the exact Π load bits).
    Thevenin = 3,
    /// Noisy-receiver rejection curves.
    Nrc = 4,
}

/// Number of [`ArtifactKind`] variants.
pub const ARTIFACT_KIND_COUNT: usize = 5;

/// Every [`ArtifactKind`], in index order.
pub const ALL_ARTIFACT_KINDS: [ArtifactKind; ARTIFACT_KIND_COUNT] = [
    ArtifactKind::LoadCurve,
    ArtifactKind::HoldingR,
    ArtifactKind::PropTable,
    ArtifactKind::Thevenin,
    ArtifactKind::Nrc,
];

impl ArtifactKind {
    /// Stable snake_case name, used as a JSON key in metrics documents.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::LoadCurve => "load_curve",
            ArtifactKind::HoldingR => "holding_r",
            ArtifactKind::PropTable => "prop_table",
            ArtifactKind::Thevenin => "thevenin",
            ArtifactKind::Nrc => "nrc",
        }
    }
}

/// Hit/miss counts for one artifact kind, with on-disk-cache provenance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Cache hits (in-process *and* disk-loaded entries).
    pub hits: usize,
    /// Cache misses (characterizations actually run).
    pub misses: usize,
    /// The subset of `hits` served by entries loaded from an on-disk
    /// `sna-libcache-v1` file.
    pub disk_hits: usize,
    /// The subset of `misses` that occurred while a disk cache was loaded
    /// — artifacts the file did not contain.
    pub disk_misses: usize,
    /// On-disk entries rejected at load time (fingerprint mismatch or
    /// semantic validation failure); each was recomputed on first use.
    pub stale_rejected: usize,
}

/// Cache statistics: per-artifact-kind hit/miss breakdown plus the derived
/// totals and per-shard occupancy of the backing maps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LibraryStats {
    /// Cache hits across all artifact kinds (sum of `by_kind` hits).
    pub hits: usize,
    /// Cache misses across all kinds (sum of `by_kind` misses).
    pub misses: usize,
    /// Disk-served hits across all kinds (sum of `by_kind` disk_hits).
    pub disk_hits: usize,
    /// Misses with a disk cache loaded (sum of `by_kind` disk_misses).
    pub disk_misses: usize,
    /// On-disk entries rejected at load time (sum over kinds).
    pub stale_rejected: usize,
    /// Hit/miss breakdown per [`ArtifactKind`], indexed by discriminant.
    pub by_kind: [KindStats; ARTIFACT_KIND_COUNT],
    /// Artifacts stored per lock shard, summed over the five cached maps.
    pub shard_occupancy: [usize; SHARD_COUNT],
}

impl LibraryStats {
    /// Hit/miss counts for one artifact kind.
    pub fn kind(&self, kind: ArtifactKind) -> KindStats {
        self.by_kind[kind as usize]
    }

    /// Counter delta `after − before` (saturating), keeping `after`'s
    /// shard occupancy. Used by multi-corner flows sharing one persistent
    /// library to report only the work a single corner added.
    pub fn delta(after: &LibraryStats, before: &LibraryStats) -> LibraryStats {
        let mut by_kind = [KindStats::default(); ARTIFACT_KIND_COUNT];
        for (i, ks) in by_kind.iter_mut().enumerate() {
            let (a, b) = (after.by_kind[i], before.by_kind[i]);
            ks.hits = a.hits.saturating_sub(b.hits);
            ks.misses = a.misses.saturating_sub(b.misses);
            ks.disk_hits = a.disk_hits.saturating_sub(b.disk_hits);
            ks.disk_misses = a.disk_misses.saturating_sub(b.disk_misses);
            ks.stale_rejected = a.stale_rejected.saturating_sub(b.stale_rejected);
        }
        LibraryStats {
            hits: after.hits.saturating_sub(before.hits),
            misses: after.misses.saturating_sub(before.misses),
            disk_hits: after.disk_hits.saturating_sub(before.disk_hits),
            disk_misses: after.disk_misses.saturating_sub(before.disk_misses),
            stale_rejected: after.stale_rejected.saturating_sub(before.stale_rejected),
            by_kind,
            shard_occupancy: after.shard_occupancy,
        }
    }
}

/// Number of independent lock shards per artifact map. Eight is plenty for
/// the thread counts a desktop flow runs at; the map is keyed by cell
/// identity, so distinct cells almost always land on distinct shards.
pub const SHARD_COUNT: usize = 8;

/// A cached artifact plus its provenance: loaded from an on-disk cache
/// file, or characterized in this process.
#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    from_disk: bool,
}

impl<V> Entry<V> {
    fn fresh(value: V) -> Self {
        Entry {
            value,
            from_disk: false,
        }
    }

    fn disk(value: V) -> Self {
        Entry {
            value,
            from_disk: true,
        }
    }
}

/// A hash-sharded `RwLock<HashMap>`: readers of different shards never
/// contend, and writers only lock the one shard their key hashes to.
#[derive(Debug)]
struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
}

impl<K: Hash + Eq, V: Clone> ShardedMap<K, V> {
    fn new() -> Self {
        ShardedMap {
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % SHARD_COUNT]
    }

    fn get(&self, key: &K) -> Option<V> {
        self.shard(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
    }

    /// Insert `value` unless a racing thread beat us to the key; either
    /// way, return the value that ended up in the map.
    fn insert_if_absent(&self, key: K, value: V) -> V {
        self.shard(&key)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(value)
            .clone()
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    fn shard_len(&self, i: usize) -> usize {
        self.shards[i]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Visit every entry (shard by shard, under the read lock).
    fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for s in &self.shards {
            for (k, v) in s.read().unwrap_or_else(PoisonError::into_inner).iter() {
                f(k, v);
            }
        }
    }
}

impl<K: Hash + Eq, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Memoizing store of per-cell noise-characterization artifacts.
///
/// All methods take `&self`: the library is safe to share across threads
/// (wrap it in an `Arc` or borrow it from a scoped thread) and serves as
/// the shared characterization cache of the parallel `sna-flow` driver.
/// See [`cache`] for on-disk persistence (`sna-libcache-v1`).
#[derive(Debug, Default)]
pub struct NoiseModelLibrary {
    load_curves: ShardedMap<CellKey, Entry<Arc<LoadCurve>>>,
    holding: ShardedMap<CellKey, Entry<f64>>,
    prop_tables: ShardedMap<(CellKey, i32), Entry<Arc<PropagatedNoiseTable>>>,
    thevenins: ShardedMap<TheveninKey, Entry<Arc<TheveninDriver>>>,
    nrcs: ShardedMap<NrcKey, Entry<Arc<NoiseRejectionCurve>>>,
    hit_counts: [AtomicUsize; ARTIFACT_KIND_COUNT],
    miss_counts: [AtomicUsize; ARTIFACT_KIND_COUNT],
    disk_hit_counts: [AtomicUsize; ARTIFACT_KIND_COUNT],
    disk_miss_counts: [AtomicUsize; ARTIFACT_KIND_COUNT],
    stale_counts: [AtomicUsize; ARTIFACT_KIND_COUNT],
    /// Set once an on-disk cache file has been loaded (even an empty one):
    /// from then on every miss also counts as a `disk_miss`.
    disk_loaded: AtomicBool,
}

impl NoiseModelLibrary {
    /// Create an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache statistics so far (aggregated atomically across threads).
    pub fn stats(&self) -> LibraryStats {
        let mut by_kind = [KindStats::default(); ARTIFACT_KIND_COUNT];
        let mut total = LibraryStats::default();
        for (i, ks) in by_kind.iter_mut().enumerate() {
            ks.hits = self.hit_counts[i].load(Ordering::Relaxed);
            ks.misses = self.miss_counts[i].load(Ordering::Relaxed);
            ks.disk_hits = self.disk_hit_counts[i].load(Ordering::Relaxed);
            ks.disk_misses = self.disk_miss_counts[i].load(Ordering::Relaxed);
            ks.stale_rejected = self.stale_counts[i].load(Ordering::Relaxed);
            total.hits += ks.hits;
            total.misses += ks.misses;
            total.disk_hits += ks.disk_hits;
            total.disk_misses += ks.disk_misses;
            total.stale_rejected += ks.stale_rejected;
        }
        let mut shard_occupancy = [0usize; SHARD_COUNT];
        for (i, occ) in shard_occupancy.iter_mut().enumerate() {
            *occ = self.load_curves.shard_len(i)
                + self.holding.shard_len(i)
                + self.prop_tables.shard_len(i)
                + self.thevenins.shard_len(i)
                + self.nrcs.shard_len(i);
        }
        total.by_kind = by_kind;
        total.shard_occupancy = shard_occupancy;
        total
    }

    /// Number of distinct artifacts stored.
    pub fn len(&self) -> usize {
        self.load_curves.len()
            + self.holding.len()
            + self.prop_tables.len()
            + self.thevenins.len()
            + self.nrcs.len()
    }

    /// Whether nothing has been characterized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn record_hit(&self, kind: ArtifactKind, from_disk: bool) {
        self.hit_counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        if from_disk {
            self.disk_hit_counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_miss(&self, kind: ArtifactKind) {
        self.miss_counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        if self.disk_loaded.load(Ordering::Relaxed) {
            self.disk_miss_counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_stale(&self, kind: ArtifactKind) {
        self.stale_counts[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The Eq. (1) load curve for `(cell, mode)` at the grid in `opts`,
    /// characterized on first use.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures (which are then *not* cached).
    pub fn load_curve(
        &self,
        cell: &Cell,
        mode: &DriverMode,
        opts: &CharacterizeOptions,
    ) -> Result<Arc<LoadCurve>> {
        let key = CellKey::new(cell, mode, opts);
        if let Some(hit) = self.load_curves.get(&key) {
            self.record_hit(ArtifactKind::LoadCurve, hit.from_disk);
            return Ok(hit.value);
        }
        self.record_miss(ArtifactKind::LoadCurve);
        let _t = phase_span(Phase::LoadCurve);
        let lc = Arc::new(characterize_load_curve(cell, mode, opts)?);
        Ok(self
            .load_curves
            .insert_if_absent(key, Entry::fresh(lc))
            .value)
    }

    /// Holding resistance for `(cell, mode)`, characterized on first use.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn holding_resistance(
        &self,
        cell: &Cell,
        mode: &DriverMode,
        opts: &CharacterizeOptions,
    ) -> Result<f64> {
        let key = CellKey::new(cell, mode, opts);
        if let Some(hit) = self.holding.get(&key) {
            self.record_hit(ArtifactKind::HoldingR, hit.from_disk);
            return Ok(hit.value);
        }
        self.record_miss(ArtifactKind::HoldingR);
        let _t = phase_span(Phase::HoldingR);
        let r = holding_resistance(cell, mode, &opts.newton)?;
        Ok(self.holding.insert_if_absent(key, Entry::fresh(r)).value)
    }

    /// Propagated-noise table for `(cell, mode)` at the load bucket
    /// containing `load_cap`. The characterization runs at the bucket's
    /// representative load, so all nets in the same ×1.2 bucket share one
    /// table.
    ///
    /// # Errors
    ///
    /// Rejects non-positive/non-finite `load_cap`; propagates
    /// characterization failures.
    pub fn propagated_table(
        &self,
        cell: &Cell,
        mode: &DriverMode,
        load_cap: f64,
        opts: &CharacterizeOptions,
    ) -> Result<Arc<PropagatedNoiseTable>> {
        let bucket = load_bucket(load_cap)?;
        let key = (CellKey::new(cell, mode, opts), bucket);
        if let Some(hit) = self.prop_tables.get(&key) {
            self.record_hit(ArtifactKind::PropTable, hit.from_disk);
            return Ok(hit.value);
        }
        self.record_miss(ArtifactKind::PropTable);
        let _t = phase_span(Phase::PropTable);
        let vdd = cell.tech.vdd;
        let heights: Vec<f64> = [0.25, 0.45, 0.65, 0.85, 1.05]
            .iter()
            .map(|f| f * vdd)
            .collect();
        let widths: Vec<f64> = [150.0, 300.0, 600.0, 1200.0]
            .iter()
            .map(|w| w * PS)
            .collect();
        let table = Arc::new(characterize_propagated_noise_with(
            cell,
            mode,
            bucket_cap(bucket),
            &heights,
            &widths,
            opts,
        )?);
        Ok(self
            .prop_tables
            .insert_if_absent(key, Entry::fresh(table))
            .value)
    }

    /// Thevenin aggressor fit for `cell` switching into `load`,
    /// characterized on first use.
    ///
    /// The cached driver is **unshifted** (it fires at t = 0); callers
    /// apply [`TheveninDriver::shifted`] — a cheap waveform translation —
    /// so one fit serves any aggressor switch time. Keys carry the exact
    /// bits of the Π load, so within one design (whose Π values are
    /// continuous) most lookups miss; across repeated runs of the *same*
    /// design they hit exactly, which is what the on-disk cache serves.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn thevenin(
        &self,
        cell: &Cell,
        rising: bool,
        input_slew: f64,
        load: &TheveninLoad,
        opts: &CharacterizeOptions,
    ) -> Result<Arc<TheveninDriver>> {
        let key = TheveninKey::new(cell, rising, input_slew, load, opts);
        if let Some(hit) = self.thevenins.get(&key) {
            self.record_hit(ArtifactKind::Thevenin, hit.from_disk);
            return Ok(hit.value);
        }
        self.record_miss(ArtifactKind::Thevenin);
        let th = Arc::new(characterize_thevenin_with(
            cell, rising, input_slew, load, opts,
        )?);
        Ok(self.thevenins.insert_if_absent(key, Entry::fresh(th)).value)
    }

    /// Noise-rejection curve for `receiver` over the given width grid,
    /// characterized (one bisection sweep) on first use.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures.
    pub fn nrc(
        &self,
        receiver: &Cell,
        input_low: bool,
        widths: &[f64],
        solver: SolverKind,
    ) -> Result<Arc<NoiseRejectionCurve>> {
        let key = NrcKey::new(receiver, input_low, widths, solver);
        if let Some(hit) = self.nrcs.get(&key) {
            self.record_hit(ArtifactKind::Nrc, hit.from_disk);
            return Ok(hit.value);
        }
        self.record_miss(ArtifactKind::Nrc);
        let curve = Arc::new(characterize_nrc_with(receiver, input_low, widths, solver)?);
        Ok(self.nrcs.insert_if_absent(key, Entry::fresh(curve)).value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_curve_cached_by_cell_and_mode() {
        let tech = Technology::cmos130();
        let cell = Cell::nand2(tech.clone(), 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 9,
            ..Default::default()
        };
        let lib = NoiseModelLibrary::new();
        let a = lib.load_curve(&cell, &mode, &opts).unwrap();
        let st = lib.stats();
        assert_eq!((st.hits, st.misses), (0, 1));
        assert_eq!(
            st.kind(ArtifactKind::LoadCurve),
            KindStats {
                hits: 0,
                misses: 1,
                ..Default::default()
            }
        );
        let b = lib.load_curve(&cell, &mode, &opts).unwrap();
        let st = lib.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(
            st.kind(ArtifactKind::LoadCurve),
            KindStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        // No disk cache was loaded: provenance counters stay zero.
        assert_eq!((st.disk_hits, st.disk_misses, st.stale_rejected), (0, 0, 0));
        assert!(Arc::ptr_eq(&a, &b));
        // Different mode = different artifact.
        let high = cell.holding_high_mode();
        let c = lib.load_curve(&cell, &high, &opts).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(lib.stats().misses, 2);
        // Different strength = different artifact.
        let cell4 = Cell::nand2(tech, 4.0);
        let mode4 = cell4.holding_low_mode();
        lib.load_curve(&cell4, &mode4, &opts).unwrap();
        assert_eq!(lib.stats().misses, 3);
        assert_eq!(lib.len(), 3);
    }

    #[test]
    fn grid_is_part_of_the_key() {
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let mode = cell.holding_low_mode();
        let lib = NoiseModelLibrary::new();
        let coarse = CharacterizeOptions {
            grid: 5,
            ..Default::default()
        };
        let fine = CharacterizeOptions {
            grid: 9,
            ..Default::default()
        };
        lib.load_curve(&cell, &mode, &coarse).unwrap();
        lib.load_curve(&cell, &mode, &fine).unwrap();
        assert_eq!(lib.stats().misses, 2);
        // Newton tolerances feed the options fingerprint too.
        let a = CharacterizeOptions::default();
        let mut newton = a.newton;
        newton.reltol *= 10.0;
        let b = CharacterizeOptions {
            newton,
            ..Default::default()
        };
        assert_ne!(opts_fingerprint(&a), opts_fingerprint(&b));
    }

    #[test]
    fn technology_fingerprint_prevents_name_aliasing() {
        let t1 = Technology::cmos130();
        let mut t2 = Technology::cmos130();
        t2.vdd = 1.1; // same name, different supply
        assert_ne!(tech_fingerprint(&t1), tech_fingerprint(&t2));
        let opts = CharacterizeOptions {
            grid: 5,
            ..Default::default()
        };
        let lib = NoiseModelLibrary::new();
        let c1 = Cell::inv(t1, 1.0);
        let c2 = Cell::inv(t2, 1.0);
        lib.load_curve(&c1, &c1.holding_low_mode(), &opts).unwrap();
        lib.load_curve(&c2, &c2.holding_low_mode(), &opts).unwrap();
        // The second lookup must NOT be served the first technology's
        // curve just because the names match.
        let st = lib.stats();
        assert_eq!((st.hits, st.misses), (0, 2));
        assert_eq!(lib.len(), 2);
    }

    #[test]
    fn prop_tables_bucket_similar_loads() {
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let mode = cell.holding_low_mode();
        let lib = NoiseModelLibrary::new();
        let a = lib
            .propagated_table(&cell, &mode, 50e-15, &CharacterizeOptions::default())
            .unwrap();
        // +5% load: same bucket, cache hit.
        let b = lib
            .propagated_table(&cell, &mode, 52.5e-15, &CharacterizeOptions::default())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let st = lib.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(
            st.kind(ArtifactKind::PropTable),
            KindStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        // 3x load: different bucket.
        let c = lib
            .propagated_table(&cell, &mode, 150e-15, &CharacterizeOptions::default())
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn bucketing_is_geometric() {
        assert_eq!(load_bucket(50e-15).unwrap(), load_bucket(52e-15).unwrap());
        assert_ne!(load_bucket(50e-15).unwrap(), load_bucket(80e-15).unwrap());
        // Representative load is within one step of any member.
        let b = load_bucket(60e-15).unwrap();
        let rep = bucket_cap(b);
        assert!(rep / 60e-15 < 1.2 && 60e-15 / rep < 1.2);
    }

    #[test]
    fn nonpositive_loads_rejected() {
        assert!(load_bucket(0.0).is_err());
        assert!(load_bucket(-1e-15).is_err());
        assert!(load_bucket(f64::NAN).is_err());
        assert!(load_bucket(f64::INFINITY).is_err());
        // Positive finite loads still bucket.
        assert!(load_bucket(1e-15).is_ok());
        // The error surfaces through the public cache API too, and nothing
        // garbage is cached.
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let mode = cell.holding_low_mode();
        let lib = NoiseModelLibrary::new();
        assert!(lib
            .propagated_table(&cell, &mode, -5e-15, &CharacterizeOptions::default())
            .is_err());
        assert!(lib.is_empty());
    }

    #[test]
    fn holding_resistance_cached() {
        let tech = Technology::cmos130();
        let cell = Cell::nand2(tech, 1.0);
        let mode = cell.holding_low_mode();
        let lib = NoiseModelLibrary::new();
        let opts = CharacterizeOptions::default();
        let r1 = lib.holding_resistance(&cell, &mode, &opts).unwrap();
        let r2 = lib.holding_resistance(&cell, &mode, &opts).unwrap();
        assert_eq!(r1, r2);
        let st = lib.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
        assert_eq!(
            st.kind(ArtifactKind::HoldingR),
            KindStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn thevenin_and_nrc_cached() {
        let tech = Technology::cmos130();
        let cell = Cell::inv(tech, 1.0);
        let lib = NoiseModelLibrary::new();
        let opts = CharacterizeOptions::default();
        let load = TheveninLoad::Lumped(20e-15);
        let a = lib.thevenin(&cell, true, 50.0 * PS, &load, &opts).unwrap();
        let b = lib.thevenin(&cell, true, 50.0 * PS, &load, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            lib.stats().kind(ArtifactKind::Thevenin),
            KindStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        // A different load (even the same total cap split into a Π) is a
        // different fit: keys carry the exact load bits.
        let pi = TheveninLoad::Pi {
            c_near: 10e-15,
            r: 50.0,
            c_far: 10e-15,
        };
        let c = lib.thevenin(&cell, true, 50.0 * PS, &pi, &opts).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(lib.stats().kind(ArtifactKind::Thevenin).misses, 2);
        // NRC: exact reuse per (receiver, polarity, widths, solver).
        let widths = [200.0 * PS, 400.0 * PS, 800.0 * PS];
        let n1 = lib.nrc(&cell, true, &widths, SolverKind::Auto).unwrap();
        let n2 = lib.nrc(&cell, true, &widths, SolverKind::Auto).unwrap();
        assert!(Arc::ptr_eq(&n1, &n2));
        assert_eq!(
            lib.stats().kind(ArtifactKind::Nrc),
            KindStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        assert_eq!(lib.len(), 3);
    }

    #[test]
    fn per_kind_breakdown_and_shard_occupancy() {
        let tech = Technology::cmos130();
        let cell = Cell::nand2(tech, 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 9,
            ..Default::default()
        };
        let lib = NoiseModelLibrary::new();
        lib.load_curve(&cell, &mode, &opts).unwrap();
        lib.holding_resistance(&cell, &mode, &opts).unwrap();
        let st = lib.stats();
        assert_eq!(st.kind(ArtifactKind::LoadCurve).misses, 1);
        assert_eq!(st.kind(ArtifactKind::HoldingR).misses, 1);
        assert_eq!(st.kind(ArtifactKind::Thevenin), KindStats::default());
        assert_eq!(st.kind(ArtifactKind::Nrc), KindStats::default());
        // Totals are derived from the breakdown.
        assert_eq!(st.hits, st.by_kind.iter().map(|k| k.hits).sum::<usize>());
        assert_eq!(
            st.misses,
            st.by_kind.iter().map(|k| k.misses).sum::<usize>()
        );
        // Two stored artifacts, wherever they hashed to.
        assert_eq!(st.shard_occupancy.iter().sum::<usize>(), lib.len());
        assert_eq!(lib.len(), 2);
    }

    #[test]
    fn stats_delta_isolates_one_corners_work() {
        let tech = Technology::cmos130();
        let cell = Cell::nand2(tech, 1.0);
        let mode = cell.holding_low_mode();
        let opts = CharacterizeOptions {
            grid: 9,
            ..Default::default()
        };
        let lib = NoiseModelLibrary::new();
        lib.load_curve(&cell, &mode, &opts).unwrap();
        let before = lib.stats();
        lib.load_curve(&cell, &mode, &opts).unwrap(); // hit
        lib.holding_resistance(&cell, &mode, &opts).unwrap(); // miss
        let d = LibraryStats::delta(&lib.stats(), &before);
        assert_eq!((d.hits, d.misses), (1, 1));
        assert_eq!(d.kind(ArtifactKind::LoadCurve).hits, 1);
        assert_eq!(d.kind(ArtifactKind::LoadCurve).misses, 0);
        assert_eq!(d.kind(ArtifactKind::HoldingR).misses, 1);
        // Occupancy is absolute (end state), not a delta.
        assert_eq!(d.shard_occupancy.iter().sum::<usize>(), lib.len());
    }

    #[test]
    fn library_is_shareable_across_threads() {
        let tech = Technology::cmos130();
        let lib = NoiseModelLibrary::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let lib = &lib;
                let tech = tech.clone();
                s.spawn(move || {
                    let cell = Cell::inv(tech, 1.0);
                    let mode = cell.holding_low_mode();
                    lib.holding_resistance(&cell, &mode, &CharacterizeOptions::default())
                        .unwrap();
                });
            }
        });
        // One artifact stored no matter how the threads raced.
        assert_eq!(lib.len(), 1);
        let st = lib.stats();
        assert_eq!(st.hits + st.misses, 4);
        assert!(st.misses >= 1);
    }
}
