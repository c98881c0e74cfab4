//! Compiled-artifact cache: per-circuit immutable state built once and
//! shared read-only across every run of that circuit.
//!
//! Profiling the batched sweep path showed that once the inner kernels are
//! SIMD-saturated, the remaining per-run cost is redundant *setup*: parsing
//! the netlist, rebuilding the GNN adjacency/CSR plan, re-deriving the
//! device→net incidence index, and re-planning the DCT used by the Poisson
//! solver — all of which depend only on the circuit (and, for the density
//! plans, the placement-region geometry), not on the run's seed or budget.
//!
//! [`CircuitArtifacts`] bundles that state behind `Arc`s:
//!
//! - the parsed [`Circuit`] itself,
//! - its [`DeviceNets`] incidence index,
//! - its GNN [`GraphTopology`] (normalized adjacency + CSR plan + static
//!   features),
//! - a pool of [`DensityGrid`] templates keyed by region geometry (each
//!   template owns the DCT plans and eigenvalue tables; handing out clones
//!   is a memcpy, and a clone is bitwise-identical to a fresh build because
//!   plan construction is deterministic),
//! - a type-keyed extension map so placer crates that `eplace` does not
//!   depend on (the SA move evaluator's SoA tables, for example) can attach
//!   their own shared per-circuit state.
//!
//! [`ArtifactCache`] maps circuits to their artifacts. The authoritative
//! key is a 64-bit FNV-1a hash of the circuit's canonical text form and
//! geometry ([`circuit_content_hash`]): two circuits with the same devices,
//! footprints, pin offsets, nets and constraints share artifacts no matter
//! how they were obtained, and any netlist edit changes the key. Raw-text and testcase-name memos sit in
//! front of the content hash so repeated lookups skip re-parsing and
//! re-serialization entirely.
//!
//! Sharing is observable: the cache counts hits and misses both as plain
//! atomics (available in every build, asserted by CI) and as telemetry
//! counters (`artifact_cache_hits`/`artifact_cache_misses`).

use std::any::{Any, TypeId};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use analog_netlist::{parser, AppliedDelta, Circuit, DeviceNets, ParseError};
use placer_gnn::GraphTopology;
use placer_telemetry::Counter;

use crate::density::DensityGrid;

static CACHE_HITS: Counter = Counter::new("artifact_cache_hits");
static CACHE_MISSES: Counter = Counter::new("artifact_cache_misses");
static DENSITY_TEMPLATE_HITS: Counter = Counter::new("artifact_density_template_hits");
static DENSITY_TEMPLATE_MISSES: Counter = Counter::new("artifact_density_template_misses");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes raw netlist text (before parsing) for the cache's text memo.
fn text_hash(spice: &str, constraints: Option<&str>) -> u64 {
    let h = fnv1a(FNV_OFFSET, spice.as_bytes());
    let h = fnv1a(h, &[0x1f]);
    fnv1a(h, constraints.unwrap_or("").as_bytes())
}

/// Content hash of a circuit: 64-bit FNV-1a over its canonical SPICE deck,
/// its constraint text and its geometry.
///
/// The canonical writers ([`parser::write_spice`] /
/// [`parser::write_constraints`]) normalize away incidental formatting, so
/// the hash identifies the circuit's devices, nets, electrical parameters
/// and constraints — any edit to one of those changes the hash, while two
/// differently-formatted decks of the same circuit collide on purpose.
/// The deck carries no footprints or pin offsets (a parsed deck derives
/// them from the electrical parameters), so every device's width, height
/// and pin offsets are hashed as well, by bit pattern: circuits that would
/// be placed with different geometry never share a bundle.
pub fn circuit_content_hash(circuit: &Circuit) -> u64 {
    let h = fnv1a(FNV_OFFSET, parser::write_spice(circuit).as_bytes());
    // Separator bytes keep the (deck, constraints, geometry) framings
    // unambiguous.
    let h = fnv1a(h, &[0x1f]);
    let mut h = fnv1a(h, parser::write_constraints(circuit).as_bytes());
    for device in circuit.devices() {
        h = fnv1a(h, &[0x1e]);
        let pins = device.pins.iter().flat_map(|p| [p.offset.0, p.offset.1]);
        for v in [device.width, device.height].into_iter().chain(pins) {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Artifact state is immutable once inserted, so a panicking holder
    // cannot leave it torn; recover instead of propagating poison.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Key for a density template: the bit patterns of the region origin and
/// extent plus the grid dimension.
type DensityKey = ([u64; 4], usize);

/// Immutable per-circuit state shared read-only across runs.
///
/// Built once per circuit (usually through an [`ArtifactCache`]) and handed
/// around as `Arc<CircuitArtifacts>`. Every placer's
/// [`place_artifacts`](crate::Placer::place_artifacts) entry point accepts
/// one; runs that start from artifacts are bit-identical to cold-built runs
/// because the shared state is exactly what the cold path would have
/// computed (tested per placer).
pub struct CircuitArtifacts {
    circuit: Arc<Circuit>,
    content_hash: u64,
    device_nets: Arc<DeviceNets>,
    topology: Arc<GraphTopology>,
    density_templates: Mutex<HashMap<DensityKey, DensityGrid>>,
    ext: Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>,
}

impl fmt::Debug for CircuitArtifacts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CircuitArtifacts")
            .field("content_hash", &format_args!("{:#018x}", self.content_hash))
            .field("devices", &self.circuit.num_devices())
            .finish_non_exhaustive()
    }
}

impl CircuitArtifacts {
    /// Builds the artifact bundle for a circuit.
    ///
    /// Eagerly derives the content hash, the device→net index and the GNN
    /// topology; density templates and extension state fill in lazily on
    /// first use.
    pub fn build(circuit: Circuit) -> Arc<Self> {
        let content_hash = circuit_content_hash(&circuit);
        let device_nets = Arc::new(DeviceNets::new(&circuit));
        let topology = Arc::new(GraphTopology::new(&circuit));
        Arc::new(Self {
            circuit: Arc::new(circuit),
            content_hash,
            device_nets,
            topology,
            density_templates: Mutex::new(HashMap::new()),
            ext: Mutex::new(HashMap::new()),
        })
    }

    /// Patches the bundle for an applied [`analog_netlist::NetlistDelta`]
    /// instead of rebuilding it — the incremental ECO path.
    ///
    /// What survives depends on what the delta touched:
    ///
    /// - **device→net index**: shared untouched when membership did not
    ///   change, row-spliced ([`DeviceNets::spliced`]) for adds and pin
    ///   rewires, rebuilt only when a device was removed (ids shift);
    /// - **GNN topology**: shared untouched for pure attribute edits,
    ///   feature-row patched ([`GraphTopology::patched_features`]) for
    ///   resizes/criticality flips, rebuilt when connectivity changed;
    /// - **density templates**: cloned wholesale — they depend only on
    ///   region geometry, so an unchanged region keeps its DCT plans;
    /// - **extension state**: dropped (placer crates own its rebuild).
    ///
    /// Every retained structure is bit-identical to what
    /// [`CircuitArtifacts::build`] would derive from the edited circuit
    /// (property-tested over random delta sequences).
    pub fn patched(&self, applied: &AppliedDelta) -> Arc<Self> {
        let circuit = applied.circuit.clone();
        let content_hash = circuit_content_hash(&circuit);
        let device_nets = if !applied.membership_changed {
            Arc::clone(&self.device_nets)
        } else if applied.removed_devices {
            Arc::new(DeviceNets::new(&circuit))
        } else {
            Arc::new(self.device_nets.spliced(&circuit, &applied.dirty))
        };
        let topology = if applied.membership_changed {
            Arc::new(GraphTopology::new(&circuit))
        } else if applied.features_changed {
            Arc::new(self.topology.patched_features(&circuit, &applied.dirty))
        } else {
            Arc::clone(&self.topology)
        };
        let density_templates = Mutex::new(lock(&self.density_templates).clone());
        Arc::new(Self {
            circuit: Arc::new(circuit),
            content_hash,
            device_nets,
            topology,
            density_templates,
            ext: Mutex::new(HashMap::new()),
        })
    }

    /// The parsed circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The circuit behind its shared handle (for spawning owned clones of
    /// the `Arc`, not of the circuit).
    pub fn circuit_arc(&self) -> Arc<Circuit> {
        Arc::clone(&self.circuit)
    }

    /// The circuit's [`circuit_content_hash`].
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// The shared device→net incidence index.
    pub fn device_nets(&self) -> Arc<DeviceNets> {
        Arc::clone(&self.device_nets)
    }

    /// The shared GNN connectivity plan (adjacency, CSR, static features).
    pub fn topology(&self) -> Arc<GraphTopology> {
        Arc::clone(&self.topology)
    }

    /// Hands out a [`DensityGrid`] for the given region, cloning from a
    /// cached template when one exists for that geometry.
    ///
    /// Grid construction is deterministic, so the clone is bitwise-equal to
    /// `DensityGrid::new(origin, extent, dim)` — the clone just skips
    /// re-planning the DCTs and re-tabulating the Poisson eigenvalues.
    pub fn density_grid(&self, origin: (f64, f64), extent: (f64, f64), dim: usize) -> DensityGrid {
        let key: DensityKey = (
            [
                origin.0.to_bits(),
                origin.1.to_bits(),
                extent.0.to_bits(),
                extent.1.to_bits(),
            ],
            dim,
        );
        if let Some(template) = lock(&self.density_templates).get(&key) {
            DENSITY_TEMPLATE_HITS.add(1);
            return template.clone();
        }
        DENSITY_TEMPLATE_MISSES.add(1);
        // Build outside the lock: concurrent first requests may duplicate
        // the work, but never deadlock and never observe a torn template.
        let built = DensityGrid::new(origin, extent, dim);
        let mut pool = lock(&self.density_templates);
        pool.entry(key).or_insert_with(|| built.clone());
        built
    }

    /// Fetches (or builds and caches) typed extension state.
    ///
    /// Placer crates attach their own shared per-circuit artifacts here —
    /// for example the SA placer's immutable move-evaluation tables — keyed
    /// by the state's type. The first caller's `build` result wins; `build`
    /// runs outside the map lock and must not call back into this map.
    pub fn ext_or_build<T, F>(&self, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce(&Circuit) -> T,
    {
        let key = TypeId::of::<T>();
        if let Some(existing) = lock(&self.ext).get(&key) {
            return Arc::clone(existing).downcast::<T>().expect("ext type key");
        }
        let built: Arc<T> = Arc::new(build(&self.circuit));
        let mut map = lock(&self.ext);
        let entry = map
            .entry(key)
            .or_insert_with(|| Arc::clone(&built) as Arc<dyn Any + Send + Sync>);
        Arc::clone(entry).downcast::<T>().expect("ext type key")
    }
}

/// Cache of [`CircuitArtifacts`] keyed by circuit content hash.
///
/// Three entry points, fastest first:
///
/// - [`get_or_build_named`](Self::get_or_build_named) — a name memo for
///   generated testcases (names are trusted stable per cache lifetime);
/// - [`get_or_parse`](Self::get_or_parse) — a raw-text memo in front of the
///   parser, so re-submitting the same deck text skips parsing entirely;
/// - [`get_or_build`](Self::get_or_build) — the authoritative content-hash
///   path for already-parsed circuits.
///
/// All three converge on the same hash-keyed store, so a circuit reached by
/// any route shares one artifact bundle. [`invalidate`](Self::invalidate)
/// evicts an entry (and any memos pointing at it); the next lookup rebuilds.
///
/// Each entry point builds once per key: a lookup that misses while
/// another thread builds the same key waits for that build and counts as
/// a hit.
pub struct ArtifactCache {
    by_hash: Mutex<HashMap<u64, Arc<CircuitArtifacts>>>,
    by_text: Mutex<HashMap<u64, u64>>,
    by_name: Mutex<HashMap<String, u64>>,
    /// Keys whose build is running; `built` wakes their waiters.
    building: Mutex<HashSet<BuildKey>>,
    built: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// What a lookup is keyed by, per entry point.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum BuildKey {
    Hash(u64),
    Text(u64),
    Name(String),
}

/// The one running build of a key. Dropping it, once the build is in the
/// maps or has failed, wakes the lookups waiting on that key.
struct BuildClaim<'a> {
    cache: &'a ArtifactCache,
    key: BuildKey,
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        lock(&self.cache.building).remove(&self.key);
        self.cache.built.notify_all();
    }
}

impl fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("entries", &lock(&self.by_hash).len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            by_hash: Mutex::new(HashMap::new()),
            by_text: Mutex::new(HashMap::new()),
            by_name: Mutex::new(HashMap::new()),
            building: Mutex::new(HashSet::new()),
            built: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        CACHE_HITS.add(1);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        CACHE_MISSES.add(1);
    }

    fn get_hash(&self, hash: u64) -> Option<Arc<CircuitArtifacts>> {
        lock(&self.by_hash).get(&hash).cloned()
    }

    /// Returns what `find` finds as a hit. Otherwise the caller gets the
    /// claim on `key` and counts as the miss that builds it, unless another
    /// thread holds the claim: then this waits for that build and looks
    /// again.
    fn find_or_claim(
        &self,
        key: impl FnOnce() -> BuildKey,
        find: impl Fn() -> Option<Arc<CircuitArtifacts>>,
    ) -> Result<Arc<CircuitArtifacts>, BuildClaim<'_>> {
        if let Some(found) = find() {
            self.hit();
            return Ok(found);
        }
        let key = key();
        let mut building = lock(&self.building);
        loop {
            if let Some(found) = find() {
                self.hit();
                return Ok(found);
            }
            if !building.contains(&key) {
                break;
            }
            building = self.built.wait(building).unwrap_or_else(|e| e.into_inner());
        }
        building.insert(key.clone());
        drop(building);
        self.miss();
        Err(BuildClaim { cache: self, key })
    }

    fn insert(&self, artifacts: Arc<CircuitArtifacts>) -> Arc<CircuitArtifacts> {
        let mut map = lock(&self.by_hash);
        Arc::clone(
            map.entry(artifacts.content_hash())
                .or_insert_with(|| artifacts),
        )
    }

    /// Fetches (or builds) the artifact bundle for an already-parsed
    /// circuit, keyed by its content hash.
    pub fn get_or_build(&self, circuit: &Circuit) -> Arc<CircuitArtifacts> {
        let hash = circuit_content_hash(circuit);
        let _claim = match self.find_or_claim(|| BuildKey::Hash(hash), || self.get_hash(hash)) {
            Ok(found) => return found,
            Err(claim) => claim,
        };
        self.insert(CircuitArtifacts::build(circuit.clone()))
    }

    /// Fetches (or parses and builds) the artifact bundle for raw netlist
    /// text, with a text memo so byte-identical resubmissions skip the
    /// parser.
    pub fn get_or_parse(
        &self,
        spice: &str,
        constraints: Option<&str>,
    ) -> Result<Arc<CircuitArtifacts>, ParseError> {
        let memo_key = text_hash(spice, constraints);
        let find = || {
            let hash = lock(&self.by_text).get(&memo_key).copied()?;
            self.get_hash(hash)
        };
        let _claim = match self.find_or_claim(|| BuildKey::Text(memo_key), find) {
            Ok(found) => return Ok(found),
            Err(claim) => claim,
        };
        let mut circuit = parser::parse_spice(spice)?;
        if let Some(text) = constraints {
            parser::parse_constraints(&mut circuit, text)?;
        }
        let artifacts = self.insert(CircuitArtifacts::build(circuit));
        lock(&self.by_text).insert(memo_key, artifacts.content_hash());
        Ok(artifacts)
    }

    /// Fetches (or builds via `build`) the artifact bundle for a named
    /// circuit — the testcase path. Names are trusted stable for the cache's
    /// lifetime; `build` runs only on the first miss per name, and
    /// concurrent lookups of that name wait for it. Returns `None` when
    /// `build` does (unknown name).
    pub fn get_or_build_named<F>(&self, name: &str, build: F) -> Option<Arc<CircuitArtifacts>>
    where
        F: FnOnce() -> Option<Circuit>,
    {
        let find = || {
            let hash = lock(&self.by_name).get(name).copied()?;
            self.get_hash(hash)
        };
        let _claim = match self.find_or_claim(|| BuildKey::Name(name.to_string()), find) {
            Ok(found) => return Some(found),
            Err(claim) => claim,
        };
        let circuit = build()?;
        let artifacts = self.insert(CircuitArtifacts::build(circuit));
        lock(&self.by_name).insert(name.to_string(), artifacts.content_hash());
        Some(artifacts)
    }

    /// Evicts the entry with this content hash (plus any text/name memos
    /// pointing at it). Returns whether an entry existed. The next lookup
    /// for that circuit rebuilds from scratch.
    pub fn invalidate(&self, hash: u64) -> bool {
        let existed = lock(&self.by_hash).remove(&hash).is_some();
        lock(&self.by_text).retain(|_, h| *h != hash);
        lock(&self.by_name).retain(|_, h| *h != hash);
        existed
    }

    /// Number of cached circuits.
    pub fn len(&self) -> usize {
        lock(&self.by_hash).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an existing bundle.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    #[test]
    fn content_hash_is_stable_and_distinguishes_circuits() {
        let a = testcases::cc_ota();
        let b = testcases::cc_ota();
        assert_eq!(circuit_content_hash(&a), circuit_content_hash(&b));
        assert_ne!(
            circuit_content_hash(&testcases::cc_ota()),
            circuit_content_hash(&testcases::comp1())
        );
    }

    #[test]
    fn netlist_edit_changes_the_hash() {
        let circuit = testcases::cc_ota();
        let deck = parser::write_spice(&circuit);
        let cons = parser::write_constraints(&circuit);
        let parse = |text: &str| {
            let mut c = parser::parse_spice(text).unwrap();
            parser::parse_constraints(&mut c, &cons).unwrap();
            c
        };
        let before = circuit_content_hash(&parse(&deck));
        // Re-parsing the same deck keeps the hash.
        assert_eq!(before, circuit_content_hash(&parse(&deck)));
        // One device's width edited in the text moves it. The constraints
        // ride along unchanged so only the edit moves the hash.
        let edited_deck = deck.replace("W=4.0000", "W=4.1000");
        assert_ne!(deck, edited_deck, "edit must hit the canonical deck");
        assert_ne!(before, circuit_content_hash(&parse(&edited_deck)));
    }

    #[test]
    fn geometry_the_deck_drops_still_changes_the_hash() {
        // `write_spice` keeps no footprints or pin offsets, so parsing the
        // deck back gives the testcase's devices new geometry. The two
        // circuits must not share a bundle.
        let circuit = testcases::adder();
        let deck = parser::write_spice(&circuit);
        let cons = parser::write_constraints(&circuit);
        let mut parsed = parser::parse_spice(&deck).unwrap();
        parser::parse_constraints(&mut parsed, &cons).unwrap();
        let moved = circuit
            .devices()
            .iter()
            .zip(parsed.devices())
            .filter(|(a, b)| {
                a.width != b.width
                    || a.height != b.height
                    || a.pins
                        .iter()
                        .zip(&b.pins)
                        .any(|(p, q)| p.offset != q.offset)
            })
            .count();
        assert!(moved > 0, "the round trip must change some geometry");
        assert_eq!(parser::write_spice(&parsed), deck, "same canonical deck");
        assert_ne!(
            circuit_content_hash(&circuit),
            circuit_content_hash(&parsed)
        );

        let cache = ArtifactCache::new();
        let testcase = cache.get_or_build(&circuit);
        let from_text = cache.get_or_parse(&deck, Some(&cons)).unwrap();
        assert!(!Arc::ptr_eq(&testcase, &from_text), "fresh bundle expected");
        assert_eq!(
            from_text.circuit().devices()[0].width,
            parsed.devices()[0].width
        );
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cache_hits_after_first_build() {
        let cache = ArtifactCache::new();
        let first = cache.get_or_build(&testcases::cc_ota());
        let second = cache.get_or_build(&testcases::cc_ota());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn text_memo_skips_reparse_and_invalidate_rebuilds() {
        let circuit = testcases::comp1();
        let deck = parser::write_spice(&circuit);
        let cons = parser::write_constraints(&circuit);
        let cache = ArtifactCache::new();
        let a = cache.get_or_parse(&deck, Some(&cons)).unwrap();
        let b = cache.get_or_parse(&deck, Some(&cons)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let mut parsed = parser::parse_spice(&deck).unwrap();
        parser::parse_constraints(&mut parsed, &cons).unwrap();
        assert_eq!(a.content_hash(), circuit_content_hash(&parsed));
        assert!(cache.invalidate(a.content_hash()));
        assert!(cache.is_empty());
        let c = cache.get_or_parse(&deck, Some(&cons)).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn named_lookup_memoizes_and_rejects_unknown() {
        let cache = ArtifactCache::new();
        let mut builds = 0;
        for _ in 0..3 {
            let got = cache.get_or_build_named("cc_ota", || {
                builds += 1;
                Some(testcases::cc_ota())
            });
            assert!(got.is_some());
        }
        assert_eq!(builds, 1);
        assert!(cache.get_or_build_named("no-such", || None).is_none());
    }

    #[test]
    fn concurrent_misses_of_one_name_build_once() {
        let cache = ArtifactCache::new();
        let builds = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(2);
        let got: Vec<Arc<CircuitArtifacts>> = std::thread::scope(|s| {
            let lookups: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache
                            .get_or_build_named("cc_ota", || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                // Hold the build open so the other lookup
                                // arrives while it runs.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                Some(testcases::cc_ota())
                            })
                            .expect("known name")
                    })
                })
                .collect();
            lookups.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one build per name");
        assert!(Arc::ptr_eq(&got[0], &got[1]));
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn density_template_clone_matches_fresh_build() {
        let artifacts = CircuitArtifacts::build(testcases::cc_ota());
        let shared = artifacts.density_grid((0.0, 0.0), (40.0, 40.0), 32);
        let fresh = DensityGrid::new((0.0, 0.0), (40.0, 40.0), 32);
        // Deterministic construction: the cached template's clone must
        // evaluate identically to a cold-built grid.
        let circuit = artifacts.circuit();
        let pts: Vec<(f64, f64)> = (0..circuit.num_devices())
            .map(|i| (3.0 + i as f64, 5.0 + 0.5 * i as f64))
            .collect();
        let mut a = shared;
        let mut b = fresh;
        let ea = a.evaluate(circuit, &pts);
        let eb = b.evaluate(circuit, &pts);
        assert_eq!(ea.energy, eb.energy);
        assert_eq!(ea.overflow, eb.overflow);
        assert_eq!(ea.grad, eb.grad);
    }

    #[test]
    fn ext_map_returns_one_shared_instance_per_type() {
        struct Marker(usize);
        let artifacts = CircuitArtifacts::build(testcases::adder());
        let a = artifacts.ext_or_build(|c| Marker(c.num_devices()));
        let b = artifacts.ext_or_build(|_| Marker(usize::MAX));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.0, artifacts.circuit().num_devices());
    }
}
