//! The client-side lock cache for callback locking.
//!
//! "Client-server interaction is minimized by caching data and locks
//! between transactions running on the same client. Cache consistency is
//! provided by employing the callback locking algorithm" (§3, citing
//! Howard et al. and Lamb et al.).
//!
//! A [`LockCache`] lives on each client (or node server). Locks obtained
//! from a server are *cached* here when the transaction that acquired them
//! finishes; a later local transaction that needs a covered mode hits the
//! cache and avoids a server round trip. When another client wants a
//! conflicting lock, the server issues a **callback**; the cache releases
//! the lock immediately if no local transaction is using it, otherwise the
//! callback is deferred until the last local user finishes.
//!
//! ## Page images
//!
//! The paper caches "data *and* locks", so a cached page lock may carry the
//! page's bytes. The image lives *on the lock entry*: there is one map and
//! one mutex, and whatever removes or revokes the lock (callback, deferred
//! release, [`LockCache::clear`]) removes the image in the same step — no
//! second invalidation path to forget. An image is only ever attached to,
//! or served from, a lock cached in a mode that covers `S`: under `IS`/`IX`
//! another client may change the page (object-level locking), so an
//! intention lock vouches for nothing. Images are bounded by
//! [`IMAGE_CAPACITY`], least recently served first out; eviction drops an
//! image, never a lock.

use std::collections::{BTreeMap, HashMap, HashSet};

use bess_obs::{Counter, Group, Registry};

use crate::mode::LockMode;
use crate::name::{LockName, TxnId};
use crate::order::{OrderedMutex, Rank};

/// Outcome of a local lock probe against the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDecision {
    /// The cache holds a covering lock; no server message needed.
    Hit,
    /// The server must be asked for `need` (either nothing is cached or the
    /// cached mode is too weak).
    Miss {
        /// The mode to request from the server.
        need: LockMode,
    },
}

/// Response to a server callback for one resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallbackResponse {
    /// The lock was dropped from the cache; the server may grant the
    /// conflicting request.
    Released,
    /// A local transaction is using the lock; the release will happen when
    /// the last user finishes ([`LockCache::finish_txn`] returns it).
    Deferred,
    /// The resource was not cached here (e.g. raced with an earlier
    /// release); nothing to do.
    NotCached,
}

/// Most page images one cache keeps: 768 four-KiB pages, about 3 MiB per
/// connection. Locks are not bounded by it.
pub const IMAGE_CAPACITY: usize = 768;

#[derive(Debug)]
struct CachedLock {
    mode: LockMode,
    users: HashSet<TxnId>,
    callback_pending: bool,
    image: Option<Image>,
}

/// A page's bytes, valid for as long as the lock entry that owns them.
#[derive(Debug)]
struct Image {
    bytes: Vec<u8>,
    /// Key of this image in [`Table::lru`].
    tick: u64,
}

/// Everything behind the cache's one mutex.
#[derive(Debug, Default)]
struct Table {
    locks: HashMap<LockName, CachedLock>,
    /// Images by the tick they were last stored or served at; the first
    /// entry is the eviction victim. One entry per attached image.
    lru: BTreeMap<u64, LockName>,
    tick: u64,
}

impl Table {
    /// Makes `name`'s image the most recently used and returns a copy.
    fn serve(&mut self, name: LockName) -> Option<Vec<u8>> {
        let cached = self.locks.get_mut(&name)?;
        if !cached.mode.covers(LockMode::S) {
            return None;
        }
        let image = cached.image.as_mut()?;
        self.lru.remove(&image.tick);
        self.tick += 1;
        image.tick = self.tick;
        self.lru.insert(self.tick, name);
        Some(image.bytes.clone())
    }

    /// Detaches `name`'s image, if it has one.
    fn detach(&mut self, name: LockName) -> bool {
        match self.locks.get_mut(&name).and_then(|c| c.image.take()) {
            Some(image) => {
                self.lru.remove(&image.tick);
                true
            }
            None => false,
        }
    }
}

/// Counters kept by a [`LockCache`] — [`bess_obs`] handles registered
/// under the `lock.cache.` prefix of [`LockCache::metrics`].
#[derive(Debug)]
pub struct CacheStats {
    /// Probes answered from the cache (`lock.cache.hits`).
    pub hits: Counter,
    /// Probes that required a server request (`lock.cache.misses`).
    pub misses: Counter,
    /// Callbacks received (`lock.cache.callbacks`).
    pub callbacks: Counter,
    /// Callbacks answered with immediate release
    /// (`lock.cache.callback_released`).
    pub callback_released: Counter,
    /// Callbacks deferred because the lock was in use
    /// (`lock.cache.callback_deferred`).
    pub callback_deferred: Counter,
}

impl CacheStats {
    fn new(group: &Group) -> CacheStats {
        CacheStats {
            hits: group.counter("hits"),
            misses: group.counter("misses"),
            callbacks: group.counter("callbacks"),
            callback_released: group.counter("callback_released"),
            callback_deferred: group.counter("callback_deferred"),
        }
    }
}

/// Page-image counters. The owner of the cache decides where they are
/// registered (a client connection puts them under `client.page_cache.`);
/// a cache that never stores an image keeps them unregistered.
#[derive(Debug)]
pub struct ImageStats {
    /// Reads served from an image, no message sent (`hits`).
    pub hits: Counter,
    /// Reads through the image path that had to ask the server (`misses`).
    pub misses: Counter,
    /// Images dropped to stay within [`IMAGE_CAPACITY`] (`evictions`).
    pub evictions: Counter,
    /// Images dropped because their lock was released, revoked, or no
    /// longer vouched for the bytes (`invalidations`).
    pub invalidations: Counter,
}

impl ImageStats {
    /// Registers the four counters in `group`.
    pub fn new(group: &Group) -> ImageStats {
        ImageStats {
            hits: group.counter("hits"),
            misses: group.counter("misses"),
            evictions: group.counter("evictions"),
            invalidations: group.counter("invalidations"),
        }
    }

    fn unregistered() -> ImageStats {
        ImageStats {
            hits: Counter::unregistered(),
            misses: Counter::unregistered(),
            evictions: Counter::unregistered(),
            invalidations: Counter::unregistered(),
        }
    }
}

/// The per-client cache of locks granted by servers.
pub struct LockCache {
    table: OrderedMutex<Table>,
    group: Group,
    stats: CacheStats,
    images: ImageStats,
}

impl LockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::with_image_stats(ImageStats::unregistered())
    }

    /// Creates an empty cache whose page-image counters are `images`.
    pub fn with_image_stats(images: ImageStats) -> Self {
        let group = Registry::new().group("lock.cache");
        let stats = CacheStats::new(&group);
        LockCache {
            table: OrderedMutex::new(Rank::LockCache, "lock.cache", Table::default()),
            group,
            stats,
            images,
        }
    }

    /// Cache activity counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The cache's metric group (`lock.cache.*`).
    pub fn metrics(&self) -> &Group {
        &self.group
    }

    /// Probes the cache on behalf of local transaction `txn` wanting
    /// `mode`. On [`CacheDecision::Hit`] the transaction is registered as a
    /// user of the cached lock.
    pub fn acquire(&self, txn: TxnId, name: LockName, mode: LockMode) -> CacheDecision {
        self.probe(&mut self.table.lock(), txn, name, mode)
    }

    /// [`Self::acquire`] for a page read: on a hit under a cached mode that
    /// covers `S`, also returns a copy of the page's image if one is
    /// attached — the caller then needs no message at all. Every call
    /// counts as an image hit or miss.
    pub fn acquire_image(
        &self,
        txn: TxnId,
        name: LockName,
        mode: LockMode,
    ) -> (CacheDecision, Option<Vec<u8>>) {
        let mut table = self.table.lock();
        let decision = self.probe(&mut table, txn, name, mode);
        let image = match decision {
            CacheDecision::Hit => table.serve(name),
            CacheDecision::Miss { .. } => None,
        };
        self.count_read(&image);
        (decision, image)
    }

    /// A copy of `name`'s image, if the lock is cached in a mode that
    /// covers `S` and has one (a read under a lock the caller already
    /// holds). Counts as an image hit or miss.
    pub fn image(&self, name: LockName) -> Option<Vec<u8>> {
        let image = self.table.lock().serve(name);
        self.count_read(&image);
        image
    }

    fn count_read(&self, image: &Option<Vec<u8>>) {
        if image.is_some() {
            self.images.hits.inc();
        } else {
            self.images.misses.inc();
        }
    }

    fn probe(&self, table: &mut Table, txn: TxnId, name: LockName, mode: LockMode) -> CacheDecision {
        match table.locks.get_mut(&name) {
            Some(cached) if cached.mode.covers(mode) && !cached.callback_pending => {
                cached.users.insert(txn);
                self.stats.hits.inc();
                CacheDecision::Hit
            }
            Some(cached) if !cached.callback_pending => {
                // Cached but too weak: the server must upgrade to the
                // supremum of what is cached and what is wanted.
                self.stats.misses.inc();
                CacheDecision::Miss {
                    need: cached.mode.supremum(mode),
                }
            }
            _ => {
                self.stats.misses.inc();
                CacheDecision::Miss { need: mode }
            }
        }
    }

    /// Records a lock granted by the server for `txn`.
    pub fn grant(&self, txn: TxnId, name: LockName, mode: LockMode) {
        let mut table = self.table.lock();
        let entry = table.locks.entry(name).or_insert_with(|| CachedLock {
            mode,
            users: HashSet::new(),
            callback_pending: false,
            image: None,
        });
        entry.mode = entry.mode.supremum(mode);
        entry.users.insert(txn);
    }

    /// Attaches `bytes` — the page as the server sent it under this lock —
    /// to `name`'s entry, replacing any older image. A no-op unless the
    /// lock is cached in a mode that covers `S` with no callback pending
    /// (an entry about to be released keeps nothing). The caller must be a
    /// registered user of the lock, so no callback can have released it
    /// between the server's read and this call. Evicts the least recently
    /// served image beyond [`IMAGE_CAPACITY`].
    pub fn put_image(&self, name: LockName, bytes: &[u8]) {
        let mut table = self.table.lock();
        let Table { locks, lru, tick } = &mut *table;
        let Some(cached) = locks.get_mut(&name) else {
            return;
        };
        if !cached.mode.covers(LockMode::S) || cached.callback_pending {
            return;
        }
        *tick += 1;
        if let Some(old) = cached.image.replace(Image {
            bytes: bytes.to_vec(),
            tick: *tick,
        }) {
            lru.remove(&old.tick);
        }
        lru.insert(*tick, name);
        while lru.len() > IMAGE_CAPACITY {
            let Some((_, victim)) = lru.pop_first() else {
                break;
            };
            if let Some(cached) = locks.get_mut(&victim) {
                cached.image = None;
            }
            self.images.evictions.inc();
        }
    }

    /// Overwrites `offset..offset + bytes.len()` of `name`'s image, if it
    /// has one: the owner's own acknowledged commit, applied to the copy
    /// exactly as the server applied it to the page. A patch that does not
    /// fit the image drops it instead.
    pub fn patch_image(&self, name: LockName, offset: usize, bytes: &[u8]) {
        let mut table = self.table.lock();
        let Some(image) = table.locks.get_mut(&name).and_then(|c| c.image.as_mut()) else {
            return;
        };
        match offset
            .checked_add(bytes.len())
            .and_then(|end| image.bytes.get_mut(offset..end))
        {
            Some(range) => range.copy_from_slice(bytes),
            None => self.invalidate(&mut table, name),
        }
    }

    /// Drops `name`'s image (the lock stays cached).
    pub fn drop_image(&self, name: LockName) {
        self.invalidate(&mut self.table.lock(), name);
    }

    fn invalidate(&self, table: &mut Table, name: LockName) {
        if table.detach(name) {
            self.images.invalidations.inc();
        }
    }

    /// Number of images currently attached.
    pub fn images(&self) -> usize {
        self.table.lock().lru.len()
    }

    /// Handles a server callback for `name`. Returns how the cache
    /// responded; on [`CallbackResponse::Deferred`] the eventual release is
    /// reported by [`Self::finish_txn`].
    pub fn callback(&self, name: LockName) -> CallbackResponse {
        self.stats.callbacks.inc();
        let mut table = self.table.lock();
        match table.locks.get_mut(&name) {
            None => CallbackResponse::NotCached,
            Some(cached) if cached.users.is_empty() => {
                self.invalidate(&mut table, name);
                table.locks.remove(&name);
                self.stats.callback_released.inc();
                CallbackResponse::Released
            }
            Some(cached) => {
                cached.callback_pending = true;
                self.stats.callback_deferred.inc();
                CallbackResponse::Deferred
            }
        }
    }

    /// A server may also *downgrade-callback* a cached X lock to S (enough
    /// for a remote reader). If no local user holds it, the cached mode is
    /// weakened in place and `true` is returned. The image survives a
    /// downgrade to a mode that still covers `S`.
    pub fn callback_downgrade(&self, name: LockName, to: LockMode) -> bool {
        self.stats.callbacks.inc();
        let mut table = self.table.lock();
        match table.locks.get_mut(&name) {
            Some(cached) if cached.users.is_empty() && cached.mode.covers(to) => {
                cached.mode = to;
                if !to.covers(LockMode::S) {
                    self.invalidate(&mut table, name);
                }
                self.stats.callback_released.inc();
                true
            }
            None => true,
            Some(cached) => {
                cached.callback_pending = true;
                self.stats.callback_deferred.inc();
                false
            }
        }
    }

    /// Marks a cached lock as having a pending callback (used when a
    /// callback raced the grant of the lock: the release happens when the
    /// last user finishes). Returns whether the lock was cached.
    pub fn mark_callback_pending(&self, name: LockName) -> bool {
        match self.table.lock().locks.get_mut(&name) {
            Some(cached) => {
                cached.callback_pending = true;
                true
            }
            None => false,
        }
    }

    /// Ends `txn` locally: the transaction stops using its cached locks but
    /// the locks *stay cached* for future transactions (the whole point of
    /// callback locking). Returns the resources whose deferred callbacks
    /// can now be answered — the caller must send the releases to the
    /// server. Their images go with them.
    pub fn finish_txn(&self, txn: TxnId) -> Vec<LockName> {
        let mut released = Vec::new();
        let mut table = self.table.lock();
        let Table { locks, lru, .. } = &mut *table;
        locks.retain(|name, cached| {
            cached.users.remove(&txn);
            if cached.callback_pending && cached.users.is_empty() {
                if let Some(image) = &cached.image {
                    lru.remove(&image.tick);
                    self.images.invalidations.inc();
                }
                released.push(*name);
                false
            } else {
                true
            }
        });
        released
    }

    /// Drops every cached lock and image (client shutdown, or a client
    /// without a node server whose locks are only cached for the
    /// transaction duration, §3). Returns the names so the caller can
    /// notify servers.
    pub fn clear(&self) -> Vec<LockName> {
        let mut table = self.table.lock();
        self.images.invalidations.add(table.lru.len() as u64);
        table.lru.clear();
        table.locks.drain().map(|(name, _)| name).collect()
    }

    /// The cached mode for `name`, if any.
    pub fn cached_mode(&self, name: LockName) -> Option<LockMode> {
        self.table.lock().locks.get(&name).map(|c| c.mode)
    }

    /// Number of cached locks.
    pub fn len(&self) -> usize {
        self.table.lock().locks.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.table.lock().locks.is_empty()
    }
}

impl Default for LockCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(p: u64) -> LockName {
        LockName::Page { area: 0, page: p }
    }

    #[test]
    fn miss_then_grant_then_hit() {
        let cache = LockCache::new();
        assert_eq!(
            cache.acquire(TxnId(1), page(1), LockMode::S),
            CacheDecision::Miss { need: LockMode::S }
        );
        cache.grant(TxnId(1), page(1), LockMode::S);
        cache.finish_txn(TxnId(1));
        // Next transaction hits without a server message.
        assert_eq!(cache.acquire(TxnId(2), page(1), LockMode::S), CacheDecision::Hit);
        let s = cache.stats();
        assert_eq!((s.hits.get(), s.misses.get()), (1, 1));
    }

    #[test]
    fn weak_cached_mode_asks_for_supremum() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::S);
        cache.finish_txn(TxnId(1));
        assert_eq!(
            cache.acquire(TxnId(2), page(1), LockMode::X),
            CacheDecision::Miss { need: LockMode::X }
        );
        cache.grant(TxnId(2), page(1), LockMode::X);
        assert_eq!(cache.cached_mode(page(1)), Some(LockMode::X));
    }

    #[test]
    fn callback_on_idle_lock_releases_immediately() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::X);
        cache.finish_txn(TxnId(1));
        assert_eq!(cache.callback(page(1)), CallbackResponse::Released);
        assert!(cache.is_empty());
    }

    #[test]
    fn callback_on_lock_in_use_defers_until_finish() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::X);
        assert_eq!(cache.callback(page(1)), CallbackResponse::Deferred);
        // While deferred, new local transactions cannot use it.
        assert!(matches!(
            cache.acquire(TxnId(2), page(1), LockMode::S),
            CacheDecision::Miss { .. }
        ));
        let released = cache.finish_txn(TxnId(1));
        assert_eq!(released, vec![page(1)]);
        assert!(cache.is_empty());
    }

    #[test]
    fn callback_for_unknown_resource() {
        let cache = LockCache::new();
        assert_eq!(cache.callback(page(9)), CallbackResponse::NotCached);
    }

    #[test]
    fn downgrade_callback_weakens_idle_lock() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::X);
        cache.finish_txn(TxnId(1));
        assert!(cache.callback_downgrade(page(1), LockMode::S));
        assert_eq!(cache.cached_mode(page(1)), Some(LockMode::S));
        // Another local reader now hits.
        assert_eq!(cache.acquire(TxnId(2), page(1), LockMode::S), CacheDecision::Hit);
    }

    #[test]
    fn downgrade_callback_defers_when_in_use() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::X);
        assert!(!cache.callback_downgrade(page(1), LockMode::S));
        let released = cache.finish_txn(TxnId(1));
        assert_eq!(released, vec![page(1)]);
    }

    #[test]
    fn clear_returns_all_names() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::S);
        cache.grant(TxnId(1), page(2), LockMode::X);
        let mut names = cache.clear();
        names.sort();
        assert_eq!(names, vec![page(1), page(2)]);
        assert!(cache.is_empty());
    }

    /// Grants `mode` on `page(p)` to `txn` and attaches a one-byte image.
    fn grant_with_image(cache: &LockCache, txn: u64, p: u64, mode: LockMode, byte: u8) {
        cache.grant(TxnId(txn), page(p), mode);
        cache.put_image(page(p), &[byte; 8]);
    }

    #[test]
    fn image_is_served_with_the_lock_hit_and_dies_with_the_lock() {
        let cache = LockCache::new();
        grant_with_image(&cache, 1, 1, LockMode::S, 7);
        cache.finish_txn(TxnId(1));
        assert_eq!(
            cache.acquire_image(TxnId(2), page(1), LockMode::S),
            (CacheDecision::Hit, Some(vec![7; 8]))
        );
        cache.finish_txn(TxnId(2));
        assert_eq!(cache.callback(page(1)), CallbackResponse::Released);
        assert_eq!(cache.images(), 0);
        assert_eq!(cache.image(page(1)), None);
        let s = &cache.images;
        assert_eq!((s.hits.get(), s.misses.get(), s.invalidations.get()), (1, 1, 1));
    }

    #[test]
    fn intention_modes_neither_take_nor_serve_an_image() {
        let cache = LockCache::new();
        for (p, mode) in [(1, LockMode::IS), (2, LockMode::IX)] {
            grant_with_image(&cache, 1, p, mode, 9);
            assert_eq!(cache.images(), 0, "{mode:?} must not hold an image");
            assert_eq!(
                cache.acquire_image(TxnId(1), page(p), mode),
                (CacheDecision::Hit, None)
            );
        }
        // S then IX is SIX, which covers S: nobody else can write the page.
        grant_with_image(&cache, 1, 3, LockMode::S, 4);
        cache.grant(TxnId(1), page(3), LockMode::SIX);
        assert_eq!(cache.image(page(3)), Some(vec![4; 8]));
    }

    #[test]
    fn downgrade_keeps_the_image_and_deferred_release_drops_it() {
        let cache = LockCache::new();
        grant_with_image(&cache, 1, 1, LockMode::X, 5);
        cache.finish_txn(TxnId(1));
        assert!(cache.callback_downgrade(page(1), LockMode::S));
        assert_eq!(cache.image(page(1)), Some(vec![5; 8]));

        grant_with_image(&cache, 2, 2, LockMode::X, 6);
        assert_eq!(cache.callback(page(2)), CallbackResponse::Deferred);
        assert_eq!(cache.finish_txn(TxnId(2)), vec![page(2)]);
        assert_eq!(cache.images(), 1, "only page 1's image is left");
        assert_eq!(cache.clear().len(), 1);
        assert_eq!(cache.images(), 0);
    }

    #[test]
    fn patch_rewrites_the_image_and_an_oversized_patch_drops_it() {
        let cache = LockCache::new();
        grant_with_image(&cache, 1, 1, LockMode::X, 0);
        cache.patch_image(page(1), 2, &[1, 2]);
        assert_eq!(cache.image(page(1)), Some(vec![0, 0, 1, 2, 0, 0, 0, 0]));
        cache.patch_image(page(1), 7, &[1, 2]);
        assert_eq!(cache.images(), 0);
        assert_eq!(cache.cached_mode(page(1)), Some(LockMode::X), "the lock stays");
    }

    #[test]
    fn capacity_evicts_least_recently_served_images_never_locks() {
        let cache = LockCache::new();
        for p in 0..IMAGE_CAPACITY as u64 {
            grant_with_image(&cache, 1, p, LockMode::S, 1);
        }
        // Serving page 0 makes page 1 the oldest.
        assert!(cache.image(page(0)).is_some());
        grant_with_image(&cache, 1, u64::MAX, LockMode::S, 1);
        assert_eq!(cache.images(), IMAGE_CAPACITY);
        assert_eq!(cache.len(), IMAGE_CAPACITY + 1);
        assert_eq!(cache.images.evictions.get(), 1);
        assert!(cache.image(page(0)).is_some());
        assert_eq!(cache.image(page(1)), None);
    }

    #[test]
    fn multiple_users_share_cached_lock() {
        let cache = LockCache::new();
        cache.grant(TxnId(1), page(1), LockMode::S);
        assert_eq!(cache.acquire(TxnId(2), page(1), LockMode::S), CacheDecision::Hit);
        assert_eq!(cache.callback(page(1)), CallbackResponse::Deferred);
        assert!(cache.finish_txn(TxnId(1)).is_empty(), "txn2 still using");
        assert_eq!(cache.finish_txn(TxnId(2)), vec![page(1)]);
    }
}
