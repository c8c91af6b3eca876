#include "storage/page_cache.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace hermes {

namespace {

/// Stable mutex names per shard index (the lock-order validator and the
/// abort diagnostics keep the pointer, so these must outlive every cache).
constexpr const char* kShardMutexNames[PageCache::kMaxShards] = {
    "page_cache.s0",  "page_cache.s1",  "page_cache.s2",  "page_cache.s3",
    "page_cache.s4",  "page_cache.s5",  "page_cache.s6",  "page_cache.s7",
    "page_cache.s8",  "page_cache.s9",  "page_cache.s10", "page_cache.s11",
    "page_cache.s12", "page_cache.s13", "page_cache.s14", "page_cache.s15",
};

}  // namespace

std::vector<std::unique_ptr<PageCache::Shard>> PageCache::MakeShards(
    std::size_t capacity, std::size_t num_shards) {
  // Auto-sharding keeps tiny caches (unit tests, the snapshot cache's
  // smallest configurations) on a single shard — exact global LRU — and
  // gives big caches one shard per 8 pages of capacity.
  std::size_t n = num_shards != 0 ? num_shards
                                  : std::max<std::size_t>(1, capacity / 8);
  n = std::min<std::size_t>(std::max<std::size_t>(n, 1), kMaxShards);
  const std::size_t per_shard = std::max<std::size_t>(1, capacity / n);
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards.push_back(std::make_unique<Shard>(
        kShardMutexNames[i],
        lock_order::kRankPageCacheShardBase + static_cast<int>(i),
        per_shard));
  }
  return shards;
}

PageCache::PageCache(PagedFile* file, std::size_t capacity_pages,
                     std::size_t num_shards)
    : file_(file),
      capacity_(std::max<std::size_t>(1, capacity_pages)),
      shards_(MakeShards(capacity_, num_shards)),
      m_hits_(MetricsRegistry::Global().GetCounter("page_cache.hits")),
      m_misses_(MetricsRegistry::Global().GetCounter("page_cache.misses")),
      m_evictions_(
          MetricsRegistry::Global().GetCounter("page_cache.evictions")),
      m_writebacks_(
          MetricsRegistry::Global().GetCounter("page_cache.writebacks")) {}

Result<Page*> PageCache::Pin(std::uint64_t page_no) {
  Shard& shard = ShardFor(page_no);
  for (;;) {
    Frame* victim_frame = nullptr;
    std::uint64_t victim_no = 0;
    Frame* load_frame = nullptr;
    {
      MutexLock lock(&shard.mu);
      for (;;) {
        auto it = shard.frames.find(page_no);
        if (it != shard.frames.end()) {
          Frame* frame = it->second.get();
          if (frame->busy) {
            // Another thread is loading or writing back this frame; its
            // bytes are off-limits until the I/O completes.
            shard.cv.Wait(&shard.mu);
            continue;
          }
          ++shard.stats.hits;
          m_hits_->Increment();
          if (frame->in_lru) {
            shard.lru.erase(frame->lru_pos);
            frame->in_lru = false;
          }
          ++frame->pins;
          return &frame->page;
        }
        if (shard.frames.size() < shard.capacity) break;  // slot free: load
        if (shard.lru.empty()) {
          if (shard.busy_frames > 0) {
            // An in-flight load may fail (freeing its slot) or an
            // in-flight write-back may complete an eviction; wait for a
            // verdict instead of failing a full-but-transient shard.
            shard.cv.Wait(&shard.mu);
            continue;
          }
          return Status::Internal("page cache exhausted: all pages pinned");
        }
        const std::uint64_t victim = shard.lru.back();
        auto vit = shard.frames.find(victim);
        HERMES_CHECK(vit != shard.frames.end());
        Frame* vframe = vit->second.get();
        HERMES_CHECK(!vframe->busy && vframe->pins == 0);
        shard.lru.pop_back();
        vframe->in_lru = false;
        if (!vframe->dirty) {
          shard.frames.erase(vit);
          ++shard.stats.evictions;
          m_evictions_->Increment();
          continue;  // slot freed; re-check for a free slot or a hit
        }
        vframe->busy = true;
        ++shard.busy_frames;
        victim_frame = vframe;
        victim_no = victim;
        break;  // write the victim back outside the lock
      }
      if (victim_frame == nullptr) {
        // Claim the slot with a busy placeholder so concurrent pinners of
        // this page wait for our load instead of loading twice.
        auto frame = std::make_unique<Frame>();
        frame->page_no = page_no;
        frame->pins = 1;
        frame->busy = true;
        load_frame = frame.get();
        shard.frames.emplace(page_no, std::move(frame));
        ++shard.busy_frames;
        ++shard.stats.misses;
        m_misses_->Increment();
      }
    }

    if (victim_frame != nullptr) {
      // Dirty write-back with the shard lock released: busy + pins == 0
      // guarantee no other thread reads or writes the victim's bytes.
      const Status st = file_->WritePage(victim_no, victim_frame->page);
      {
        MutexLock lock(&shard.mu);
        victim_frame->busy = false;
        --shard.busy_frames;
        if (st.ok()) {
          ++shard.stats.writebacks;
          m_writebacks_->Increment();
          shard.frames.erase(victim_no);
          ++shard.stats.evictions;
          m_evictions_->Increment();
        } else {
          // The victim stays resident (still in frames, still dirty), so
          // it must be a valid LRU member again — re-queued at the cold
          // end so a retried eviction picks the same victim first.
          shard.lru.push_back(victim_no);
          victim_frame->lru_pos = std::prev(shard.lru.end());
          victim_frame->in_lru = true;
        }
      }
      shard.cv.NotifyAll();
      if (!st.ok()) return st;
      continue;  // retry the pin with a slot free
    }

    // Miss load with the shard lock released; the placeholder's busy flag
    // keeps concurrent pinners out of the half-filled page.
    const Status st = file_->ReadPage(page_no, &load_frame->page);
    {
      MutexLock lock(&shard.mu);
      load_frame->busy = false;
      --shard.busy_frames;
      if (!st.ok()) shard.frames.erase(page_no);
    }
    shard.cv.NotifyAll();
    if (!st.ok()) return st;
    return &load_frame->page;  // pinned by us: the frame stays resident
  }
}

void PageCache::Unpin(std::uint64_t page_no, bool dirty) {
  Shard& shard = ShardFor(page_no);
  MutexLock lock(&shard.mu);
  auto it = shard.frames.find(page_no);
  HERMES_CHECK(it != shard.frames.end());
  Frame* frame = it->second.get();
  HERMES_CHECK(frame->pins > 0);
  frame->dirty = frame->dirty || dirty;
  if (--frame->pins == 0 && !frame->busy) {
    // A busy frame (FlushAll writing it back) rejoins the LRU when its
    // I/O completes, not here — it must not be evictable mid-write.
    shard.lru.push_front(page_no);
    frame->lru_pos = shard.lru.begin();
    frame->in_lru = true;
  }
}

Status PageCache::FlushAll() {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    for (;;) {
      Frame* frame = nullptr;
      std::uint64_t page_no = 0;
      {
        MutexLock lock(&shard.mu);
        for (;;) {
          bool busy_dirty = false;
          for (auto& [no, f] : shard.frames) {
            if (!f->dirty) continue;
            if (f->busy) {
              busy_dirty = true;
              continue;
            }
            frame = f.get();
            page_no = no;
            break;
          }
          if (frame != nullptr || !busy_dirty) break;
          // Every remaining dirty frame has I/O in flight (an eviction
          // write-back); wait for its verdict so the flush covers it.
          shard.cv.Wait(&shard.mu);
        }
        if (frame == nullptr) break;  // shard clean: next shard
        frame->busy = true;
        ++shard.busy_frames;
        // Clear the dirty bit at claim time: a write landing during our
        // I/O re-dirties the frame and the next scan catches it.
        frame->dirty = false;
        if (frame->in_lru) {
          shard.lru.erase(frame->lru_pos);
          frame->in_lru = false;
        }
      }
      const Status st = file_->WritePage(page_no, frame->page);
      {
        MutexLock lock(&shard.mu);
        frame->busy = false;
        --shard.busy_frames;
        if (!st.ok()) {
          frame->dirty = true;
        } else {
          ++shard.stats.writebacks;
          m_writebacks_->Increment();
        }
        if (frame->pins == 0 && !frame->in_lru) {
          shard.lru.push_front(page_no);
          frame->lru_pos = shard.lru.begin();
          frame->in_lru = true;
        }
      }
      shard.cv.NotifyAll();
      if (!st.ok()) return st;
    }
  }
  return file_->Sync();
}

PageCache::Stats PageCache::stats() const {
  Stats total;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(&shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.evictions += shard.stats.evictions;
    total.writebacks += shard.stats.writebacks;
  }
  return total;
}

std::size_t PageCache::resident() const {
  std::size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock lock(&shard.mu);
    total += shard.frames.size();
  }
  return total;
}

void PagedWriter::Append(const void* data, std::size_t size) {
  if (!first_error_.ok()) return;
  const auto* src = static_cast<const unsigned char*>(data);
  while (size > 0) {
    const std::uint64_t page_no = position_ / kPageSize;
    const std::size_t offset = position_ % kPageSize;
    const std::size_t chunk = std::min(size, kPageSize - offset);
    auto page = cache_->Pin(page_no);
    if (!page.ok()) {
      first_error_ = page.status();
      return;
    }
    std::memcpy((*page)->bytes.data() + offset, src, chunk);
    cache_->Unpin(page_no, /*dirty=*/true);
    src += chunk;
    size -= chunk;
    position_ += chunk;
  }
}

Status PagedWriter::Finish() {
  HERMES_RETURN_NOT_OK(first_error_);
  return cache_->FlushAll();
}

bool PagedReader::Read(void* out, std::size_t size) {
  if (position_ + size > limit_) return false;
  auto* dst = static_cast<unsigned char*>(out);
  while (size > 0) {
    const std::uint64_t page_no = position_ / kPageSize;
    const std::size_t offset = position_ % kPageSize;
    const std::size_t chunk = std::min(size, kPageSize - offset);
    auto page = cache_->Pin(page_no);
    if (!page.ok()) return false;
    std::memcpy(dst, (*page)->bytes.data() + offset, chunk);
    cache_->Unpin(page_no, /*dirty=*/false);
    dst += chunk;
    size -= chunk;
    position_ += chunk;
  }
  return true;
}

}  // namespace hermes
