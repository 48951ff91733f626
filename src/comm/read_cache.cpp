#include "comm/read_cache.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "trace/counters.hpp"

namespace hupc::comm {

namespace {
const trace::CounterId kHits = trace::intern("gas.cache.hits");
const trace::CounterId kMisses = trace::intern("gas.cache.misses");
const trace::CounterId kEvictions = trace::intern("gas.cache.evictions");
const trace::CounterId kInvalidations =
    trace::intern("gas.cache.invalidations");
const trace::CounterId kPrefetch = trace::intern("gas.cache.prefetch");
}  // namespace

const CacheStats& ReadCache::stats() const {
  const trace::Counters& c = net_->counters();
  view_ = CacheStats{.hits = c.get(kHits, rank_),
                     .misses = c.get(kMisses, rank_),
                     .evictions = c.get(kEvictions, rank_),
                     .invalidations = c.get(kInvalidations, rank_)};
  return view_;
}

void check_geometry(const CacheParams& params) {
  if (params.line_bytes == 0 ||
      (params.line_bytes & (params.line_bytes - 1)) != 0) {
    throw std::invalid_argument(
        "comm::CacheParams: line_bytes must be a power of two >= 1");
  }
  if (params.lines == 0 || params.lines % kCacheWays != 0) {
    throw std::invalid_argument(
        "comm::CacheParams: lines must be a positive multiple of the " +
        std::to_string(kCacheWays) + " ways");
  }
}

void ReadCache::configure(const CacheParams& params) {
  check_geometry(params);
  params_ = params;
  sets_ = params.lines / kCacheWays;
  lines_.assign(params.lines, Line{});
  tick_ = 0;
}

std::size_t ReadCache::set_index(int owner,
                                 std::uint64_t line_no) const noexcept {
  // Mix the owner in with a golden-ratio multiple so different ranks'
  // identical line numbers spread over distinct sets, while same-owner
  // aliasing stays predictable (line_no + k*sets maps to the same set —
  // the property the eviction tests lean on).
  const auto mix = line_no + static_cast<std::uint64_t>(owner) *
                                 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(mix % static_cast<std::uint64_t>(sets_));
}

int ReadCache::find(int owner, std::uint64_t line_no) const noexcept {
  const std::size_t base = set_index(owner, line_no) * kCacheWays;
  for (std::size_t w = 0; w < kCacheWays; ++w) {
    const Line& ln = lines_[base + w];
    if (ln.valid && ln.owner == owner && ln.line_no == line_no) {
      return static_cast<int>(w);
    }
  }
  return -1;
}

sim::Task<bool> ReadCache::read(int owner, int dst_node, std::int64_t offset,
                                std::size_t bytes) {
  assert(offset >= 0 && bytes > 0 && sets_ != 0 &&
         "configure() the cache and resolve the offset before read()");
  const auto lb = static_cast<std::uint64_t>(params_.line_bytes);
  const auto first = static_cast<std::uint64_t>(offset) / lb;
  const auto last =
      (static_cast<std::uint64_t>(offset) + bytes - 1) / lb;
  bool all_hit = true;
  for (std::uint64_t line_no = first; line_no <= last; ++line_no) {
    const int way = find(owner, line_no);
    if (way >= 0) {
      // The fault seam may force the hit into a refill — an invalidation
      // storm. Values cannot change (the cache holds no data); only the
      // modeled cost schedule shifts, deterministically per plan seed.
      if (fault_ != nullptr && fault_->drop_cached_line(rank_)) {
        const std::size_t idx =
            set_index(owner, line_no) * kCacheWays +
            static_cast<std::size_t>(way);
        lines_[idx].valid = false;
        net_->counters().add(kInvalidations, rank_);
      } else {
        lines_[set_index(owner, line_no) * kCacheWays +
               static_cast<std::size_t>(way)]
            .tick = ++tick_;
        net_->counters().add(kHits, rank_);
        continue;
      }
    }
    all_hit = false;
    co_await fill(owner, dst_node, line_no, bytes);
  }
  co_return all_hit;
}

void ReadCache::install(int owner, std::uint64_t line_no) {
  const std::size_t base = set_index(owner, line_no) * kCacheWays;
  std::size_t victim = base;
  for (std::size_t w = 0; w < kCacheWays; ++w) {
    if (!lines_[base + w].valid) {
      victim = base + w;
      break;
    }
    if (lines_[base + w].tick < lines_[victim].tick) victim = base + w;
  }
  if (lines_[victim].valid) {
    net_->counters().add(kEvictions, rank_);
  }
  lines_[victim] = Line{true, owner, line_no, ++tick_};
  net_->counters().add(kMisses, rank_);
}

sim::Task<void> ReadCache::fill(int owner, int dst_node,
                                std::uint64_t line_no,
                                std::size_t access_bytes) {
  install(owner, line_no);
  // One round trip fetches the whole line; count how many accesses of
  // this size it amortizes, so the net.aggregated/net.coalesced_ops
  // counters expose the line-fill batching exactly like coalescer
  // flushes do (accounting only — never timing).
  const std::uint64_t amortized = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(params_.line_bytes /
                                    std::max<std::size_t>(1, access_bytes)));
  co_await net_->rma(net::Transfer{
      .src_node = src_node_,
      .src_ep = src_ep_,
      .dst_node = dst_node,
      .bytes = static_cast<double>(params_.line_bytes),
      .coalesced_count = amortized});
}

sim::Task<std::size_t> ReadCache::prefetch(int owner, int dst_node,
                                           const Range* ranges,
                                           std::size_t count) {
  assert(sets_ != 0 && "configure() the cache before prefetch()");
  const auto lb = static_cast<std::uint64_t>(params_.line_bytes);
  // The footprint's distinct lines, ascending (deterministic fill order).
  std::vector<std::uint64_t> touched;
  for (std::size_t i = 0; i < count; ++i) {
    if (ranges[i].bytes == 0 || ranges[i].offset < 0) continue;
    const auto off = static_cast<std::uint64_t>(ranges[i].offset);
    const std::uint64_t first = off / lb;
    const std::uint64_t last = (off + ranges[i].bytes - 1) / lb;
    for (std::uint64_t line_no = first; line_no <= last; ++line_no) {
      touched.push_back(line_no);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  std::size_t filled = 0;
  for (const std::uint64_t line_no : touched) {
    const int way = find(owner, line_no);
    if (way >= 0) {
      const std::size_t idx = set_index(owner, line_no) * kCacheWays +
                              static_cast<std::size_t>(way);
      if (fault_ != nullptr && fault_->drop_cached_line(rank_)) {
        lines_[idx].valid = false;
        net_->counters().add(kInvalidations, rank_);
      } else {
        lines_[idx].tick = ++tick_;
        net_->counters().add(kHits, rank_);
        continue;
      }
    }
    install(owner, line_no);
    ++filled;
  }
  if (filled == 0) co_return 0;
  // One packed message fetches every missing line the footprint touches:
  // regions/coalesced_count expose the batching to the counters and the
  // vis trace events, exactly like a coalescer flush (accounting only).
  net_->counters().add(kPrefetch, rank_, static_cast<std::uint64_t>(filled));
  const double payload =
      static_cast<double>(filled) * static_cast<double>(params_.line_bytes);
  co_await net_->rma(net::Transfer{
      .src_node = src_node_,
      .src_ep = src_ep_,
      .dst_node = dst_node,
      .bytes = payload,
      .coalesced_count = static_cast<std::uint64_t>(filled),
      .regions = static_cast<std::uint64_t>(filled),
      .payload_bytes = payload});
  co_return filled;
}

void ReadCache::invalidate_range(int owner, std::int64_t offset,
                                 std::size_t bytes) {
  if (sets_ == 0 || offset < 0 || bytes == 0) return;
  const auto lb = static_cast<std::uint64_t>(params_.line_bytes);
  const auto first = static_cast<std::uint64_t>(offset) / lb;
  const auto last =
      (static_cast<std::uint64_t>(offset) + bytes - 1) / lb;
  for (std::uint64_t line_no = first; line_no <= last; ++line_no) {
    const int way = find(owner, line_no);
    if (way < 0) continue;
    lines_[set_index(owner, line_no) * kCacheWays +
           static_cast<std::size_t>(way)]
        .valid = false;
    net_->counters().add(kInvalidations, rank_);
  }
}

void ReadCache::invalidate_all() {
  std::uint64_t dropped = 0;
  for (Line& ln : lines_) {
    if (!ln.valid) continue;
    ln.valid = false;
    ++dropped;
  }
  if (dropped == 0) return;
  net_->counters().add(kInvalidations, rank_, dropped);
}

}  // namespace hupc::comm
