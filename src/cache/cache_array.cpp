#include "cache/cache_array.hpp"

namespace ntserv::cache {

namespace {
constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

CacheArray::CacheArray(CacheArrayParams params)
    : params_(params),
      sets_(params.size_bytes / kCacheLineBytes / static_cast<std::uint64_t>(params.associativity)) {
  NTSERV_EXPECTS(params_.associativity > 0, "associativity must be positive");
  NTSERV_EXPECTS(params_.size_bytes % (kCacheLineBytes * static_cast<std::uint64_t>(
                                           params_.associativity)) == 0,
                 "capacity must be a whole number of sets");
  NTSERV_EXPECTS(sets_ > 0, "cache must have at least one set");
  NTSERV_EXPECTS(is_pow2(sets_), "set count must be a power of two");
  lines_.resize(sets_ * static_cast<std::size_t>(params_.associativity));
}

std::size_t CacheArray::set_index(Addr line_addr) const {
  return static_cast<std::size_t>((line_addr / kCacheLineBytes) & (sets_ - 1));
}

std::optional<CacheArray::WayRef> CacheArray::probe(Addr line_addr, bool touch) {
  const Addr base = line_base(line_addr);
  const std::size_t set = set_index(base);
  for (int w = 0; w < params_.associativity; ++w) {
    Line& l = lines_[set * static_cast<std::size_t>(params_.associativity) +
                     static_cast<std::size_t>(w)];
    if (l.valid && l.tag == base) {
      if (touch) l.lru_stamp = ++tick_;
      return WayRef{set, w};
    }
  }
  return std::nullopt;
}

int CacheArray::pick_victim(std::size_t set) const {
  const Line* base = &lines_[set * static_cast<std::size_t>(params_.associativity)];
  // Invalid way first.
  for (int w = 0; w < params_.associativity; ++w) {
    if (!base[w].valid) return w;
  }
  // Directory-aware pass: LRU among lines without L1 copies.
  if (params_.protect_nonzero_meta) {
    int victim = -1;
    for (int w = 0; w < params_.associativity; ++w) {
      if (base[w].meta != 0) continue;
      if (victim < 0 || base[w].lru_stamp < base[victim].lru_stamp) victim = w;
    }
    if (victim >= 0) return victim;
  }
  int victim = 0;
  for (int w = 1; w < params_.associativity; ++w) {
    if (base[w].lru_stamp < base[victim].lru_stamp) victim = w;
  }
  return victim;
}

CacheArray::Eviction CacheArray::insert(Addr line_addr, bool dirty, std::uint32_t meta) {
  const Addr base_addr = line_base(line_addr);
  NTSERV_EXPECTS(!probe(base_addr, /*touch=*/false).has_value(),
                 "insert of a line that is already present");
  const std::size_t set = set_index(base_addr);
  const int way = pick_victim(set);
  Line& l = lines_[set * static_cast<std::size_t>(params_.associativity) +
                   static_cast<std::size_t>(way)];

  Eviction ev;
  if (l.valid) {
    ev.valid = true;
    ev.line_addr = l.tag;
    ev.dirty = l.dirty;
    ev.meta = l.meta;
  }
  l.valid = true;
  l.dirty = dirty;
  l.tag = base_addr;
  l.lru_stamp = ++tick_;
  l.meta = meta;
  return ev;
}

std::optional<CacheArray::Eviction> CacheArray::invalidate(Addr line_addr) {
  auto ref = probe(line_addr, /*touch=*/false);
  if (!ref) return std::nullopt;
  Line& l = lines_[ref->set * static_cast<std::size_t>(params_.associativity) +
                   static_cast<std::size_t>(ref->way)];
  Eviction ev{true, l.tag, l.dirty, l.meta};
  l = Line{};
  return ev;
}

bool CacheArray::is_dirty(WayRef ref) const {
  return lines_[ref.set * static_cast<std::size_t>(params_.associativity) +
                static_cast<std::size_t>(ref.way)]
      .dirty;
}

void CacheArray::set_dirty(WayRef ref, bool dirty) {
  lines_[ref.set * static_cast<std::size_t>(params_.associativity) +
         static_cast<std::size_t>(ref.way)]
      .dirty = dirty;
}

std::uint32_t CacheArray::meta(WayRef ref) const {
  return lines_[ref.set * static_cast<std::size_t>(params_.associativity) +
                static_cast<std::size_t>(ref.way)]
      .meta;
}

void CacheArray::set_meta(WayRef ref, std::uint32_t meta) {
  lines_[ref.set * static_cast<std::size_t>(params_.associativity) +
         static_cast<std::size_t>(ref.way)]
      .meta = meta;
}

Addr CacheArray::line_addr_of(WayRef ref) const {
  return lines_[ref.set * static_cast<std::size_t>(params_.associativity) +
                static_cast<std::size_t>(ref.way)]
      .tag;
}

std::size_t CacheArray::valid_count() const {
  std::size_t n = 0;
  for (const auto& l : lines_) n += l.valid ? 1 : 0;
  return n;
}

}  // namespace ntserv::cache
