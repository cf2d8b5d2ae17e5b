// Set-associative tag store with LRU replacement.
//
// Used for the 32KB 2-way L1I/L1D and the 4MB 16-way LLC (paper Sec. IV).
// The array tracks validity, dirtiness, an LRU stamp and an opaque
// 32-bit `meta` word per line that the LLC uses for its MESI directory
// entry (sharer bitmask / owner / state).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace ntserv::cache {

struct CacheArrayParams {
  std::uint64_t size_bytes = 32 * kKiB;
  int associativity = 2;
  /// Directory-aware victim selection (inclusive LLCs): prefer victims
  /// whose meta word is zero — i.e. lines with no L1 copies — to avoid
  /// back-invalidating hot L1-resident lines. Falls back to plain LRU
  /// when every candidate has non-zero meta.
  bool protect_nonzero_meta = false;
};

/// Tag array of one cache (no data payload: ntserv is timing-directed).
class CacheArray {
 public:
  explicit CacheArray(CacheArrayParams params);

  [[nodiscard]] const CacheArrayParams& params() const { return params_; }
  [[nodiscard]] std::size_t num_sets() const { return sets_; }

  struct WayRef {
    std::size_t set;
    int way;
  };

  /// Look up a line; `touch` makes it most recently used on a hit.
  [[nodiscard]] std::optional<WayRef> probe(Addr line_addr, bool touch = true);

  struct Eviction {
    bool valid = false;      ///< an existing line was displaced
    Addr line_addr = 0;
    bool dirty = false;
    std::uint32_t meta = 0;
  };

  /// Install a line (must not already be present); returns the victim.
  Eviction insert(Addr line_addr, bool dirty, std::uint32_t meta = 0);

  /// Remove a line if present; returns its state for writeback decisions.
  std::optional<Eviction> invalidate(Addr line_addr);

  // Per-line state accessors (ref must come from a current probe/insert).
  [[nodiscard]] bool is_dirty(WayRef ref) const;
  void set_dirty(WayRef ref, bool dirty);
  [[nodiscard]] std::uint32_t meta(WayRef ref) const;
  void set_meta(WayRef ref, std::uint32_t meta);
  [[nodiscard]] Addr line_addr_of(WayRef ref) const;

  /// Number of valid lines (for inclusivity/occupancy checks in tests).
  [[nodiscard]] std::size_t valid_count() const;

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    Addr tag = 0;  ///< full line address (simpler and equivalent to tag)
    std::uint64_t lru_stamp = 0;
    std::uint32_t meta = 0;
  };

  [[nodiscard]] std::size_t set_index(Addr line_addr) const;
  [[nodiscard]] int pick_victim(std::size_t set) const;

  CacheArrayParams params_;
  std::size_t sets_;
  std::vector<Line> lines_;  ///< sets_ x associativity, row-major
  std::uint64_t tick_ = 0;   ///< LRU timestamp source
};

}  // namespace ntserv::cache
