// Synthetic micro-op stream: the unit of work the OoO core model executes.
//
// In the paper, Flexus executes real SPARC binaries; our substitution
// drives the same style of timing core with a statistically calibrated
// micro-op stream. Each micro-op carries the information the
// timing model needs: operation class (latency/FU binding), memory address,
// dependency distances (which earlier uops produce its inputs), branch
// behaviour, and the user/OS tag that the paper's UIPC metric requires.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace ntserv::cpu {

enum class UopType : std::uint8_t {
  kIntAlu,
  kIntMul,
  kIntDiv,
  kFpAlu,
  kFpMul,
  kFpDiv,
  kLoad,
  kStore,
  kBranch,
};

[[nodiscard]] constexpr bool is_memory(UopType t) {
  return t == UopType::kLoad || t == UopType::kStore;
}

struct MicroOp {
  UopType type = UopType::kIntAlu;
  /// Effective address for loads/stores (byte-granular).
  Addr mem_addr = 0;
  /// Program counter; drives I-side fetch-line accounting.
  Addr pc = 0;
  /// Resolved direction for branches.
  bool branch_taken = false;
  /// Register dependency distances: this uop reads the results of the
  /// uops `src_dist[i]` positions earlier in program order (0 = no input).
  std::uint16_t src_dist[2] = {0, 0};
  /// User-mode instruction (true) or OS-mode (false): UIPC counts only
  /// user instructions in the numerator (paper Sec. IV).
  bool is_user = true;
};

/// Infinite program-order producer of micro-ops (implemented by the
/// workload generators; also by trace replay).
class UopSource {
 public:
  virtual ~UopSource() = default;
  /// Produce the next micro-op in program order.
  virtual MicroOp next() = 0;
};

}  // namespace ntserv::cpu
