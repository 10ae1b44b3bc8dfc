#pragma once
// Runtime coverage context: binds a frozen Registry to the per-test hit
// map that substrate components mark during execution.

#include "coverage/map.hpp"
#include "coverage/registry.hpp"

namespace mabfuzz::coverage {

class Context {
 public:
  Context() = default;

  /// Construction phase: components register points through this.
  [[nodiscard]] Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const Registry& registry() const noexcept { return registry_; }

  /// Ends the construction phase and sizes the hit map.
  void freeze() {
    registry_.freeze();
    map_.resize(registry_.size());
  }

  /// Clears the per-test map (called at the start of every test).
  void begin_test() noexcept { map_.clear(); }

  /// Marks one point hit in the current test.
  void hit(PointId id) noexcept { map_.set(id); }

  /// Marks `base + offset` hit; offset is the instance index of a
  /// replicated structure (cache set, BTB entry, ...).
  void hit(PointId base, std::size_t offset) noexcept {
    map_.set(base + static_cast<PointId>(offset));
  }

  /// Marks `base + offset + i` hit for every set bit i of `mask`: a block
  /// of sub-points (the six conditions of one mnemonic) as one OR.
  void hit_mask(PointId base, std::size_t offset, std::uint64_t mask) noexcept {
    map_.set_bits(base + static_cast<PointId>(offset), mask);
  }

  [[nodiscard]] const Map& test_map() const noexcept { return map_; }

  /// Moves the per-test map into `dst` via an O(1) storage swap —
  /// observationally `dst = test_map()`, without the word copy.
  /// The context re-sizes its own map when the swapped-in storage does not
  /// match the universe (a caller's first, empty outcome buffer), so the
  /// next begin_test() always starts from a correctly sized map.
  void take_test_map(Map& dst) {
    dst.swap(map_);
    if (map_.universe() != registry_.size()) {
      map_.resize(registry_.size());
    }
  }
  [[nodiscard]] std::size_t universe() const noexcept { return registry_.size(); }

 private:
  Registry registry_;
  Map map_;
};

}  // namespace mabfuzz::coverage
