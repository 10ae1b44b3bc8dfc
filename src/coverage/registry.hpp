#pragma once
// Coverage-point registry. Substrate components register their branch
// coverage points at construction time (one point per control-decision
// edge, replicated structures register replicated points), producing the
// dense id space the coverage maps are sized to — the C++ analogue of the
// branch-coverage instrumentation a VCS/Verilator flow compiles into RTL.
//
// The registry keeps one entry per registration, not one string per point:
// a pipeline registers 12k-16k points in a few dozen calls, and their names
// are only read by reports, which either walk the entries or build the one
// name they need.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mabfuzz::coverage {

/// Dense id of one coverage point.
using PointId = std::uint32_t;

class Registry {
 public:
  /// One registration: a single point named `name`, or `count` points
  /// "<name>[0]".."<name>[count-1]" from an array.
  struct Entry {
    std::string name;
    PointId first = 0;
    std::size_t count = 1;
    bool array = false;
  };

  /// Registers a single named point; returns its id.
  PointId add(std::string name);

  /// Registers `count` points "<prefix>[0]".."<prefix>[count-1]";
  /// returns the id of element 0 (ids are consecutive).
  PointId add_array(std::string_view prefix, std::size_t count);

  /// Number of registered points (|C| in the paper's EXP3 normalisation).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The name of point `id`, built on demand. Throws std::out_of_range for
  /// an id at or above size().
  [[nodiscard]] std::string name(PointId id) const;

  /// The registrations in id order; their ranges tile [0, size()).
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Freezes the registry; further registration aborts. Called once the
  /// core finishes construction so the map size is stable.
  void freeze() noexcept { frozen_ = true; }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

 private:
  std::vector<Entry> entries_;
  std::size_t size_ = 0;
  bool frozen_ = false;
};

}  // namespace mabfuzz::coverage
