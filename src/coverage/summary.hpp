#pragma once
// Coverage-composition reporting: groups the registry's points by their
// name prefix (the part before '/' and any '[index]' suffix) and reports
// covered/total per group. Used by the inspection tooling and examples to
// show *where* coverage is and is not landing — the view a DV engineer
// gets from a coverage database ranking report.

#include <string>
#include <vector>

#include "coverage/map.hpp"
#include "coverage/registry.hpp"

namespace mabfuzz::coverage {

struct GroupSummary {
  std::string group;      // e.g. "dcache/read_hit_set"
  std::size_t total = 0;
  std::size_t covered = 0;

  [[nodiscard]] double fraction() const noexcept {
    return total == 0 ? 0.0 : static_cast<double>(covered) / static_cast<double>(total);
  }
};

/// Summarises `covered` against `registry`, one row per distinct point-name
/// stem (array indices stripped), ordered by descending uncovered count.
[[nodiscard]] std::vector<GroupSummary> summarize_groups(const Registry& registry,
                                                         const Map& covered);

/// Same, collapsed to the top-level unit (the part of the registered name
/// before the first '/').
[[nodiscard]] std::vector<GroupSummary> summarize_units(const Registry& registry,
                                                        const Map& covered);

}  // namespace mabfuzz::coverage
