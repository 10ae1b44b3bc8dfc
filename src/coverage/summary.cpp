#include "coverage/summary.hpp"

#include <algorithm>
#include <map>

namespace mabfuzz::coverage {

namespace {

std::string_view stem_of(std::string_view name) {
  return name.substr(0, name.find('['));
}

std::string_view unit_of(std::string_view name) {
  return name.substr(0, name.find('/'));
}

std::size_t covered_in(const Map& covered, const Registry::Entry& entry) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < entry.count; ++i) {
    n += covered.test(entry.first + static_cast<PointId>(i)) ? 1 : 0;
  }
  return n;
}

// Groups walk the registry's entries, not its points: every point of an
// array shares its registered name's stem and unit.
std::vector<GroupSummary> summarize_by(const Registry& registry, const Map& covered,
                                       std::string_view (*key)(std::string_view)) {
  std::map<std::string, GroupSummary> groups;
  for (const Registry::Entry& entry : registry.entries()) {
    GroupSummary& g = groups[std::string(key(entry.name))];
    g.total += entry.count;
    g.covered += covered_in(covered, entry);
  }
  std::vector<GroupSummary> out;
  out.reserve(groups.size());
  for (auto& [name, group] : groups) {
    group.group = name;
    out.push_back(std::move(group));
  }
  std::sort(out.begin(), out.end(), [](const GroupSummary& a, const GroupSummary& b) {
    const std::size_t ua = a.total - a.covered;
    const std::size_t ub = b.total - b.covered;
    return ua != ub ? ua > ub : a.group < b.group;
  });
  return out;
}

}  // namespace

std::vector<GroupSummary> summarize_groups(const Registry& registry,
                                           const Map& covered) {
  return summarize_by(registry, covered, stem_of);
}

std::vector<GroupSummary> summarize_units(const Registry& registry,
                                          const Map& covered) {
  return summarize_by(registry, covered, unit_of);
}

}  // namespace mabfuzz::coverage
