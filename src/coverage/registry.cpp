#include "coverage/registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace mabfuzz::coverage {

PointId Registry::add(std::string name) {
  if (frozen_) {
    std::abort();  // registration after freeze() is a programming error
  }
  const auto id = static_cast<PointId>(size_);
  entries_.push_back(Entry{std::move(name), id, 1, false});
  ++size_;
  return id;
}

PointId Registry::add_array(std::string_view prefix, std::size_t count) {
  if (frozen_) {
    std::abort();
  }
  const auto base = static_cast<PointId>(size_);
  if (count > 0) {
    entries_.push_back(Entry{std::string(prefix), base, count, true});
    size_ += count;
  }
  return base;
}

std::string Registry::name(PointId id) const {
  if (id >= size_) {
    throw std::out_of_range("coverage::Registry::name: id " + std::to_string(id) +
                            " >= " + std::to_string(size_));
  }
  // The last entry starting at or below `id` holds it.
  const auto entry = std::prev(std::upper_bound(
      entries_.begin(), entries_.end(), id,
      [](PointId value, const Entry& e) { return value < e.first; }));
  if (!entry->array) {
    return entry->name;
  }
  return entry->name + "[" + std::to_string(id - entry->first) + "]";
}

}  // namespace mabfuzz::coverage
