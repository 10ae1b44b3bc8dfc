#pragma once
// Generic string-keyed factory registry: the shared mechanics behind
// mab::BanditRegistry and fuzz::FuzzerRegistry (thread-safe add/lookup,
// duplicate rejection, and miss errors that list every registered name).
// The domain registries derive from one of these and add their create()
// signature and self-registration of built-ins.

#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mabfuzz::common {

template <typename FactoryT>
class NamedRegistry {
 public:
  using Factory = FactoryT;

  /// `kind`/`kind_plural` name the registered things in error messages
  /// ("bandit policy" / "bandit policies").
  NamedRegistry(std::string kind, std::string kind_plural)
      : kind_(std::move(kind)), kind_plural_(std::move(kind_plural)) {}

  /// Registers `factory` under `name`; throws std::invalid_argument if the
  /// name is already taken.
  void add(std::string name, Factory factory) {
    const std::scoped_lock guard(lock_);
    if (factories_.contains(name)) {
      throw std::invalid_argument(kind_ + " '" + name +
                                  "' is already registered");
    }
    factories_.emplace(std::move(name), std::move(factory));
  }

  /// The factory registered under `name`, copied out so callers invoke it
  /// without holding the registry lock.
  /// Throws std::invalid_argument listing all known names on a miss.
  [[nodiscard]] Factory lookup(std::string_view name) const {
    const std::scoped_lock guard(lock_);
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
      std::string message = "unknown " + kind_ + " '" + std::string(name) +
                            "'; known " + kind_plural_ + ":";
      for (const auto& [known, factory] : factories_) {
        message += " " + known;
      }
      throw std::invalid_argument(message);
    }
    return it->second;
  }

  [[nodiscard]] bool contains(std::string_view name) const {
    const std::scoped_lock guard(lock_);
    return factories_.contains(name);
  }

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    const std::scoped_lock guard(lock_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) {
      out.push_back(name);
    }
    return out;
  }

  /// Removes a registration (test hygiene). Returns false if absent.
  bool remove(std::string_view name) {
    const std::scoped_lock guard(lock_);
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
      return false;
    }
    factories_.erase(it);
    return true;
  }

 private:
  std::string kind_;
  std::string kind_plural_;
  mutable std::mutex lock_;
  std::map<std::string, Factory, std::less<>> factories_;
};

}  // namespace mabfuzz::common
