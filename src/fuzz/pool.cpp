#include "fuzz/pool.hpp"

#include <algorithm>

namespace mabfuzz::fuzz {

void TestPool::push(TestCase test) {
  if (queue_.size() >= max_size_ && !queue_.empty()) {
    queue_.pop_front();
    ++dropped_;
  }
  queue_.push_back(std::move(test));
}

std::optional<TestCase> TestPool::pop() {
  if (queue_.empty()) {
    return std::nullopt;
  }
  TestCase test = std::move(queue_.front());
  queue_.pop_front();
  return test;
}

void TestPool::save_state(std::string& out) const {
  common::put_u64(out, queue_.size());
  for (const TestCase& test : queue_) {
    put_test(out, test);
  }
  common::put_u64(out, dropped_);
}

void TestPool::restore_state(common::ByteReader& in) {
  // push() drops only from a non-empty queue, so even a cap of 0 holds one.
  const std::uint64_t size =
      in.count("pool size", std::max<std::size_t>(max_size_, 1));
  queue_.clear();
  for (std::uint64_t i = 0; i < size; ++i) {
    queue_.push_back(read_test(in));
  }
  dropped_ = in.u64("pool dropped count");
}

}  // namespace mabfuzz::fuzz
