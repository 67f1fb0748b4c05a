// RingQueue: a FIFO queue in one power-of-two ring buffer.
//
// The transport's per-stream send queues (`pending`, `unacked`) live inline
// in a FlatTable entry, which moves when the table grows (DESIGN.md §11.6).
// A std::deque cannot sit there: libstdc++ allocates in its default and move
// constructors, and its move is not noexcept, so a growing vector would copy
// every queue. A RingQueue allocates nothing until its first push, moves as
// three words, and keeps its capacity once grown, so a stream that drains and
// refills allocates nothing. A popped or cleared element is reset to T{}, so
// it releases whatever it held.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace vsgc::util {

template <typename T>
class RingQueue {
 public:
  static constexpr std::size_t kMinCapacity = 8;

  RingQueue() = default;
  RingQueue(RingQueue&& other) noexcept
      : buf_(std::move(other.buf_)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  RingQueue& operator=(RingQueue&& other) noexcept {
    buf_ = std::move(other.buf_);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }

  T& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    (*this)[size_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    buf_[head_] = T{};
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  /// Empties the queue and keeps the capacity.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? kMinCapacity : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< size is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vsgc::util
