// SharedArray: an immutable array in one refcounted block.
//
// The flat bodies of View, ProcessSet and the sync message's cut (DESIGN.md
// §11.5) are built once, never written again, and handed on by copy: a copy
// bumps a refcount and never copies the elements. The elements sit in the
// same allocation as the refcount (std::make_shared<T[]>), so building a
// body costs one allocation however many elements it holds. The empty array
// holds no body.
//
// Equality and ordering are element-wise (lexicographic), so a sorted body
// compares exactly as the std::set or std::map it stands for; arrays that
// share a body skip the walk.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <utility>

namespace vsgc::util {

template <class T>
class SharedArray {
 public:
  using value_type = T;
  using const_iterator = const T*;

  /// The empty array: no body.
  SharedArray() = default;

  /// A copy of [first, last).
  template <std::forward_iterator It>
  SharedArray(It first, It last)
      : SharedArray(build(static_cast<std::size_t>(std::distance(first, last)),
                          [&](T* out) { std::copy(first, last, out); })) {}

  SharedArray(std::initializer_list<T> items)
      : SharedArray(items.begin(), items.end()) {}

  /// An array of `n` elements that `fill(T* out)` writes, the only writes
  /// the elements ever see. `fill` gets value-initialised elements.
  template <class Fill>
  static SharedArray build(std::size_t n, Fill&& fill) {
    SharedArray a;
    if (n == 0) return a;
    std::shared_ptr<T[]> body = std::make_shared<T[]>(n);
    fill(body.get());
    a.body_ = std::move(body);
    a.size_ = n;
    return a;
  }

  const T* begin() const { return body_.get(); }
  const T* end() const { return body_.get() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](std::size_t i) const { return body_[i]; }

  /// True when both arrays hold one body (an array and its copies do).
  bool shares_body_with(const SharedArray& o) const { return body_ == o.body_; }
  /// How many arrays hold this one's body; 0 for the empty array.
  long use_count() const { return body_.use_count(); }

  friend bool operator==(const SharedArray& a, const SharedArray& b) {
    return a.size_ == b.size_ &&
           (a.body_ == b.body_ || std::equal(a.begin(), a.end(), b.begin()));
  }
  friend auto operator<=>(const SharedArray& a, const SharedArray& b) {
    if (a.body_ == b.body_ && a.size_ == b.size_) {
      return std::compare_three_way_result_t<T>{std::strong_ordering::equal};
    }
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  std::shared_ptr<const T[]> body_{};
  std::size_t size_ = 0;
};

}  // namespace vsgc::util
