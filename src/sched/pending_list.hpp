// Pending task indices of one stage.
//
// Semantically a std::vector<std::int32_t> under the three operations
// the scheduler needs — iterate in order, erase one value, push_back —
// but with O(1) erase/contains via an intrusive doubly-linked list over
// a dense per-index node array. Iteration order is exactly what the
// vector discipline would produce: erase preserves the relative order
// of the survivors and push_back appends, so swapping the
// representation changes no scheduling decision.
//
// Each index also carries its pending position: assign_all gives index i
// position i, and every push_back the next unused one. Positions only
// grow, so among pending indices ascending position is iteration order.
// The delay policies' pending-task index keys its entries on it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace dagon {

class PendingList {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::int32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::int32_t*;
    using reference = std::int32_t;

    const_iterator() = default;
    const_iterator(const PendingList* list, std::int32_t cur)
        : list_(list), cur_(cur) {}

    [[nodiscard]] std::int32_t operator*() const { return cur_; }
    const_iterator& operator++() {
      cur_ = list_->next_[static_cast<std::size_t>(cur_)];
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    [[nodiscard]] bool operator==(const const_iterator& o) const {
      return cur_ == o.cur_;
    }
    [[nodiscard]] bool operator!=(const const_iterator& o) const {
      return cur_ != o.cur_;
    }

   private:
    const PendingList* list_ = nullptr;
    std::int32_t cur_ = -1;
  };

  PendingList() = default;

  /// Initializes to the full set {0, 1, ..., n-1} in ascending order.
  void assign_all(std::int32_t n) {
    DAGON_CHECK(n >= 0);
    const auto un = static_cast<std::size_t>(n);
    next_.resize(un);
    prev_.resize(un);
    pos_.resize(un);
    in_.assign(un, 1);
    for (std::int32_t i = 0; i < n; ++i) {
      next_[static_cast<std::size_t>(i)] = (i + 1 < n) ? i + 1 : -1;
      prev_[static_cast<std::size_t>(i)] = i - 1;
      pos_[static_cast<std::size_t>(i)] = i;
    }
    head_ = n > 0 ? 0 : -1;
    tail_ = n - 1;
    size_ = un;
    end_pos_ = n;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::int32_t front() const {
    DAGON_CHECK(head_ >= 0);
    return head_;
  }

  [[nodiscard]] bool contains(std::int32_t index) const {
    return index >= 0 && static_cast<std::size_t>(index) < in_.size() &&
           in_[static_cast<std::size_t>(index)] != 0;
  }

  /// Position `index` was last given (see the file comment); meaningful
  /// while contains(index).
  [[nodiscard]] std::int32_t position(std::int32_t index) const {
    return pos_[static_cast<std::size_t>(index)];
  }
  /// One past the latest position given out.
  [[nodiscard]] std::int32_t end_position() const { return end_pos_; }

  /// Calls fn(index) for each pending index at position `from` or later,
  /// in order. They form a suffix of the list.
  template <typename Fn>
  void for_each_since(std::int32_t from, Fn&& fn) const {
    std::int32_t first = tail_;
    while (first >= 0 && pos_[static_cast<std::size_t>(first)] >= from) {
      first = prev_[static_cast<std::size_t>(first)];
    }
    first = first >= 0 ? next_[static_cast<std::size_t>(first)] : head_;
    for (std::int32_t i = first; i >= 0;
         i = next_[static_cast<std::size_t>(i)]) {
      fn(i);
    }
  }

  void erase(std::int32_t index) {
    DAGON_CHECK(contains(index));
    const auto i = static_cast<std::size_t>(index);
    const std::int32_t p = prev_[i];
    const std::int32_t n = next_[i];
    if (p >= 0) {
      next_[static_cast<std::size_t>(p)] = n;
    } else {
      head_ = n;
    }
    if (n >= 0) {
      prev_[static_cast<std::size_t>(n)] = p;
    } else {
      tail_ = p;
    }
    in_[i] = 0;
    --size_;
  }

  void push_back(std::int32_t index) {
    DAGON_CHECK(index >= 0 &&
                static_cast<std::size_t>(index) < in_.size() &&
                !contains(index));
    const auto i = static_cast<std::size_t>(index);
    DAGON_CHECK(end_pos_ < std::numeric_limits<std::int32_t>::max());
    prev_[i] = tail_;
    next_[i] = -1;
    pos_[i] = end_pos_++;
    if (tail_ >= 0) {
      next_[static_cast<std::size_t>(tail_)] = index;
    } else {
      head_ = index;
    }
    tail_ = index;
    in_[i] = 1;
    ++size_;
  }

  void clear() {
    std::fill(in_.begin(), in_.end(), static_cast<char>(0));
    head_ = -1;
    tail_ = -1;
    size_ = 0;
  }

  [[nodiscard]] const_iterator begin() const {
    return const_iterator{this, head_};
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator{this, -1};
  }

 private:
  std::vector<std::int32_t> next_;
  std::vector<std::int32_t> prev_;
  std::vector<std::int32_t> pos_;  // pending position per index
  std::vector<char> in_;  // membership flag per index
  std::int32_t head_ = -1;
  std::int32_t tail_ = -1;
  std::size_t size_ = 0;
  std::int32_t end_pos_ = 0;
};

}  // namespace dagon
