// Windowed extremum filters used by the congestion controls.
//
// Two implementations are provided:
//   * WindowedFilter — exact, monotone-ring-based; O(1) amortized and
//                      allocation-free once the ring reaches its
//                      high-water size. Copa's time windows use it.
//   * RoundMaxFilter — exact max over a window of whole rounds in
//                      `window + 1` fixed slots. BBR and BBRv2 use it for
//                      their bandwidth estimate.
// Tests cross-check RoundMaxFilter against WindowedFilter.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/ring_deque.hpp"
#include "util/units.hpp"

namespace bbrnash {

enum class FilterKind { kMax, kMin };

/// Exact moving max/min over a sliding time window.
///
/// Samples must be inserted with non-decreasing timestamps. `best()` returns
/// the extremum among samples within `window` of the most recent update
/// time. When empty, returns the supplied default value.
template <typename T>
class WindowedFilter {
 public:
  WindowedFilter(FilterKind kind, TimeNs window, T default_value)
      : kind_(kind), window_(window), default_(default_value) {}

  void update(TimeNs now, T value) {
    now_ = now;
    // Pop samples that this one dominates: they can never be the extremum
    // again while `value` is in the window.
    while (!samples_.empty() && !beats(samples_.back().value, value)) {
      samples_.pop_back();
    }
    samples_.push_back({now, value});
    expire(now);
  }

  /// Advances the clock without adding a sample (expires stale entries).
  void advance(TimeNs now) {
    now_ = now;
    expire(now);
  }

  [[nodiscard]] T best() const {
    return samples_.empty() ? default_ : samples_.front().value;
  }

  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Timestamp of the current extremum sample (kTimeNone when empty).
  [[nodiscard]] TimeNs best_time() const {
    return samples_.empty() ? kTimeNone : samples_.front().time;
  }

  void reset() { samples_.clear(); }

  void set_window(TimeNs window) {
    window_ = window;
    expire(now_);
  }
  [[nodiscard]] TimeNs window() const { return window_; }

 private:
  struct Sample {
    TimeNs time;
    T value;
  };

  // True when `a` strictly dominates `b` for this filter's direction.
  [[nodiscard]] bool beats(T a, T b) const {
    return kind_ == FilterKind::kMax ? a > b : a < b;
  }

  void expire(TimeNs now) {
    while (!samples_.empty() && samples_.front().time + window_ < now) {
      samples_.pop_front();
    }
  }

  FilterKind kind_;
  TimeNs window_;
  T default_;
  TimeNs now_ = 0;
  RingDeque<Sample> samples_;
};

/// Exact moving max over the last `window` rounds, in fixed storage.
///
/// The clock is a round count that never goes down. A WindowedFilter
/// clocked by it keeps a sample while `round + window >= now`, so samples
/// expire one whole round at a time and its max is the max of the
/// per-round maxima of rounds [now - window, now]. This filter keeps just
/// those `window + 1` maxima in a ring indexed by round, allocated once at
/// construction. An update within the current round is O(1); a new round
/// rescans the ring. After the same updates `best()` and `empty()` read
/// what WindowedFilter<double>(kMax, window, 0.0) reads, equal maxima
/// included (the newest wins).
class RoundMaxFilter {
 public:
  /// Throws std::invalid_argument when `window_rounds` is negative.
  explicit RoundMaxFilter(int window_rounds)
      : slots_(slot_count(window_rounds)) {}

  /// Pre: `round` >= the round of every earlier update.
  void update(std::uint64_t round, double value) {
    if (round == round_) {
      Slot& cur = slots_[cur_];
      if (value >= cur.max) cur.max = value;
      if (value >= best_) best_ = value;
      return;
    }
    assert(empty() || round > round_);
    round_ = round;
    cur_ = round % slots_.size();
    slots_[cur_] = {round, value};
    rescan();
  }

  /// The window's max; 0 before the first update.
  [[nodiscard]] double best() const { return best_; }

  [[nodiscard]] bool empty() const { return round_ == kNoRound; }

 private:
  static constexpr std::uint64_t kNoRound = ~std::uint64_t{0};

  struct Slot {
    std::uint64_t round = kNoRound;
    double max = 0.0;
  };

  static std::size_t slot_count(int window_rounds) {
    if (window_rounds < 0) {
      throw std::invalid_argument("RoundMaxFilter: negative window");
    }
    return static_cast<std::size_t>(window_rounds) + 1;
  }

  // Walks the ring from the oldest round the window can hold (the slot
  // after the current one) to the current round, so that among equal
  // maxima the newest is kept.
  void rescan() {
    const std::size_t n = slots_.size();
    best_ = slots_[cur_].max;
    std::size_t i = cur_;
    for (std::size_t k = 0; k < n; ++k) {
      i = i + 1 == n ? 0 : i + 1;
      const Slot& s = slots_[i];
      if (s.round <= round_ && round_ - s.round < n && s.max >= best_) {
        best_ = s.max;
      }
    }
  }

  std::vector<Slot> slots_;
  std::uint64_t round_ = kNoRound;  ///< round of the latest update
  std::size_t cur_ = 0;             ///< its slot
  double best_ = 0.0;
};

}  // namespace bbrnash
