// Hop sinks: where a pipeline element (DelayLine, BottleneckLink,
// Receiver) hands each item on.
//
// Each element takes its sink type as a template parameter. The default
// is a std::function, settable at any time and empty until set, which
// keeps ad-hoc wiring (tests, tools, examples) simple. The production
// dumbbell (execute_scenario) instead plugs in small structs whose
// operator() calls the next element directly, so a packet's hop chain
// inlines with no type-erased call in between.
#pragma once

#include <type_traits>

namespace bbrnash {

/// Hands `item` to `sink`; an empty type-erased sink drops it.
template <typename Sink, typename T>
void call_sink(const Sink& sink, const T& item) {
  if constexpr (std::is_constructible_v<bool, const Sink&>) {
    if (!sink) return;
  }
  sink(item);
}

}  // namespace bbrnash
