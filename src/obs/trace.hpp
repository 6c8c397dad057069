// Structured trace-event stream on virtual time.
//
// A TraceEvent is one timestamped protocol observation ("peer 7 won the
// raft/sg1 election for term 3"), recorded as a Chrome trace_event
// instant, so a recorded stream can be opened directly in
// about://tracing (or https://ui.perfetto.dev) with one row per peer.
// The stream records instants only; spans reach the Chrome trace
// through their own path (obs/span.hpp). Events carry the
// simulator's virtual timestamp — never the wall clock — so identical
// seeds serialize to byte-identical traces (the golden-trace test relies
// on this).
//
// Recording is off by default and costs one branch per call site; when
// enabled, individual categories ("sim", "net", "raft", "agg") can be
// selected to keep hot-path event floods (per-message, per-dispatch) out
// of protocol-level traces.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace p2pfl::obs {

/// One trace argument value, pre-rendered as a JSON literal so the
/// event stream is cheap to store and deterministic to serialize.
struct ArgValue {
  std::string json;

  ArgValue(const char* s);
  ArgValue(const std::string& s);
  ArgValue(std::string_view s);
  ArgValue(bool b) : json(b ? "true" : "false") {}
  ArgValue(double v);
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T> &&
                                                    !std::is_same_v<T, bool>>>
  ArgValue(T v) : json(std::to_string(v)) {}
};

using TraceArgs = std::vector<std::pair<std::string, ArgValue>>;

struct TraceEvent {
  SimTime ts = 0;        // virtual microseconds
  std::uint32_t tid = 0; // track: peer id (or 0 for system-wide events)
  std::string cat;
  std::string name;
  TraceArgs args;
};

class TraceStream {
 public:
  /// `clock` points at the owning simulator's virtual time.
  explicit TraceStream(const SimTime* clock) : clock_(clock) {}

  /// Master switch; with no categories selected, everything records.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Restrict recording to the given category (callable repeatedly).
  void enable_category(const std::string& cat) { categories_.insert(cat); }
  bool category_enabled(std::string_view cat) const {
    if (!enabled_) return false;
    if (categories_.empty()) return true;
    return categories_.count(std::string(cat)) > 0;
  }

  /// Instantaneous event at the current virtual time.
  void instant(std::string_view cat, std::string_view name,
               std::uint32_t tid, TraceArgs args = {});

  const std::deque<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  /// Oldest events evicted after the capacity cap was hit (ring
  /// semantics: the newest `capacity` events are always retained).
  std::uint64_t dropped() const { return dropped_; }
  void set_capacity(std::size_t cap) { capacity_ = cap; }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  bool push(TraceEvent ev);

  const SimTime* clock_;
  bool enabled_ = false;
  std::set<std::string> categories_;
  /// Ring buffer: at the cap, each push evicts the oldest event. Under
  /// the cap the stream is identical to an unbounded one, so bounded
  /// runs keep their golden traces byte-identical.
  std::deque<TraceEvent> events_;
  /// Memory backstop for long traced runs (~1M events ≈ a few hundred MB
  /// of JSON; deterministic because it depends only on the event count).
  std::size_t capacity_ = 1u << 20;
  std::uint64_t dropped_ = 0;
};

}  // namespace p2pfl::obs
