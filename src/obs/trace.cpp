#include "obs/trace.hpp"

#include <cstdio>

#include "obs/export.hpp"

namespace p2pfl::obs {

ArgValue::ArgValue(const char* s) : json(json_quote(s)) {}
ArgValue::ArgValue(const std::string& s) : json(json_quote(s)) {}
ArgValue::ArgValue(std::string_view s) : json(json_quote(s)) {}

ArgValue::ArgValue(double v) {
  char buf[40];
  // %.17g round-trips any double and formats identically across runs.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  json = buf;
}

bool TraceStream::push(TraceEvent ev) {
  while (events_.size() >= capacity_ && !events_.empty()) {
    events_.pop_front();  // ring: the newest events win
    ++dropped_;
  }
  if (capacity_ == 0) {
    ++dropped_;
    return false;
  }
  events_.push_back(std::move(ev));
  return true;
}

void TraceStream::instant(std::string_view cat, std::string_view name,
                          std::uint32_t tid, TraceArgs args) {
  if (!category_enabled(cat)) return;
  TraceEvent ev;
  ev.ts = *clock_;
  ev.tid = tid;
  ev.cat = cat;
  ev.name = name;
  ev.args = std::move(args);
  push(std::move(ev));
}

}  // namespace p2pfl::obs
