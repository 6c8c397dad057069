#include "obs/export.hpp"

#include <cstdio>
#include <fstream>
#include <set>

namespace p2pfl::obs {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_args(std::string& out, const TraceArgs& args) {
  out += "\"args\":{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ',';
    first = false;
    out += json_quote(key);
    out += ':';
    out += value.json;
  }
  out += '}';
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string metrics_jsonl(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [name, c] : registry.counters()) {
    out += "{\"type\":\"counter\",\"name\":" + json_quote(name) +
           ",\"value\":" + std::to_string(c.value()) + "}\n";
  }
  for (const auto& [name, g] : registry.gauges()) {
    out += "{\"type\":\"gauge\",\"name\":" + json_quote(name) +
           ",\"value\":" + std::to_string(g.value()) + "}\n";
  }
  for (const auto& [name, h] : registry.histograms()) {
    out += "{\"type\":\"histogram\",\"name\":" + json_quote(name) +
           ",\"count\":" + std::to_string(h.count()) +
           ",\"sum\":" + fmt_double(h.sum()) +
           ",\"min\":" + fmt_double(h.min()) +
           ",\"max\":" + fmt_double(h.max()) +
           ",\"p50\":" + fmt_double(h.quantile(0.50)) +
           ",\"p90\":" + fmt_double(h.quantile(0.90)) +
           ",\"p99\":" + fmt_double(h.quantile(0.99)) + ",\"buckets\":[";
    const auto& bounds = h.bounds();
    const auto& counts = h.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"le\":";
      out += i < bounds.size() ? fmt_double(bounds[i]) : "\"inf\"";
      out += ",\"count\":" + std::to_string(counts[i]) + "}";
    }
    out += "]}\n";
  }
  return out;
}

namespace {

std::uint32_t span_tid(PeerId peer) { return peer == kNoPeer ? 0 : peer; }

/// Shared body of the two chrome_trace_json overloads; `spans` optional.
std::string chrome_trace_json_impl(const TraceStream& trace,
                                   const SpanRecorder* spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Name the process and one track per distinct tid so the viewer shows
  // "peer N" rows instead of bare numbers.
  sep();
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"p2pfl simulation (virtual time)\"}}";
  std::set<std::uint32_t> tids;
  for (const TraceEvent& ev : trace.events()) tids.insert(ev.tid);
  if (spans != nullptr) {
    for (const auto& [id, s] : spans->all()) tids.insert(span_tid(s.peer));
  }
  for (std::uint32_t tid : tids) {
    sep();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"peer " +
           std::to_string(tid) + "\"}}";
  }

  for (const TraceEvent& ev : trace.events()) {
    sep();
    out += "{\"name\":" + json_quote(ev.name) +
           ",\"cat\":" + json_quote(ev.cat) +
           ",\"ph\":\"i\",\"ts\":" + std::to_string(ev.ts) +
           ",\"pid\":1,\"tid\":" + std::to_string(ev.tid) +
           ",\"s\":\"t\",";
    append_args(out, ev.args);
    out += '}';
  }

  if (trace.dropped() > 0) {
    // Surface ring evictions in the viewer; absent when under the cap so
    // bounded runs keep byte-identical golden traces.
    sep();
    out += "{\"name\":\"trace.dropped_events\",\"cat\":\"sim\",\"ph\":\"i\","
           "\"ts\":0,\"pid\":1,\"tid\":0,\"s\":\"g\",\"args\":{\"count\":" +
           std::to_string(trace.dropped()) + "}}";
  }

  if (spans != nullptr) {
    for (const auto& [id, s] : spans->all()) {
      sep();
      out += "{\"name\":" + json_quote(s.name) +
             ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":" +
             std::to_string(s.start) +
             ",\"dur\":" + std::to_string(s.end - s.start) +
             ",\"pid\":1,\"tid\":" + std::to_string(span_tid(s.peer)) +
             ",\"args\":{\"id\":" + std::to_string(s.id) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"closed_by\":" + std::to_string(s.closed_by) +
             ",\"round\":" + std::to_string(s.round) + ",\"kind\":" +
             json_quote(span_kind_name(s.kind)) +
             ",\"aborted\":" + (s.aborted ? "true" : "false") + "}}";
    }
    // Flow events: one arrow per parent -> child edge, drawn from the
    // child's start on the parent's track to the child's track.
    for (const auto& [id, s] : spans->all()) {
      const SpanRecord* parent =
          s.parent != kNoSpan ? spans->find(s.parent) : nullptr;
      if (parent == nullptr) continue;
      const std::string flow_id = std::to_string(s.id);
      sep();
      out += "{\"name\":\"causes\",\"cat\":\"span\",\"ph\":\"s\",\"id\":" +
             flow_id + ",\"ts\":" + std::to_string(s.start) +
             ",\"pid\":1,\"tid\":" + std::to_string(span_tid(parent->peer)) +
             ",\"args\":{}}";
      sep();
      out += "{\"name\":\"causes\",\"cat\":\"span\",\"ph\":\"f\",\"bp\":"
             "\"e\",\"id\":" +
             flow_id + ",\"ts\":" + std::to_string(s.start) +
             ",\"pid\":1,\"tid\":" + std::to_string(span_tid(s.peer)) +
             ",\"args\":{}}";
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace

std::string chrome_trace_json(const TraceStream& trace) {
  return chrome_trace_json_impl(trace, nullptr);
}

std::string chrome_trace_json(const TraceStream& trace,
                              const SpanRecorder& spans) {
  return chrome_trace_json_impl(trace, &spans);
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(f);
}

}  // namespace p2pfl::obs
