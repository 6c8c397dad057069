#include "net/link_table.hpp"

#include <algorithm>

namespace p2pfl::net {

LinkTable::LinkTable(obs::Observability& obs,
                     std::uint64_t egress_bytes_per_sec)
    : obs_(obs), egress_cap_(egress_bytes_per_sec) {}

void LinkTable::register_counters() {
  if (stall_windows_ != nullptr) return;
  stall_windows_ = &obs_.metrics.counter("chaos.transport.stall_windows");
  throttle_windows_ =
      &obs_.metrics.counter("chaos.transport.throttle_windows");
  stalled_frames_ = &obs_.metrics.counter("chaos.transport.stalled_frames");
  throttled_frames_ =
      &obs_.metrics.counter("chaos.transport.throttled_frames");
}

void LinkTable::stall_link(PeerId from, PeerId to, SimTime until) {
  register_counters();
  SimTime& u = stalls_[{from, to}];
  u = std::max(u, until);
  stall_windows_->add(1);
}

void LinkTable::stall_pair(PeerId a, PeerId b, SimTime until) {
  stall_link(a, b, until);
  stall_link(b, a, until);
}

void LinkTable::throttle_peer(PeerId peer, std::uint64_t bytes_per_sec,
                              SimTime until) {
  register_counters();
  Throttle& t = throttles_[peer];
  t.bytes_per_sec = bytes_per_sec;
  t.until = std::max(t.until, until);
  throttle_windows_->add(1);
}

void LinkTable::clear(SimTime now) {
  stalls_.clear();
  throttles_.clear();
  std::erase_if(release_floor_,
                [now](const auto& floor) { return floor.second <= now; });
}

SimTime LinkTable::stall_until(PeerId from, PeerId to, SimTime now) {
  auto it = stalls_.find({from, to});
  if (it == stalls_.end()) return now;
  if (it->second <= now) {
    stalls_.erase(it);
    return now;
  }
  return it->second;
}

std::uint64_t LinkTable::rate_of(PeerId from, SimTime now) {
  auto it = throttles_.find(from);
  if (it == throttles_.end()) return egress_cap_;
  if (it->second.until > now) return it->second.bytes_per_sec;
  throttles_.erase(it);
  return egress_cap_;
}

SimTime LinkTable::transmit(PeerId from, std::uint64_t bytes, SimTime now,
                            SimTime ready) {
  const std::uint64_t rate = rate_of(from, now);
  if (rate == 0) return ready;
  if (throttles_.count(from) > 0) throttled_frames_->add(1);
  SimTime& free_at = free_at_[from];
  free_at = std::max(free_at, ready) +
            static_cast<SimDuration>(bytes * 1'000'000ULL / rate);
  return free_at;
}

SimDuration LinkTable::frame_delay(PeerId from, PeerId to,
                                   std::uint64_t bytes, SimTime now) {
  if (!active() && release_floor_.empty()) return 0;

  SimTime release = stall_until(from, to, now);
  if (release > now) stalled_frames_->add(1);
  release = transmit(from, bytes, now, release);

  // FIFO floor: never let this frame release before an earlier one on
  // the same directed link.
  const Link link{from, to};
  if (auto floor = release_floor_.find(link); floor != release_floor_.end()) {
    release = std::max(release, floor->second);
  }
  if (release > now) {
    release_floor_.insert_or_assign(link, release);
  } else {
    release_floor_.erase(link);
  }
  return release - now;
}

SimTime LinkTable::writable_at(PeerId from, PeerId to, SimTime now) {
  SimTime at = stall_until(from, to, now);
  if (at > now) stalled_frames_->add(1);
  auto it = free_at_.find(from);
  if (it != free_at_.end() && rate_of(from, now) > 0) {
    at = std::max(at, it->second);
  }
  return at;
}

void LinkTable::note_written(PeerId from, std::uint64_t bytes,
                             SimTime now) {
  transmit(from, bytes, now, now);
}

}  // namespace p2pfl::net
