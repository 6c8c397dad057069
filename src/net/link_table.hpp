// The link shaping both transports honor at the frame boundary.
//
// Every net::Network owns one LinkTable, holding
//  * per directed link, half-open stall windows (a direction of a link
//    silently stops moving frames) and a FIFO release floor, so a frame
//    sent after a stall is cleared never overtakes frames still held on
//    the same link;
//  * per peer, one egress serializer: a frame starts once the sender's
//    earlier frames have drained and takes bytes / rate to transmit, at a
//    throttle's rate inside its window (the slow-writer fault) and at
//    NetworkConfig::egress_bytes_per_sec otherwise (0: unserialized).
//
// On the simulator the Network adds frame_delay() to the latency it
// models. TcpTransport asks writable_at() before writing a frame and
// re-arms its flush timer until the hold clears, so held frames queue in
// the bounded outbound queue like behind a real slow or wedged peer, and
// charges what it wrote with note_written().
//
// The table draws no randomness, so it never perturbs a seeded run. Its
// four chaos.transport.* counters register at the first stall or
// throttle window: runs without transport faults add no metrics. Like
// the rest of the Network it is touched only on the callback thread.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "common/types.hpp"
#include "obs/obs.hpp"

namespace p2pfl::net {

class LinkTable {
 public:
  LinkTable(obs::Observability& obs, std::uint64_t egress_bytes_per_sec);

  /// Stall one direction of a link: frames from->to are held until
  /// `until` (transport time). Extending an active window is fine.
  void stall_link(PeerId from, PeerId to, SimTime until);
  /// Stall both directions (a half-open TCP peer or a reset outage).
  void stall_pair(PeerId a, PeerId b, SimTime until);

  /// Clamp `peer`'s egress to `bytes_per_sec` until `until`.
  void throttle_peer(PeerId peer, std::uint64_t bytes_per_sec, SimTime until);

  /// Drop every stall and throttle (heal). Release floors still in the
  /// future stay, so frames already held keep their order.
  void clear(SimTime now);

  /// --- sim path: per-frame extra delivery delay ----------------------
  /// Extra hold (>= 0) for a frame of `bytes` sent now on from->to.
  /// Charges the frame to the sender's serializer and advances the
  /// link's FIFO release floor.
  SimDuration frame_delay(PeerId from, PeerId to, std::uint64_t bytes,
                          SimTime now);

  /// --- tcp path: write gating -----------------------------------------
  /// Earliest transport time the from->to connection may write (now if
  /// unconstrained). The TCP flush loop re-arms a timer at this time.
  SimTime writable_at(PeerId from, PeerId to, SimTime now);
  /// Charge `bytes` actually written by `from` to its serializer.
  void note_written(PeerId from, std::uint64_t bytes, SimTime now);

  /// Any stall, throttle or egress cap installed: frames may be held.
  bool active() const {
    return !stalls_.empty() || !throttles_.empty() || egress_cap_ > 0;
  }

 private:
  struct Throttle {
    std::uint64_t bytes_per_sec = 0;
    SimTime until = 0;
  };

  using Link = std::pair<PeerId, PeerId>;

  void register_counters();
  /// End of the active stall on from->to, or `now` (an expired window
  /// is erased on the way).
  SimTime stall_until(PeerId from, PeerId to, SimTime now);
  /// The rate `from`'s serializer runs at now: an active throttle's,
  /// else the egress cap (0: unserialized). Erases an expired throttle.
  std::uint64_t rate_of(PeerId from, SimTime now);
  /// Charge `bytes` to `from`'s serializer, starting no earlier than
  /// `ready`; returns when they have drained (`ready` if unserialized).
  SimTime transmit(PeerId from, std::uint64_t bytes, SimTime now,
                   SimTime ready);

  obs::Observability& obs_;
  const std::uint64_t egress_cap_;
  std::map<Link, SimTime> stalls_;
  std::map<Link, SimTime> release_floor_;
  std::map<PeerId, Throttle> throttles_;
  /// Per sender: when its serializer has drained everything charged.
  std::map<PeerId, SimTime> free_at_;

  obs::Counter* stall_windows_ = nullptr;
  obs::Counter* throttle_windows_ = nullptr;
  obs::Counter* stalled_frames_ = nullptr;
  obs::Counter* throttled_frames_ = nullptr;
};

}  // namespace p2pfl::net
