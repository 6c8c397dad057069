// A net::Network together with the transport under it, picked by name.
//
// Scenario code takes the Network and reaches the transport through
// Network::transport(): call() to touch actors, run_until() to wait on
// them. Built over a Backend, one scenario function runs unchanged on
// the deterministic simulator and over real loopback sockets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/network.hpp"

namespace p2pfl::net {

class Backend {
 public:
  /// `kind` "sim": a simulator seeded with `seed`, links at the default
  /// NetworkConfig latency. `kind` "tcp": a loopback TcpTransport hosting
  /// peers 0..peers-1, its root RNG seeded with `seed`. Any other kind
  /// is a programming error (CHECK).
  Backend(const std::string& kind, std::size_t peers, std::uint64_t seed);

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  Network& net() { return *net_; }

 private:
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<Transport> tcp_;
  std::unique_ptr<Network> net_;
};

}  // namespace p2pfl::net
