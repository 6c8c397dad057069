// Per-peer message demultiplexer.
//
// In the paper each peer process runs several protocol endpoints at once:
// its subgroup Raft instance, possibly a FedAvg-layer Raft instance, the
// SAC aggregation actor and the FL training loop. PeerHost is the single
// net::Endpoint attached for a peer; it routes incoming envelopes to the
// handler whose registered prefix matches the envelope kind.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"

namespace p2pfl::net {

class PeerHost : public Endpoint {
 public:
  using Handler = std::function<void(const Envelope&)>;

  PeerHost() = default;
  /// The network holds the host's address, and its route cache points
  /// into its own handler table: hosts are neither copied nor moved.
  PeerHost(const PeerHost&) = delete;
  PeerHost& operator=(const PeerHost&) = delete;

  /// Route messages whose kind starts with `prefix` to `handler`.
  /// The longest matching prefix wins. Re-registering replaces.
  void route(const std::string& prefix, Handler handler) {
    handlers_[prefix] = std::move(handler);
    resolved_.clear();
  }

  void unroute(const std::string& prefix) {
    handlers_.erase(prefix);
    resolved_.clear();
  }

  void deliver(const Envelope& env) override {
    const Handler* h = handler_for(env);
    if (h != nullptr) (*h)(env);
  }

 private:
  /// The handler of env's kind, resolved by longest-prefix scan once per
  /// kind id and then read from the cache. Kind ids are per Network, so
  /// a host serves the one Network it is attached to.
  const Handler* handler_for(const Envelope& env) {
    if (env.kind_id == kNoKind) {
      return longest_prefix_match(handlers_, env.kind);
    }
    for (const auto& [id, h] : resolved_) {
      if (id == env.kind_id) return h;
    }
    const Handler* h = longest_prefix_match(handlers_, env.kind);
    resolved_.emplace_back(env.kind_id, h);
    return h;
  }

  std::map<std::string, Handler> handlers_;
  /// Kinds this host has received, with their handler (null: no route).
  /// A short list: a host receives a handful of kinds.
  std::vector<std::pair<KindId, const Handler*>> resolved_;
};

}  // namespace p2pfl::net
