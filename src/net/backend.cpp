#include "net/backend.hpp"

#include "common/check.hpp"
#include "net/tcp/tcp_transport.hpp"

namespace p2pfl::net {

Backend::Backend(const std::string& kind, std::size_t peers,
                 std::uint64_t seed) {
  if (kind == "sim") {
    sim_ = std::make_unique<sim::Simulator>(seed);
    net_ = std::make_unique<Network>(*sim_);
    return;
  }
  P2PFL_CHECK_MSG(kind == "tcp", "unknown backend '" + kind + "'");
  tcp::TcpTransportConfig cfg;
  cfg.seed = seed;
  for (std::size_t p = 0; p < peers; ++p) {
    cfg.peers.push_back(static_cast<PeerId>(p));
  }
  tcp_ = std::make_unique<tcp::TcpTransport>(std::move(cfg));
  net_ = std::make_unique<Network>(*tcp_);
}

}  // namespace p2pfl::net
