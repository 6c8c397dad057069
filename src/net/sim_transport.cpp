#include "net/sim_transport.hpp"

#include <utility>

#include "common/check.hpp"

namespace p2pfl::net {

std::uint32_t SimTransport::acquire_envelope(Envelope&& env) {
  std::uint32_t slot;
  if (env_free_head_ != kNoEnvSlot) {
    slot = env_free_head_;
    env_free_head_ = env_pool_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(env_pool_.size());
    env_pool_.emplace_back();
  }
  env_pool_[slot].env = std::move(env);
  return slot;
}

void SimTransport::deliver_pooled(std::uint32_t slot) {
  sink_->transport_deliver(env_pool_[slot].env);
  PooledEnvelope& rec = env_pool_[slot];
  rec.env = Envelope{};  // drop the body/kind allocations eagerly
  rec.next_free = env_free_head_;
  env_free_head_ = slot;
}

void SimTransport::send_frame(Envelope&& env, SimDuration model_delay,
                              Bytes&& /*frame*/) {
  P2PFL_CHECK(sink_ != nullptr);
  const std::uint32_t slot = acquire_envelope(std::move(env));
  sim_.schedule_after(model_delay, [this, slot] { deliver_pooled(slot); });
}

bool SimTransport::run_until(const std::function<bool()>& done,
                             SimDuration budget, SimDuration poll) {
  P2PFL_CHECK(poll > 0);
  const SimTime limit = sim_.now() + budget;
  bool ok = done();
  while (!ok && sim_.now() < limit) {
    sim_.run_for(poll);
    ok = done();
  }
  return ok;
}

}  // namespace p2pfl::net
