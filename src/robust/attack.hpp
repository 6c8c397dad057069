// Byzantine adversary model: what a compromised peer does.
//
// An AttackSpec names one adversarial behaviour and its magnitude; a
// ByzantineRegistry maps peer ids to their currently active spec. The
// caller owns the registry and activates/deactivates its entries
// (`p2pflctl attack`, the Byzantine tests), and the protocol actors
// consult it at their injection points:
//
//  * model poisoning (kSignFlip / kScaledUpdate / kRandomNoise /
//    kConstantDrift) — applied to the local model a peer feeds into the
//    SAC round (TwoLayerAggregator::begin_round's model_of wrapper);
//  * kInconsistentShares — the SAC share phase sends different,
//    individually plausible share values to different holders, so
//    subtotals no longer sum to the true total (SacPeer);
//  * kSubtotalLie — a subgroup aggregator perturbs the subgroup average
//    it uploads to the FedAvg leader (TwoLayerAggregator);
//  * kEquivocate — retries carry different payloads than the original
//    send (SacPeer share re-sends, aggregator upload retries).
//
// Everything is deterministic: the transforms draw only from the Rng
// the caller forks, so an attacked run is a pure function of
// (seed, adversary set) exactly like a chaos run is of (seed, plan).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace p2pfl::robust {

enum class AttackKind {
  kNone,
  kSignFlip,
  kScaledUpdate,
  kRandomNoise,
  kConstantDrift,
  kInconsistentShares,
  kSubtotalLie,
  kEquivocate,
};

struct AttackSpec {
  AttackKind kind = AttackKind::kNone;
  /// Scale factor (kSignFlip/kScaledUpdate), noise stddev
  /// (kRandomNoise), or additive offset (drift/lie/equivocation).
  double magnitude = 10.0;
};

/// Stable machine name ("sign_flip", "scaled_update", ...).
const char* attack_name(AttackKind kind);

/// Inverse of attack_name; returns true and sets `out` on a match.
bool attack_from_name(const std::string& name, AttackKind& out);

/// Which peers are currently adversarial, and how. Shared by the chaos
/// engine (writer) and the protocol actors (readers); iteration order
/// is by peer id, so every sweep over it is deterministic.
class ByzantineRegistry {
 public:
  void activate(PeerId peer, AttackSpec spec) { specs_[peer] = spec; }
  void deactivate(PeerId peer) { specs_.erase(peer); }

  /// Active spec for `peer`, or nullptr when the peer is honest.
  const AttackSpec* spec(PeerId peer) const {
    auto it = specs_.find(peer);
    return it == specs_.end() ? nullptr : &it->second;
  }
  bool active(PeerId peer) const { return specs_.count(peer) != 0; }
  std::size_t active_count() const { return specs_.size(); }
  std::vector<PeerId> active_peers() const {
    std::vector<PeerId> out;
    out.reserve(specs_.size());
    for (const auto& [p, s] : specs_) out.push_back(p);
    return out;
  }

 private:
  std::map<PeerId, AttackSpec> specs_;
};

/// Apply `spec`'s transform to `w` in place. Model-poisoning kinds
/// rewrite the update; protocol-level kinds (shares/subtotal/
/// equivocation) apply the additive lie offset — their *placement* in
/// the message flow is the actors' job. kNone is a no-op.
void poison(std::vector<float>& w, const AttackSpec& spec, Rng& rng);

}  // namespace p2pfl::robust
