#include "core/two_layer_agg.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/log.hpp"
#include "fl/fedavg.hpp"
#include "secagg/wire.hpp"

namespace p2pfl::core {

namespace {
std::string sac_channel(SubgroupId g) { return "sac/sg" + std::to_string(g); }

/// Upload resends before a subgroup leader gives its upload up.
constexpr std::size_t kUploadRetryLimit = 5;
}  // namespace

RoundLeadership RoundLeadership::designated(const Topology& topology) {
  RoundLeadership lead;
  lead.subgroup_leaders = topology.designated_leaders();
  lead.fedavg_leader = lead.subgroup_leaders.front();
  return lead;
}

TwoLayerAggregator::TwoLayerAggregator(
    const Topology& topology, AggregationConfig cfg, net::Network& net,
    std::function<net::PeerHost&(PeerId)> host_of)
    : topology_(topology),
      cfg_(cfg),
      net_(net),
      byz_rng_(net.rng().fork(0x62797a'6c696521ULL /*"byzlie!"*/)),
      collect_timer_(
          net.transport(),
          [this] {
            if (fed_ && !fed_->done) {
              auto it = peers_.find(leadership_.fedavg_leader);
              if (it != peers_.end()) fed_maybe_aggregate(it->second, true);
            }
          },
          "agg.collect_timeout") {
  P2PFL_CHECK(cfg_.fraction_p > 0.0 && cfg_.fraction_p <= 1.0);
  wire::register_codecs();
  secagg::SacActorOptions sac_opts;
  sac_opts.k = 0;  // per-round thresholds are passed to begin_round
  sac_opts.broadcast_subtotals = false;
  sac_opts.wire_bytes_per_share = cfg_.model_wire_bytes;
  sac_opts.share_timeout = cfg_.sac_share_timeout;
  sac_opts.subtotal_timeout = cfg_.sac_subtotal_timeout;
  sac_opts.share_retry_limit = cfg_.sac_share_retry_limit;
  sac_opts.detect_inconsistent_shares = cfg_.detect_byzantine;
  sac_opts.byzantine = cfg_.byzantine;

  if (!host_of) {
    for (PeerId id : topology_.all_peers()) {
      net_.attach(id, &owned_hosts_[id]);
    }
    host_of = [this](PeerId id) -> net::PeerHost& {
      return owned_hosts_.at(id);
    };
  }
  for (PeerId id : topology_.all_peers()) {
    net::PeerHost& host = host_of(id);
    PeerState st;
    st.id = id;
    st.group = topology_.subgroup_of(id);
    st.sac = std::make_unique<secagg::SacPeer>(
        id, sac_channel(st.group), sac_opts, net_, host);
    host.route("agg/upload", [this, id](const net::Envelope& env) {
      const auto* msg = net::payload<UploadMsg>(env.body);
      auto it = peers_.find(id);
      if (msg != nullptr && it != peers_.end()) {
        handle_upload(it->second, *msg);
      }
    });
    host.route("agg/result", [this, id](const net::Envelope& env) {
      const auto* msg = net::payload<ResultMsg>(env.body);
      auto it = peers_.find(id);
      if (msg != nullptr && it != peers_.end()) {
        handle_result(it->second, *msg);
      }
    });
    auto [it, inserted] = peers_.emplace(id, std::move(st));
    P2PFL_CHECK(inserted);
    PeerState* ps = &it->second;
    ps->upload_timer = std::make_unique<net::Timer>(
        net_.transport(), [this, ps] { retry_upload(*ps); },
        "agg.upload_retry");
    ps->sac->on_complete = [this, ps](RoundId round,
                                      const secagg::Vector& avg) {
      const std::size_t g = ps->group;
      const std::size_t size =
          g < round_groups_.size() ? round_groups_[g].size() : 0;
      sac_complete(*ps, round, avg, size);
    };
    ps->sac->on_byzantine = [this, ps](RoundId round,
                                       const std::vector<std::size_t>& pos) {
      // Positions are into the round's SAC group for this subgroup.
      const std::size_t g = ps->group;
      if (g >= round_groups_.size()) return;
      const std::vector<PeerId>& group = round_groups_[g];
      for (std::size_t s : pos) {
        if (s < group.size()) mark_suspect(round, group[s], "shares");
      }
    };
  }
}

TwoLayerAggregator::~TwoLayerAggregator() {
  // A Network that outlives us drops late frames as "unattached" instead
  // of delivering them to freed hosts.
  for (const auto& [id, host] : owned_hosts_) net_.detach(id);
}

std::uint64_t TwoLayerAggregator::model_wire(std::size_t dim) const {
  return cfg_.model_wire_bytes > 0
             ? cfg_.model_wire_bytes
             : 4 * static_cast<std::uint64_t>(dim);
}

const robust::AttackSpec* TwoLayerAggregator::attack_of(PeerId id) const {
  return cfg_.byzantine == nullptr ? nullptr : cfg_.byzantine->spec(id);
}

void TwoLayerAggregator::mark_suspect(RoundId round, PeerId peer,
                                      const char* how) {
  if (!suspects_.insert(peer).second) return;
  obs::Observability& o = net_.obs();
  o.metrics.counter("byzantine.suspects_marked").add(1);
  if (o.trace.category_enabled("chaos")) {
    o.trace.instant("chaos", "byzantine.suspect_marked", peer,
                    {{"round", round}, {"how", how}});
  }
  if (on_suspect) on_suspect(round, peer);
}

void TwoLayerAggregator::begin_round(RoundId round,
                                     const RoundLeadership& leadership,
                                     const ModelProvider& model_of) {
  P2PFL_CHECK(leadership.subgroup_leaders.size() ==
              topology_.subgroup_count());
  P2PFL_CHECK(leadership.fedavg_leader != kNoPeer);
  abort_round();
  round_ = round;
  leadership_ = leadership;

  // Determine each subgroup's live SAC group for this round.
  round_groups_.assign(topology_.subgroup_count(), {});
  std::size_t live_groups = 0;
  for (SubgroupId g = 0; g < topology_.subgroup_count(); ++g) {
    for (PeerId id : topology_.group(g)) {
      // Detection suspects sit out exactly like crashed peers: their
      // shares are no longer accepted into any subtotal, and the SAC
      // threshold clamps to the smaller group below — "excluded from
      // the reconstruction threshold".
      if (!net_.crashed(id) && suspects_.count(id) == 0) {
        round_groups_[g].push_back(id);
      }
    }
    // A parked subgroup (no electable leader, kNoPeer) contributes
    // nothing this round and must not count toward the FedAvg quorum.
    const PeerId lead = leadership.subgroup_leaders[g];
    if (!round_groups_[g].empty() && lead != kNoPeer &&
        !net_.crashed(lead) && suspects_.count(lead) == 0) {
      ++live_groups;
    }
  }

  for (auto& [id, p] : peers_) {
    p.is_subgroup_leader =
        leadership.subgroup_leaders[p.group] == id && !net_.crashed(id);
    p.is_fed_leader = leadership.fedavg_leader == id && !net_.crashed(id);
  }

  // FedAvg-leader collection state (§VI-A3: wait for ceil(p * m)).
  auto fed_it = peers_.find(leadership.fedavg_leader);
  P2PFL_CHECK(fed_it != peers_.end());
  fed_ = FedState{};
  fed_->round = round;
  fed_->expected_groups = live_groups;
  fed_->quorum = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             cfg_.fraction_p * static_cast<double>(live_groups))));
  collect_timer_.arm(cfg_.collect_timeout);

  obs::Observability& o = net_.obs();
  o.metrics.counter("agg.rounds_started").add(1);
  round_start_ = net_.now();
  if (o.trace.category_enabled("agg")) {
    o.trace.instant("agg", "agg.round_begin", leadership.fedavg_leader,
                    {{"round", round},
                     {"live_groups", live_groups},
                     {"quorum", fed_->quorum}});
  }
  if (o.spans.enabled()) {
    // Root of the round's causal DAG, plus the FedAvg-leader collect
    // window that the round's commit (or abort) eventually closes.
    fed_->round_span = o.spans.open(obs::SpanKind::kRound, "agg/round",
                                    leadership.fedavg_leader, round);
    fed_->collect_span =
        o.spans.open(obs::SpanKind::kFedCollect, "agg/collect",
                     leadership.fedavg_leader, round, fed_->round_span);
  }
  // SAC kickoff runs under the round span so share phases chain to it.
  obs::SpanStackScope round_scope(o.spans, fed_->round_span);

  // Kick off SAC in every live subgroup.
  for (SubgroupId g = 0; g < topology_.subgroup_count(); ++g) {
    const auto& group = round_groups_[g];
    if (group.empty()) continue;
    const PeerId leader = leadership.subgroup_leaders[g];
    if (leader == kNoPeer) continue;  // parked: skipped until repaired
    const auto pos = std::find(group.begin(), group.end(), leader);
    if (pos == group.end()) continue;  // leader crashed: Raft's problem
    const std::size_t leader_pos =
        static_cast<std::size_t>(pos - group.begin());
    // The SAC threshold is fixed by the full-strength topology (k = n -
    // tolerance); a subgroup that cannot field that many live members
    // runs degraded, clamped to its live size, rather than sitting the
    // round out.
    const std::size_t full = topology_.group(g).size();
    const std::size_t nominal_k = full > cfg_.sac_dropout_tolerance
                                      ? full - cfg_.sac_dropout_tolerance
                                      : 1;
    std::size_t k = nominal_k;
    if (group.size() < nominal_k) {
      k = std::max<std::size_t>(1, group.size());
      o.metrics.counter("subgroup.degraded").add(1);
      if (o.trace.category_enabled("agg")) {
        o.trace.instant("agg", "subgroup.degraded", leader,
                        {{"round", round},
                         {"group", g},
                         {"live", group.size()},
                         {"nominal_k", nominal_k},
                         {"effective_k", k}});
      }
    }
    for (PeerId id : group) {
      secagg::Vector model = model_of(id);
      const robust::AttackSpec* atk = attack_of(id);
      if (atk != nullptr) {
        // Model poisoning happens at the source: the poisoned update
        // enters SAC like any honest one and is invisible under the
        // masking — only the FedAvg-layer robust rule can blunt it.
        switch (atk->kind) {
          case robust::AttackKind::kSignFlip:
          case robust::AttackKind::kScaledUpdate:
          case robust::AttackKind::kRandomNoise:
          case robust::AttackKind::kConstantDrift:
            robust::poison(model, *atk, byz_rng_);
            o.metrics.counter("byzantine.models_poisoned").add(1);
            break;
          default:
            break;  // protocol-level attacks inject elsewhere
        }
      }
      peers_.at(id).sac->begin_round(round, std::move(model), group,
                                     leader_pos, k);
    }
  }
}

void TwoLayerAggregator::abort_round() {
  obs::SpanRecorder& sr = net_.obs().spans;
  for (auto& [id, p] : peers_) {
    p.sac->halt();
    p.pending_upload.reset();
    if (p.upload_timer) p.upload_timer->cancel();
    sr.close_aborted(p.upload_span);
    p.upload_span = obs::kNoSpan;
  }
  if (fed_ && !fed_->done) {
    sr.close_aborted(fed_->collect_span);
    sr.close_aborted(fed_->round_span);
    // The round was still undecided: superseded by a newer one or torn
    // down by the system (e.g. the FedAvg layer lost its leader under a
    // partition).
    obs::Observability& o = net_.obs();
    o.metrics.counter("agg.rounds_aborted").add(1);
    if (o.trace.category_enabled("agg")) {
      o.trace.instant("agg", "agg.round_abort", leadership_.fedavg_leader,
                      {{"round", fed_->round},
                       {"uploads", fed_->uploads.size()}});
    }
    if (on_round_aborted) on_round_aborted(fed_->round);
  }
  fed_.reset();
  collect_timer_.cancel();
}

void TwoLayerAggregator::sac_complete(PeerState& p, RoundId round,
                                      const secagg::Vector& avg,
                                      std::size_t group_size) {
  if (round != round_ || !p.is_subgroup_leader) return;
  UploadMsg msg;
  msg.round = round;
  msg.group = p.group;
  msg.weight = static_cast<std::uint32_t>(group_size);
  msg.model = avg;
  const robust::AttackSpec* atk = attack_of(p.id);
  if (atk != nullptr && atk->kind == robust::AttackKind::kSubtotalLie) {
    // A lying subgroup aggregator: the SAC round below it was honest,
    // but the subtotal it reports upward is not. Nothing inside the
    // subgroup can notice; only cross-subtotal redundancy at the FedAvg
    // layer (robust rule) defends.
    robust::poison(msg.model, *atk, byz_rng_);
    net_.obs().metrics.counter("byzantine.subtotal_lies").add(1);
  }
  if (p.is_fed_leader) {
    handle_upload(p, msg);  // local, no wire transfer
    return;
  }
  obs::SpanRecorder& sr = net_.obs().spans;
  if (sr.enabled()) {
    // Open at upload, closed when this round's result (or a supersession)
    // settles it; the upload link chains to it below.
    p.upload_span = sr.open(obs::SpanKind::kUpload, "agg/upload_wait", p.id,
                            round);
  }
  obs::SpanStackScope upload_scope(sr, p.upload_span);
  const net::WireSize size =
      wire::upload_wire(model_wire(avg.size()), avg.size());
  p.pending_upload = msg;
  p.upload_attempts = 0;
  net_.send(p.id, leadership_.fedavg_leader, "agg/upload", std::move(msg),
            size);
  p.upload_timer->arm(cfg_.upload_retry);
}

void TwoLayerAggregator::retry_upload(PeerState& p) {
  if (!p.pending_upload || p.pending_upload->round != round_) return;
  if (net_.crashed(p.id)) return;
  if (p.upload_attempts >= kUploadRetryLimit) {
    obs::Observability& ob = net_.obs();
    ob.metrics.counter("agg.uploads_abandoned").add(1);
    ob.spans.close_aborted(p.upload_span);
    p.upload_span = obs::kNoSpan;
    p.pending_upload.reset();
    return;
  }
  ++p.upload_attempts;
  obs::Observability& o = net_.obs();
  o.metrics.counter("agg.upload_retries").add(1);
  if (o.trace.category_enabled("agg")) {
    o.trace.instant("agg", "agg.upload_retry", p.id,
                    {{"round", p.pending_upload->round},
                     {"attempt", p.upload_attempts}});
  }
  // Retry fires from a timer (empty span stack): parent the resend burst
  // explicitly onto the pending upload wait.
  obs::ScopedSpan retry_span(o.spans, obs::SpanKind::kRetry,
                             "agg/upload_retry", p.id,
                             p.pending_upload->round, p.upload_span);
  UploadMsg copy = *p.pending_upload;
  const robust::AttackSpec* atk = attack_of(p.id);
  if (atk != nullptr && atk->kind == robust::AttackKind::kEquivocate) {
    // Equivocation across retries: every resend tells a different story
    // than the original upload. The FedAvg leader's digest check
    // (handle_upload) catches the disagreement.
    robust::AttackSpec shifted = *atk;
    shifted.magnitude *= static_cast<double>(p.upload_attempts);
    robust::poison(copy.model, shifted, byz_rng_);
    o.metrics.counter("byzantine.equivocations_sent").add(1);
  }
  const net::WireSize size =
      wire::upload_wire(model_wire(copy.model.size()), copy.model.size());
  net_.send(p.id, leadership_.fedavg_leader, "agg/upload", std::move(copy),
            size);
  SimDuration delay = cfg_.upload_retry;
  for (std::size_t i = 0; i < p.upload_attempts && delay < 8 * cfg_.upload_retry;
       ++i) {
    delay *= 2;
  }
  p.upload_timer->arm(delay);
}

void TwoLayerAggregator::settle_upload(PeerState& p, RoundId round) {
  if (p.pending_upload && p.pending_upload->round == round) {
    p.pending_upload.reset();
    p.upload_timer->cancel();
  }
  if (p.upload_span != obs::kNoSpan) {
    // Closed by the link that delivered the round's result.
    obs::SpanRecorder& sr = net_.obs().spans;
    sr.close(p.upload_span, sr.current());
    p.upload_span = obs::kNoSpan;
  }
}

void TwoLayerAggregator::handle_upload(PeerState& p, const UploadMsg& msg) {
  if (!p.is_fed_leader || !fed_ || fed_->done || msg.round != fed_->round) {
    return;
  }
  obs::Observability& o = net_.obs();
  o.metrics.counter("agg.uploads_received").add(1);
  if (o.trace.category_enabled("agg")) {
    o.trace.instant("agg", "agg.upload", p.id,
                    {{"round", msg.round}, {"group", msg.group}});
  }
  if (cfg_.detect_byzantine) {
    // Upload-equivocation check: all sends of one round's subgroup
    // subtotal must agree bit-for-bit (honest retries are copies).
    const std::uint64_t digest = secagg::wire::share_digest(msg.model);
    auto [it, first] = fed_->upload_digest.emplace(msg.group, digest);
    if (!first && it->second != digest) {
      o.metrics.counter("byzantine.upload_equivocations").add(1);
      const PeerId uploader =
          msg.group < leadership_.subgroup_leaders.size()
              ? leadership_.subgroup_leaders[msg.group]
              : kNoPeer;
      if (uploader != kNoPeer) {
        mark_suspect(msg.round, uploader, "upload_equivocation");
      }
      return;  // keep the first story, discard the conflicting one
    }
  }
  fed_->uploads.emplace(msg.group, msg);
  fed_maybe_aggregate(p, /*timed_out=*/false);
}

void TwoLayerAggregator::fed_maybe_aggregate(PeerState& p, bool timed_out) {
  if (!fed_ || fed_->done) return;
  if (net_.crashed(p.id)) return;  // a dead leader aggregates nothing
  if (!timed_out && fed_->uploads.size() < fed_->quorum) return;
  obs::Observability& o = net_.obs();
  if (fed_->uploads.empty()) {
    fed_->done = true;
    collect_timer_.cancel();
    P2PFL_WARN() << "aggregation round " << fed_->round
                 << " produced no subgroup models";
    o.metrics.counter("agg.rounds_failed").add(1);
    o.spans.close_aborted(fed_->collect_span);
    o.spans.close_aborted(fed_->round_span);
    if (o.trace.category_enabled("agg")) {
      o.trace.instant("agg", "agg.round_failed", p.id,
                      {{"round", fed_->round}});
    }
    if (on_round_failed) on_round_failed(fed_->round);
    return;
  }
  fed_->done = true;
  collect_timer_.cancel();
  // Close the collect window, crediting the link whose delivery reached
  // quorum (timeout commits have no closer and attribute the wait to the
  // collect window itself); the merge span it causes closes the round.
  obs::SpanId merge_span = obs::kNoSpan;
  if (o.spans.enabled()) {
    obs::SpanId closer = o.spans.current();
    if (closer == fed_->collect_span) closer = obs::kNoSpan;
    o.spans.close(fed_->collect_span, closer);
    merge_span = o.spans.open(
        obs::SpanKind::kFedMerge, "agg/merge", p.id, fed_->round,
        closer != obs::kNoSpan ? closer : fed_->collect_span);
  }
  obs::SpanStackScope merge_scope(o.spans, merge_span);
  o.metrics.counter("agg.rounds_completed").add(1);
  const double latency_ms =
      static_cast<double>(net_.now() - round_start_) /
      static_cast<double>(kMillisecond);
  o.metrics
      .histogram("agg.round_latency_ms",
                 obs::Histogram::exponential_bounds(1.0, 2.0, 16))
      .record(latency_ms);
  if (o.trace.category_enabled("agg")) {
    o.trace.instant("agg", "agg.merge", p.id,
                    {{"round", fed_->round},
                     {"groups_used", fed_->uploads.size()},
                     {"rule", robust::rule_name(cfg_.robust.rule)},
                     {"latency_ms", latency_ms}});
  }

  // Alg. 3 line 10: FedAvg weighted by subgroup peer counts.
  std::vector<std::vector<float>> models;
  std::vector<double> weights;
  last_contributors_.clear();
  for (const auto& [g, up] : fed_->uploads) {
    models.push_back(up.model);
    weights.push_back(static_cast<double>(up.weight));
    last_contributors_.insert(last_contributors_.end(),
                              round_groups_[g].begin(),
                              round_groups_[g].end());
  }
  // robust::aggregate(kMean) delegates to fl::federated_average, so the
  // default configuration is bit-exact with the pre-robust behaviour.
  const secagg::Vector global =
      robust::aggregate(models, weights, cfg_.robust);
  if (on_global_model) {
    on_global_model(fed_->round, global, fed_->uploads.size());
  }

  // Return the global model to the other subgroup leaders.
  const net::WireSize size =
      wire::result_wire(model_wire(global.size()), global.size());
  for (SubgroupId g = 0; g < topology_.subgroup_count(); ++g) {
    const PeerId leader = leadership_.subgroup_leaders[g];
    if (leader == kNoPeer || leader == p.id || net_.crashed(leader)) continue;
    if (round_groups_[g].empty()) continue;
    ResultMsg msg{fed_->round, global};
    net_.send(p.id, leader, "agg/result", std::move(msg), size);
  }
  p.result_round = fed_->round;
  distribute(p, fed_->round, global);
  if (o.spans.enabled()) {
    o.spans.close(merge_span);
    o.spans.close(fed_->round_span, merge_span);
  }
}

void TwoLayerAggregator::handle_result(PeerState& p, const ResultMsg& msg) {
  if (msg.round != round_) return;
  if (p.result_round == msg.round) return;  // duplicate delivery
  p.result_round = msg.round;
  // The round is decided: any still-pending upload can stop retrying
  // (the FedAvg leader either used it or closed the round without it).
  settle_upload(p, msg.round);
  if (p.is_subgroup_leader) {
    // From the FedAvg leader: relay into the subgroup.
    distribute(p, msg.round, msg.model);
  } else if (on_model_received) {
    // From the subgroup leader: final hop.
    on_model_received(msg.round, p.id, msg.model);
  }
}

void TwoLayerAggregator::distribute(PeerState& leader, RoundId round,
                                    const secagg::Vector& global) {
  // Fan the global model out inside the subgroup, then deliver locally.
  const net::WireSize size =
      wire::result_wire(model_wire(global.size()), global.size());
  for (PeerId id : round_groups_[leader.group]) {
    if (id == leader.id) continue;
    ResultMsg msg{round, global};
    net_.send(leader.id, id, "agg/result", std::move(msg), size);
  }
  if (on_model_received) on_model_received(round, leader.id, global);
}

}  // namespace p2pfl::core
