#include "core/fl_experiment.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "fl/fedavg.hpp"
#include "fl/model.hpp"
#include "fl/optimizer.hpp"
#include "secagg/sac.hpp"

namespace p2pfl::core {

const char* distribution_name(DataDistribution d) {
  switch (d) {
    case DataDistribution::kIid: return "IID";
    case DataDistribution::kNonIid5: return "Non-IID(5%)";
    case DataDistribution::kNonIid0: return "Non-IID(0%)";
  }
  return "?";
}

namespace {

fl::Model build_model(const FlExperimentConfig& cfg) {
  const std::size_t inputs =
      cfg.data.channels * cfg.data.height * cfg.data.width;
  switch (cfg.model) {
    case ModelKind::kMlp:
      return fl::Model::mlp(inputs, cfg.mlp_hidden, cfg.data.classes);
    case ModelKind::kPaperCnn:
      P2PFL_CHECK_MSG(cfg.data.height == cfg.data.width,
                      "paper CNN expects square input");
      return fl::Model::paper_cnn(cfg.data.channels, cfg.data.height);
  }
  P2PFL_CHECK(false);
  return fl::Model{};
}

fl::PeerIndices partition(const FlExperimentConfig& cfg,
                          const fl::Dataset& train, Rng& rng) {
  switch (cfg.distribution) {
    case DataDistribution::kIid:
      return fl::partition_iid(train, cfg.peers, rng);
    case DataDistribution::kNonIid5:
      return fl::partition_non_iid(train, cfg.peers, 0.05, rng);
    case DataDistribution::kNonIid0:
      return fl::partition_non_iid(train, cfg.peers, 0.0, rng);
  }
  P2PFL_CHECK(false);
  return {};
}

Topology make_topology(const FlExperimentConfig& cfg) {
  if (cfg.aggregation != AggregationKind::kTwoLayerSac) {
    return Topology::even(cfg.peers, 1);
  }
  if (cfg.subgroups > 0) return Topology::even(cfg.peers, cfg.subgroups);
  if (cfg.group_size > 0) {
    return Topology::by_group_size(cfg.peers, cfg.group_size);
  }
  return Topology::even(cfg.peers, 1);
}

}  // namespace

FlExperimentResult run_fl_experiment(const FlExperimentConfig& cfg,
                                     const RoundObserver& observer) {
  P2PFL_CHECK(cfg.peers >= 1 && cfg.rounds >= 1);
  P2PFL_CHECK(cfg.fraction_p > 0.0 && cfg.fraction_p <= 1.0);

  Rng root(cfg.seed);
  Rng data_rng = root.fork(1);
  Rng part_rng = root.fork(2);
  Rng init_rng = root.fork(3);
  Rng sac_rng = root.fork(4);
  Rng sched_rng = root.fork(5);
  Rng eval_rng = root.fork(6);
  Rng byz_rng = root.fork(7);

  const fl::TrainTest data = fl::make_synthetic(cfg.data, data_rng);
  const fl::PeerIndices parts = partition(cfg, data.train, part_rng);
  const Topology topo = make_topology(cfg);
  P2PFL_CHECK(topo.peer_count() == cfg.peers);

  // One shared initialization, as when all peers download w_0.
  fl::Model global_model = build_model(cfg);
  global_model.init(init_rng);
  std::vector<float> global = global_model.get_params();

  FlExperimentResult result;
  result.model_params = global.size();

  // Byzantine assignment: capture WHOLE subgroups first (peers in
  // topology order). SAC masks individual updates, so a poisoner spread
  // across honest subgroups is diluted into honest-majority subtotals;
  // the adversary worth defending against at the FedAvg layer owns its
  // subtotals outright.
  std::vector<char> byzantine(cfg.peers, 0);
  if (cfg.byzantine_fraction > 0.0 &&
      cfg.attack.kind != robust::AttackKind::kNone) {
    const auto want = static_cast<std::size_t>(
        cfg.byzantine_fraction * static_cast<double>(cfg.peers) + 0.5);
    std::size_t marked = 0;
    for (std::size_t g = 0; g < topo.subgroup_count() && marked < want;
         ++g) {
      for (PeerId id : topo.group(g)) {
        if (marked == want) break;
        byzantine[id] = 1;
        ++marked;
      }
    }
    result.byzantine_peers = marked;
  }
  // Model-poisoning kinds perturb the peer's update before SAC; every
  // other kind resolves to a lying aggregator here (the math path has
  // no share/retry wire to equivocate on — those are actor-path
  // attacks, exercised by the chaos engine + detection tests).
  const bool model_poisoning =
      cfg.attack.kind == robust::AttackKind::kSignFlip ||
      cfg.attack.kind == robust::AttackKind::kScaledUpdate ||
      cfg.attack.kind == robust::AttackKind::kRandomNoise ||
      cfg.attack.kind == robust::AttackKind::kConstantDrift;

  std::vector<std::unique_ptr<fl::PeerTrainer>> peers;
  peers.reserve(cfg.peers);
  for (std::size_t p = 0; p < cfg.peers; ++p) {
    fl::Model m = build_model(cfg);
    m.init(init_rng);  // immediately overwritten by set_weights
    peers.push_back(std::make_unique<fl::PeerTrainer>(
        std::move(m), std::make_unique<fl::Adam>(cfg.learning_rate),
        data.train, parts[p], root.fork(100 + p)));
  }

  const std::size_t m_groups = topo.subgroup_count();
  const std::size_t take =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   cfg.fraction_p *
                                   static_cast<double>(m_groups)));

  for (std::size_t round = 1; round <= cfg.rounds; ++round) {
    // Local update on every peer, the peers training concurrently as on
    // their own machines. A peer owns its model, optimizer state and Rng
    // and only reads `global` and the training set; its kernels run on
    // its task's thread, sharing chunks with workers the last peers leave
    // idle. Losses are summed in peer order.
    std::vector<double> losses(cfg.peers);
    parallel_for(0, cfg.peers, [&](std::size_t p) {
      peers[p]->set_weights(global);
      losses[p] = peers[p]->train_round(cfg.train);
    });
    double train_loss = 0.0;
    for (double loss : losses) train_loss += loss;
    train_loss /= static_cast<double>(cfg.peers);

    // Slow-subgroup selection (Figs. 8-9): the FedAvg leader only waits
    // for `take` subgroups; which ones are slow rotates randomly.
    std::vector<std::size_t> group_order(m_groups);
    for (std::size_t g = 0; g < m_groups; ++g) group_order[g] = g;
    if (take < m_groups) sched_rng.shuffle(group_order);
    group_order.resize(take);

    // Subgroup SAC, then FedAvg across subgroup averages (Alg. 3).
    std::vector<std::vector<float>> group_avgs;
    std::vector<double> group_weights;
    if (cfg.aggregation == AggregationKind::kPlainFedAvg) {
      // No SAC anywhere: weight directly by per-peer sample counts.
      std::vector<std::vector<float>> models;
      std::vector<double> weights;
      for (std::size_t p = 0; p < cfg.peers; ++p) {
        const std::span<const float> w = peers[p]->params();
        models.emplace_back(w.begin(), w.end());
        if (byzantine[p] && model_poisoning) {
          robust::poison(models.back(), cfg.attack, byz_rng);
        }
        weights.push_back(static_cast<double>(peers[p]->sample_count()));
      }
      global = robust::aggregate(models, weights, cfg.robust);
      group_order.clear();
    }
    for (std::size_t g : group_order) {
      const auto& members = topo.group(g);
      const std::size_t n = members.size();
      double group_samples = 0.0;
      for (PeerId id : members) {
        group_samples += static_cast<double>(peers[id]->sample_count());
      }
      // SAC reads each member's parameters where they live; a member
      // whose update is poisoned or pre-scaled gets a copy to change.
      std::vector<secagg::ModelView> models;
      std::vector<secagg::Vector> changed;
      models.reserve(n);
      changed.reserve(n);  // never reallocates: views into it stay valid
      for (PeerId id : members) {
        secagg::ModelView view = peers[id]->params();
        const bool poisoned = byzantine[id] && model_poisoning;
        if (poisoned || cfg.weight_by_samples) {
          secagg::Vector& w = changed.emplace_back(view.begin(), view.end());
          if (poisoned) robust::poison(w, cfg.attack, byz_rng);
          if (cfg.weight_by_samples) {
            // Pre-scale by the (public) sample fraction; SAC's mean of the
            // scaled models times n is then the sample-weighted average.
            const double frac =
                static_cast<double>(peers[id]->sample_count()) /
                group_samples;
            for (float& x : w) {
              x = static_cast<float>(static_cast<double>(x) * frac);
            }
          }
          view = w;
        }
        models.push_back(view);
      }
      auto finish_group = [&](secagg::Vector avg) {
        // A Byzantine subgroup aggregator (the first member runs SAC
        // collection here) lies about the subtotal it forwards. SAC's
        // masking means no subgroup member can audit the value — only
        // the FedAvg-layer robust rule can reject it.
        if (!model_poisoning && byzantine[members.front()] &&
            cfg.attack.kind != robust::AttackKind::kNone) {
          robust::poison(avg, cfg.attack, byz_rng);
        }
        if (cfg.weight_by_samples) {
          for (float& x : avg) {
            x = static_cast<float>(static_cast<double>(x) *
                                   static_cast<double>(n));
          }
          group_weights.push_back(group_samples);
        } else {
          group_weights.push_back(static_cast<double>(n));
        }
        group_avgs.push_back(std::move(avg));
      };

      const std::size_t k = cfg.sac_k == 0 ? n : std::min(cfg.sac_k, n);
      if (cfg.dropout_after_share_prob > 0.0 && n > 1) {
        std::vector<bool> crashed(n, false);
        for (std::size_t i = 0; i < n; ++i) {
          crashed[i] = sac_rng.chance(cfg.dropout_after_share_prob);
        }
        auto ft = secagg::fault_tolerant_sac_average(
            models, k, crashed, sac_rng);
        if (!ft.ok) {
          ++result.subgroup_quorum_failures;
          continue;  // below quorum: subgroup misses this round
        }
        finish_group(std::move(ft.average));
      } else {
        finish_group(secagg::sac_average(models, sac_rng));
      }
    }

    if (!group_avgs.empty()) {
      // kMean delegates to fl::federated_average, so the default config
      // is bit-exact with the pre-robust behaviour.
      global = robust::aggregate(group_avgs, group_weights, cfg.robust);
    }

    RoundRecord rec;
    rec.round = round;
    rec.train_loss = train_loss;
    if (round % cfg.eval_every == 0 || round == cfg.rounds) {
      global_model.set_params(global);
      const fl::EvalResult ev = fl::evaluate_model(
          global_model, data.test, eval_rng, cfg.eval_samples);
      rec.test_accuracy = ev.accuracy;
      rec.test_loss = ev.loss;
      result.final_accuracy = ev.accuracy;
      result.final_test_loss = ev.loss;
    }
    if (observer) observer(rec);
    result.records.push_back(std::move(rec));
  }
  result.final_weights = std::move(global);
  return result;
}

}  // namespace p2pfl::core
