// train_cnn: core::run_fl_experiment in the Fig. 6 shape. N=10 peers in
// subgroups of n=5, the Fig. 5 CNN (1,244,287 parameters) on 32x32x3
// cifar10_like data, Adam lr 1e-4, IID shards of 8 images per peer, an
// evaluation over 40 test images every round, the library's default
// parallel_for worker count. Bound by the fl layer; SAC runs through the
// math path (secagg::sac_average).
#include <cmath>
#include <cstdio>

#include "core/fl_experiment.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace p2pfl;

namespace {

constexpr std::size_t kPeers = 10, kGroupSize = 5, kShard = 8, kEval = 40;
constexpr float kLr = 1e-4f;

core::FlExperimentConfig config(std::size_t rounds, std::uint64_t seed) {
  core::FlExperimentConfig cfg;
  cfg.peers = kPeers;
  cfg.group_size = kGroupSize;
  cfg.aggregation = core::AggregationKind::kTwoLayerSac;
  cfg.distribution = core::DataDistribution::kIid;
  cfg.rounds = rounds;
  cfg.model = core::ModelKind::kPaperCnn;
  cfg.data = fl::cifar10_like();
  cfg.data.train_samples = kPeers * kShard;
  cfg.data.test_samples = kEval;
  cfg.train.batch_size = kShard;
  cfg.learning_rate = kLr;
  cfg.eval_every = 1;
  cfg.eval_samples = kEval;
  cfg.seed = seed;
  return cfg;
}

struct Pass {
  RoundTimeline tl;
  std::size_t started = 0, ok = 0;
  std::vector<double> losses;
  std::size_t params = 0;
  double heap_mb = 0.0;
};

Pass run_pass(std::size_t rounds, std::uint64_t seed) {
  Pass p;
  p.tl.start();
  core::FlExperimentResult res;
  {
    Span s("core.run_fl_experiment", "core");
    res = core::run_fl_experiment(config(rounds + 1, seed),
                                  [&](const core::RoundRecord& rec) {
                                    Span o("core.round_observer", "core");
                                    p.tl.commit();
                                    ++p.started;
                                    p.losses.push_back(rec.train_loss);
                                    p.heap_mb = heap_inuse_mb();
                                    if (std::isfinite(rec.train_loss) &&
                                        rec.test_loss.has_value() &&
                                        std::isfinite(*rec.test_loss)) {
                                      ++p.ok;
                                    }
                                  });
  }
  p.params = res.model_params;
  return p;
}

}  // namespace

Result run_train_cnn(const Options& opt) {
  // A round takes 4.9-7.1 s with the host's speed (NOTES.md); 5 s gives 5
  // rounds at --seconds 25.
  const std::size_t rounds = rounds_for(opt.seconds, 5.0, 2, 12);
  Result r;
  const Pass p = run_pass(rounds, opt.seed);
  add_end_to_end(r, p.tl, kPeers, p.started, p.ok);
  r.check("losses_finite", p.ok == p.started && p.started == rounds + 1,
          std::to_string(p.ok) + " of " + std::to_string(rounds + 1) +
              " rounds with finite training and test loss");
  r.check("paper_cnn_size", p.params == 1'244'287,
          "model has " + std::to_string(p.params) + " parameters (Fig. 5: 1,244,287)");
  std::string losses = "train_cnn: N=10 n=5, Fig. 5 CNN, " + std::to_string(rounds) +
                       " timed rounds + 1 warm-up; training loss per round:";
  for (double l : p.losses) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.4f", l);
    losses += buf;
  }
  r.note(losses);

  if (!opt.trace) return r;
  Tracer tracer;
  set_tracer(&tracer);
  const Pass t = run_pass(rounds, opt.seed);
  LayerReport rep;
  rep.round_s_untraced = p.tl.round_s_p50();
  rep.round_s_traced = t.tl.round_s_p50();
  // Per round: every peer trains one batch; each of the two subgroups
  // runs one sac_average; the global model is evaluated once.
  rep.trained_peers = kPeers;
  rep.sac_averages = static_cast<double>(kPeers / kGroupSize);
  rep.evals = 1;
  rep.heap_inuse_mb = t.heap_mb;
  const std::size_t dim = t.params;
  rep.divide_ms = probe_divide_ms(dim, kGroupSize);
  rep.accumulate_ms = probe_accumulate_ms(dim);
  rep.sac_average_ms = probe_sac_average_ms(dim, kGroupSize);
  const core::FlExperimentConfig cfg = config(1, opt.seed);
  Rng data_rng = Rng(opt.seed).fork(1);
  rep.fl = probe_fl([] { return fl::Model::paper_cnn(3, 32); },
                    fl::make_synthetic(cfg.data, data_rng), kShard, kEval, kLr);
  set_tracer(nullptr);
  add_layer_metrics(r, rep, tracer);
  write_spans(opt, tracer);
  return r;
}

}  // namespace perfbench
