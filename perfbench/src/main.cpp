// perfbench: one workload per invocation.
//
//   perfbench --workload <system_1k|train_cnn|tcp_agg>
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints human-readable notes, then one JSON line: metrics, output
// checks, the exact counts that must repeat for a seed, and the
// environment. perfbench/run.py builds this binary and turns that line
// into the benchmark result. Exits 1 when an output check fails, 2 on
// bad arguments or an exception.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common/parallel.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stoi(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.seconds < 1) {
    std::fprintf(stderr, "perfbench: --seconds must be >= 1\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(opt.work_dir);
    Result r;
    if (opt.workload == "system_1k") {
      r = run_system_1k(opt);
    } else if (opt.workload == "train_cnn") {
      r = run_train_cnn(opt);
    } else if (opt.workload == "tcp_agg") {
      r = run_tcp_agg(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
    r.info["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    r.info["parallel_workers"] = std::to_string(p2pfl::parallel_workers());
    r.info["build_type"] = PERFBENCH_BUILD_TYPE;
    if (r.info.count("wal_fs") == 0) r.info["wal_fs"] = "none (no WAL)";
    for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
    for (const auto& [name, c] : r.checks) {
      std::printf("check %-22s %s  %s\n", name.c_str(), c.first ? "ok  " : "FAIL",
                  c.second.c_str());
    }
    std::printf("%s\n", r.json(opt).c_str());
    std::fflush(stdout);
    return r.all_checks_pass() && r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
