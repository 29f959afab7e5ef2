// E10 — Fig. 4 ablation: salient parameter selection vs no selection.
//
// SPATL with the selection agent on vs off (dense encoder upload) on
// ResNet-20 across federation sizes.
//
// Paper shape to reproduce: pruning redundant weights does not harm
// training stability — the curves track each other (selection sometimes a
// little better), while selection pays far fewer uplink bytes.
#include <cstdio>

#include "bench_util.hpp"

using namespace spatl;
using namespace spatl::bench;

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  const BenchScale scale = bench_scale();

  struct Setting {
    std::size_t clients;
    double ratio;
  };
  const std::vector<Setting> settings = {{10, 1.0}, {20, 0.4}};

  common::CsvWriter csv(csv_path("bench_ablation_selection"),
                        {"clients", "sample_ratio", "variant", "round",
                         "avg_accuracy", "cumulative_uplink_bytes"});

  const rl::PpoAgent& agent = shared_pretrained_agent();

  print_header("E10: Salient selection vs no selection (Fig. 4)");
  for (const auto& s : settings) {
    RunSpec spec;
    spec.arch = "resnet20";
    spec.num_clients = s.clients;
    spec.run.sample_ratio = s.ratio;

    auto with_sel = default_spatl_options();
    auto without_sel = with_sel;
    without_sel.salient_selection = false;

    const AlgoRun on =
        run_algorithm("spatl", spec, scale, with_sel, &agent);
    const AlgoRun off =
        run_algorithm("spatl", spec, scale, without_sel, &agent);

    std::printf("\n--- ResNet-20, %zu clients, ratio %.1f ---\n", s.clients,
                s.ratio);
    std::printf("%-8s %16s %16s\n", "round", "with selection",
                "no selection");
    for (std::size_t r = 0; r < on.result.history.size(); ++r) {
      std::printf("%-8zu %15.1f%% %15.1f%%\n", on.result.history[r].round,
                  on.result.history[r].avg_accuracy * 100.0,
                  off.result.history[r].avg_accuracy * 100.0);
      csv.row_values(s.clients, s.ratio, "selection",
                     on.result.history[r].round,
                     on.result.history[r].avg_accuracy,
                     on.result.history[r].cumulative_bytes);
      csv.row_values(s.clients, s.ratio, "dense",
                     off.result.history[r].round,
                     off.result.history[r].avg_accuracy,
                     off.result.history[r].cumulative_bytes);
    }
    std::printf("uplink: selection %s vs dense %s (%.1f%% saved)\n",
                common::format_bytes(on.uplink_bytes).c_str(),
                common::format_bytes(off.uplink_bytes).c_str(),
                (1.0 - on.uplink_bytes / off.uplink_bytes) * 100.0);
  }
  std::printf("\nCSV written to %s\n",
              csv_path("bench_ablation_selection").c_str());
  return 0;
}
