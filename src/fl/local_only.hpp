// Local-only baseline: every client trains its own model and nothing is
// ever communicated. The standard lower/upper reference in personalized-FL
// evaluations — under strong non-IID skew it is surprisingly competitive on
// local validation sets (each client overfits its own distribution), which
// is exactly the effect SPATL's private predictors exploit while still
// sharing a global encoder.
#pragma once

#include <vector>

#include "fl/algorithm.hpp"

namespace spatl::fl {

/// The one algorithm off the client-round skeleton: with no uplink there is
/// nothing to deliver, vet or combine.
// ckpt-struct: algo/local/
class LocalOnly : public FederatedAlgorithm {
 public:
  LocalOnly(FlEnvironment& env, FlConfig config);

  std::string name() const override { return "local-only"; }
  void run_round(const std::vector<std::size_t>& selected) override;
  /// Every materialized client model (weights + BN statistics).
  void state(StateArchive& ar) override;

 private:
  /// Heterogeneous deployment: evaluation uses each client's own model.
  models::SplitModel& deployed_model(std::size_t i) override {
    return client_model(i);
  }
  models::SplitModel& client_model(std::size_t i);
  // Lazily built per client.
  // ckpt: algo/local/w/, algo/local/bn/
  std::vector<std::unique_ptr<models::SplitModel>> clients_;
};

}  // namespace spatl::fl
