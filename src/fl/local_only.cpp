#include "fl/local_only.hpp"

#include "data/loader.hpp"
#include "fl/flat_utils.hpp"
#include "obs/trace.hpp"

namespace spatl::fl {

LocalOnly::LocalOnly(FlEnvironment& env, FlConfig config)
    : FederatedAlgorithm(env, std::move(config)) {
  clients_.resize(env_.num_clients());
}

models::SplitModel& LocalOnly::client_model(std::size_t i) {
  auto& slot = clients_.at(i);
  if (!slot) {
    common::Rng init_rng(config_.seed ^ (0x10CA1ULL * (i + 1)));
    slot = std::make_unique<models::SplitModel>(
        models::build_model(config_.model, init_rng));
  }
  return *slot;
}

void LocalOnly::run_round(const std::vector<std::size_t>& selected) {
  for (const std::size_t i : selected) {
    SPATL_TRACE_SPAN("fl/train");
    common::Rng client_rng(config_.seed ^ (0xC11E47ULL * (i + 1)));
    auto& model = client_model(i);
    data::train_supervised(model, env_.client(i).train, config_.local,
                           client_rng, model.all_params());
    // No ledger activity: nothing is communicated, by definition.
  }
}

void LocalOnly::state(StateArchive& ar) {
  FederatedAlgorithm::state(ar);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    // Only built models travel, keyed on their weights entry; a slot absent
    // from the snapshot is reset and rebuilt lazily on first use.
    std::vector<float> w;
    if (clients_[i]) w = nn::flatten_values(clients_[i]->all_params());
    const std::string id = std::to_string(i);
    if (!ar.optional(clients_[i] != nullptr).floats("algo/local/w/" + id, w)) {
      clients_[i].reset();
      continue;
    }
    auto& model = client_model(i);
    if (ar.loading()) nn::unflatten_values(w, model.all_params());
    walk_bn(ar, "algo/local/bn/" + id, model);
  }
}

}  // namespace spatl::fl
