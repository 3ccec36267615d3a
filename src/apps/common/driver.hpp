#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/common/metadata.hpp"
#include "component/model.hpp"
#include "component/runtime.hpp"
#include "db/database.hpp"
#include "workload/session_fsm.hpp"

namespace mutsvc::apps {

/// Uniform handle the experiment harness uses to drive an application.
/// Both PetStoreApp and RubisApp produce one via their `driver()` method.
struct AppDriver {
  std::string name;
  const comp::Application* app = nullptr;
  const AppMetadata* meta = nullptr;
  std::function<void(db::Database&)> install_database;
  std::function<void(comp::Runtime&)> bind_entities;
  /// The two usage patterns as FSM script models (DESIGN §16): pure
  /// per-step functions over the 40-byte session record, parameterized by
  /// the Zipf item-popularity exponent (0 = the paper's uniform catalog
  /// use). The experiment harness refuses a driver that leaves them unset.
  std::function<std::shared_ptr<const workload::FsmScriptModel>(double zipf_s)>
      fsm_browser_model;
  std::function<std::shared_ptr<const workload::FsmScriptModel>(double zipf_s)>
      fsm_writer_model;
  std::vector<std::pair<std::string, std::string>> table_pages;  // (pattern, page)
  std::string browser_pattern = "Browser";  // the read-only usage pattern
  std::string writer_pattern;               // "Buyer", "Bidder", "Operator", ...
  /// §3.1: the RUBiS database ran on the main application server itself;
  /// Pet Store's Oracle ran on a separate workstation on the same LAN.
  bool db_colocated = false;
};

}  // namespace mutsvc::apps
