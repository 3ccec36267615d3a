#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/common/driver.hpp"
#include "apps/common/metadata.hpp"
#include "component/model.hpp"
#include "component/runtime.hpp"
#include "db/database.hpp"

namespace mutsvc::apps::gridviz {

/// Repository sizing: simulation runs with frame sequences and live
/// instrument probes.
struct Shape {
  int datasets = 40;
  int frames_per_dataset = 50;
  int probes_per_dataset = 4;
  int initial_readings_per_probe = 20;
  int operators = 60;

  [[nodiscard]] std::int64_t frame_id(std::int64_t dataset, int timestep) const {
    return dataset * 1000 + timestep + 1;
  }
  [[nodiscard]] std::int64_t probe_id(std::int64_t dataset, int k) const {
    return dataset * 100 + k + 1;
  }
};

/// Page demands: visualization pages are light on container time but heavy
/// on payload (frame tiles), which is what makes edge caching of frames
/// pay off beyond latency alone.
struct Calibration {
  sim::Duration page_cpu = sim::ms(1.5);
  sim::Duration render_cpu = sim::ms(4);       // tile encode/decode
  sim::Duration ejb_cpu = sim::us(400);
  sim::Duration catalog_latency = sim::ms(14);
  sim::Duration dataset_latency = sim::ms(12);
  sim::Duration frame_latency = sim::ms(10);
  sim::Duration dashboard_latency = sim::ms(12);
  sim::Duration auth_latency = sim::ms(8);
  sim::Duration steer_latency = sim::ms(12);
  sim::Duration append_latency = sim::ms(10);
  net::Bytes frame_tile_bytes = 48 * 1024;     // rendered frame tile
};

/// GridViz — the §6 "interactive scientific grid-based application":
/// client-side visualization components scrubbing through simulation
/// frames and live instrument dashboards, server-side data processing, and
/// a back-end repository of structured results. Analysts (read-heavy
/// scrubbing) play the Browser role; Operators (steering + instrument
/// appends) play the Buyer/Bidder role.
class GridVizApp {
 public:
  explicit GridVizApp(Shape shape = {}, Calibration cal = {});

  [[nodiscard]] const comp::Application& application() const { return app_; }
  [[nodiscard]] const AppMetadata& metadata() const { return meta_; }
  [[nodiscard]] const Shape& shape() const { return shape_; }

  void install_database(db::Database& db) const;
  void bind_entities(comp::Runtime& rt) const;

  /// The two usage patterns as FSM script models (DESIGN §16). A nonzero
  /// `zipf_s` is refused with std::invalid_argument.
  [[nodiscard]] std::shared_ptr<const workload::FsmScriptModel> fsm_analyst_model(
      double zipf_s) const;
  [[nodiscard]] std::shared_ptr<const workload::FsmScriptModel> fsm_operator_model(
      double zipf_s) const;

  [[nodiscard]] static std::vector<std::pair<std::string, std::string>> table_pages();

  [[nodiscard]] AppDriver driver() const;

  static constexpr int kAnalystSessionLength = 30;

 private:
  void define_components();
  static AppMetadata build_metadata();

  Shape shape_;
  Calibration cal_;
  comp::Application app_;
  AppMetadata meta_;
};

}  // namespace mutsvc::apps::gridviz
