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

namespace mutsvc::apps::rubis {

/// Auction-site sizing, per §3.4: "400 users from 20 regions, selling 400
/// items belonging to 20 categories".
struct Shape {
  int regions = 20;
  int categories = 20;
  int users = 400;
  int items = 400;
  int initial_bids_per_item = 5;
  int initial_comments_per_user = 3;

  [[nodiscard]] std::int64_t item_category(std::int64_t item) const {
    return (item - 1) % categories + 1;
  }
  [[nodiscard]] std::int64_t item_seller(std::int64_t item) const {
    return (item - 1) % users + 1;
  }
  [[nodiscard]] std::int64_t user_region(std::int64_t user) const {
    return (user - 1) % regions + 1;
  }
};

/// Per-page service demands, calibrated to the *centralized local* column
/// of Table 7 ("RUBiS is a significantly more lightweight application").
struct Calibration {
  sim::Duration page_cpu = sim::ms(1.2);
  sim::Duration ejb_cpu = sim::us(400);

  sim::Duration main_latency = sim::ms(10);
  sim::Duration browse_latency = sim::ms(9);
  sim::Duration allcategories_latency = sim::ms(24);
  sim::Duration allregions_latency = sim::ms(18);
  sim::Duration region_latency = sim::ms(26);
  sim::Duration category_latency = sim::ms(28);
  sim::Duration categoryregion_latency = sim::ms(13);
  sim::Duration item_latency = sim::ms(18);
  sim::Duration bids_latency = sim::ms(26);
  sim::Duration userinfo_latency = sim::ms(26);
  sim::Duration putbidauth_latency = sim::ms(9);
  sim::Duration putbidform_latency = sim::ms(18);
  sim::Duration storebid_latency = sim::ms(20);
  sim::Duration putcommentauth_latency = sim::ms(9);
  sim::Duration putcommentform_latency = sim::ms(15);
  sim::Duration storecomment_latency = sim::ms(20);
};

/// RUBiS (Rice University Bidding System, §2.2) in its Session Façade
/// configuration, with the §3.4 modifications (CMP 2.0 finders, stub
/// caching, enlarged database).
class RubisApp {
 public:
  explicit RubisApp(Shape shape = {}, Calibration cal = {});

  [[nodiscard]] const comp::Application& application() const { return app_; }
  [[nodiscard]] const AppMetadata& metadata() const { return meta_; }
  [[nodiscard]] const Shape& shape() const { return shape_; }

  void install_database(db::Database& db) const;
  void bind_entities(comp::Runtime& rt) const;

  /// The two usage patterns (Tables 4 and 5) as FSM script models (DESIGN
  /// §16). Item popularity follows the paper's scripts; a nonzero
  /// `zipf_s` is refused with std::invalid_argument.
  [[nodiscard]] std::shared_ptr<const workload::FsmScriptModel> fsm_browser_model(
      double zipf_s) const;
  [[nodiscard]] std::shared_ptr<const workload::FsmScriptModel> fsm_bidder_model(
      double zipf_s) const;

  /// (pattern, page) rows in Table 7's column order.
  [[nodiscard]] static std::vector<std::pair<std::string, std::string>> table_pages();

  /// Uniform handle for the experiment harness. The RubisApp must outlive
  /// the returned driver.
  [[nodiscard]] AppDriver driver() const;

  static constexpr int kBrowserSessionLength = 40;  // §3.2

 private:
  void define_components();
  static AppMetadata build_metadata();

  Shape shape_;
  Calibration cal_;
  comp::Application app_;
  AppMetadata meta_;
};

}  // namespace mutsvc::apps::rubis
