// Golden end-to-end regression test (ctest label: fault).
//
// Runs the default intersection scenario for 100 ticks (10 s at 10 Hz) at
// seed 42 with the Ours method and no faults, and asserts that the exact
// per-frame dissemination decision list and the simulated-metrics
// fingerprint match the committed snapshot in
// tests/golden/intersection_seed42.golden.
//
// When behavior changes intentionally, regenerate the snapshot with
//   ./test_golden_scenario --update-golden
// (or ERPD_UPDATE_GOLDEN=1) and commit the diff — the point is that such a
// change is visible in review, never silent.
//
// Relevance values are serialized as hexfloats, so the comparison is
// bit-exact, not round-tripped through decimal.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "edge/metrics_io.hpp"
#include "scenario_harness.hpp"

namespace erpd {
namespace {

bool g_update_golden = false;

std::string golden_path() {
  return std::string(ERPD_TESTS_DIR) + "/golden/intersection_seed42.golden";
}

/// Run the pinned scenario and serialize decisions + fingerprint.
std::string render_snapshot() {
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  harness::FaultCase clean;  // all-zero FaultConfig, no degradation policy
  edge::RunnerConfig rc = harness::make_fault_runner(edge::Method::kOurs, clean);
  rc.duration = 10.0;  // 100 ticks at the default 0.1 s frame interval

  std::ostringstream out;
  std::uint64_t decision_hash = 0x6f1d;
  rc.on_decisions = [&](int frame, const std::vector<net::Dissemination>& ds) {
    for (const net::Dissemination& d : ds) {
      char line[160];
      std::snprintf(line, sizeof line, "decision %d to=%d track=%d about=%d "
                    "bytes=%zu rel=%a\n",
                    frame, d.to, d.track_id, d.about, d.bytes, d.relevance);
      out << line;
      decision_hash = harness::fold_decision(decision_hash, frame, d);
    }
  };

  edge::SystemRunner runner(rc);
  const edge::MethodMetrics m = runner.run(sc);

  char tail[192];
  std::snprintf(tail, sizeof tail,
                "decisions_fingerprint 0x%016llx\n"
                "metrics_fingerprint 0x%016llx\n",
                static_cast<unsigned long long>(decision_hash),
                static_cast<unsigned long long>(
                    edge::metrics_fingerprint(m)));
  out << tail;
  return out.str();
}

TEST(GoldenScenario, MatchesCommittedSnapshot) {
  const std::string got = render_snapshot();

  if (g_update_golden || std::getenv("ERPD_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(harness::write_file(golden_path(), got))
        << "cannot write " << golden_path();
    GTEST_SKIP() << "golden updated: " << golden_path();
  }

  std::ifstream f(golden_path());
  ASSERT_TRUE(f) << "missing golden snapshot " << golden_path()
                 << " — run with --update-golden to create it";
  std::stringstream want;
  want << f.rdbuf();

  // Equality over the whole snapshot; on mismatch print the first divergent
  // line so the diff is actionable without digging through hexfloats.
  if (got != want.str()) {
    std::istringstream a(want.str());
    std::istringstream b(got);
    std::string la;
    std::string lb;
    int line = 0;
    while (true) {
      ++line;
      const bool ha = static_cast<bool>(std::getline(a, la));
      const bool hb = static_cast<bool>(std::getline(b, lb));
      if (!ha && !hb) break;
      if (la != lb || ha != hb) {
        FAIL() << "golden mismatch at line " << line << "\n  committed: "
               << (ha ? la : "<eof>") << "\n  got:       "
               << (hb ? lb : "<eof>")
               << "\nIf intentional, regenerate with --update-golden.";
      }
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace erpd

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      erpd::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
