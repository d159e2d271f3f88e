// Sweep runner determinism: the properties DESIGN.md §12 promises.
// Identical grids must digest identically at any worker count (thread
// timing must be invisible in the output), shards must union to the
// unsharded run, and per-job seeds must be pure functions of grid
// coordinates.
#include "app/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace qa::app {
namespace {

// A grid small enough for CI but wide enough to exercise every axis and
// keep 8 workers busy.
SweepGrid small_grid() {
  SweepGrid grid;
  grid.base.duration_sec = 2;
  grid.base.rap_flows = 1;
  grid.base.tcp_flows = 0;
  grid.seeds = {1, 2};
  grid.kmax = {1, 2};
  grid.bottleneck_kbps = {240, 800};
  return grid;  // 2 * 2 * 2 = 8 scenarios
}

TEST(SweepTest, GridSizeAndCoordinateDecomposition) {
  const SweepGrid grid = small_grid();
  ASSERT_EQ(grid.size(), 8u);
  // Faults vary fastest, seeds slowest: index 0 and 1 differ only in the
  // fastest non-trivial axis (bottleneck), the last index takes every
  // axis's last value.
  const ExperimentParams p0 = grid.params_at(0);
  const ExperimentParams p1 = grid.params_at(1);
  EXPECT_EQ(p0.kmax, 1);
  EXPECT_DOUBLE_EQ(p0.bottleneck.bps(), 240'000.0 / 8);
  EXPECT_DOUBLE_EQ(p1.bottleneck.bps(), 800'000.0 / 8);
  const ExperimentParams p7 = grid.params_at(7);
  EXPECT_EQ(p7.kmax, 2);
  EXPECT_DOUBLE_EQ(p7.bottleneck.bps(), 800'000.0 / 8);
  EXPECT_THROW(grid.params_at(8), std::invalid_argument);
}

TEST(SweepTest, DerivedSeedIsAFunctionOfCoordinatesOnly) {
  const SweepGrid grid = small_grid();
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(derive_job_seed(grid, i), derive_job_seed(grid, i));
    EXPECT_NE(derive_job_seed(grid, i), 0u);
    for (size_t j = i + 1; j < grid.size(); ++j) {
      EXPECT_NE(derive_job_seed(grid, i), derive_job_seed(grid, j))
          << "indices " << i << " and " << j;
    }
  }
  // The derived seed rides into the job's parameters.
  EXPECT_EQ(grid.params_at(3).seed, derive_job_seed(grid, 3));
}

TEST(SweepTest, JobCountDoesNotChangeTheOutput) {
  const SweepGrid grid = small_grid();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;

  const SweepResult a = run_sweep(grid, serial);
  const SweepResult b = run_sweep(grid, parallel);
  ASSERT_EQ(a.rows.size(), grid.size());
  ASSERT_EQ(b.rows.size(), grid.size());
  EXPECT_EQ(sweep_digest(a.rows), sweep_digest(b.rows));
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_TRUE(a.rows[i].ok) << "scenario " << i;
    EXPECT_EQ(sweep_row_cells(a.rows[i]), sweep_row_cells(b.rows[i]))
        << "scenario " << i;
  }
}

TEST(SweepTest, ShardUnionEqualsUnshardedRun) {
  const SweepGrid grid = small_grid();
  SweepOptions whole;
  whole.jobs = 4;
  const SweepResult full = run_sweep(grid, whole);

  std::vector<SweepRow> merged;
  for (int shard = 0; shard < 2; ++shard) {
    SweepOptions opts;
    opts.jobs = 4;
    opts.shard_index = shard;
    opts.shard_count = 2;
    const SweepResult part = run_sweep(grid, opts);
    for (const SweepRow& r : part.rows) {
      EXPECT_EQ(r.index % 2, static_cast<size_t>(shard));
      merged.push_back(r);
    }
  }
  ASSERT_EQ(merged.size(), full.rows.size());
  std::sort(merged.begin(), merged.end(),
            [](const SweepRow& a, const SweepRow& b) {
              return a.index < b.index;
            });
  EXPECT_EQ(sweep_digest(merged), sweep_digest(full.rows));
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(sweep_row_cells(merged[i]), sweep_row_cells(full.rows[i]));
  }
}

// The backend axis composes with the rest of the grid: it multiplies the
// size, varies fastest (existing single-backend grids keep their index
// decomposition for every other axis), rides into params and rows, and
// stays deterministic across worker counts and shard splits.
TEST(SweepTest, BackendAxisDecomposesShardsAndDigestsDeterministically) {
  SweepGrid grid = small_grid();
  grid.bottleneck_kbps = {240};  // keep CI cost at 2*2*3 = 12 scenarios
  grid.backends = {cc::Backend::kRap, cc::Backend::kTfrc, cc::Backend::kNada};
  ASSERT_EQ(grid.size(), 12u);

  // Fastest-varying: consecutive indices walk the backend list first.
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid.params_at(i).backend, grid.backends[i % 3]) << i;
  }
  EXPECT_EQ(grid.params_at(0).kmax, grid.params_at(2).kmax);

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  const SweepResult a = run_sweep(grid, serial);
  const SweepResult b = run_sweep(grid, parallel);
  ASSERT_EQ(a.rows.size(), 12u);
  EXPECT_EQ(sweep_digest(a.rows), sweep_digest(b.rows));

  // Shard union over the backend-bearing grid equals the unsharded run.
  std::vector<SweepRow> merged;
  for (int shard = 0; shard < 3; ++shard) {
    SweepOptions opts;
    opts.jobs = 2;
    opts.shard_index = shard;
    opts.shard_count = 3;
    const SweepResult part = run_sweep(grid, opts);
    merged.insert(merged.end(), part.rows.begin(), part.rows.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const SweepRow& x, const SweepRow& y) {
              return x.index < y.index;
            });
  ASSERT_EQ(merged.size(), a.rows.size());
  EXPECT_EQ(sweep_digest(merged), sweep_digest(a.rows));

  // Every row carries its backend, and the CSV has the column.
  for (const SweepRow& r : a.rows) {
    EXPECT_TRUE(r.ok) << "scenario " << r.index;
    EXPECT_EQ(r.backend, grid.backends[r.index % 3]);
  }
  const auto& cols = sweep_columns();
  EXPECT_NE(std::find(cols.begin(), cols.end(), "backend"), cols.end());
}

TEST(SweepTest, RejectsBadOptionsAndEmptyAxes) {
  const SweepGrid grid = small_grid();
  SweepOptions opts;
  opts.jobs = 0;
  EXPECT_THROW(run_sweep(grid, opts), std::invalid_argument);
  opts.jobs = 1;
  opts.shard_index = 2;
  opts.shard_count = 2;
  EXPECT_THROW(run_sweep(grid, opts), std::invalid_argument);

  SweepGrid empty = grid;
  empty.kmax.clear();
  EXPECT_THROW(empty.size(), std::invalid_argument);
  EXPECT_THROW(run_sweep(empty, SweepOptions{}), std::invalid_argument);
}

TEST(SweepTest, CrossTrafficRowRecordsPerFlowGoodput) {
  SweepGrid grid;
  grid.base.duration_sec = 3;
  grid.base.rap_flows = 2;   // QA flow + one plain RAP competitor
  grid.base.tcp_flows = 1;
  grid.base.with_cbr = true;
  const SweepResult r = run_sweep(grid, SweepOptions{});
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_TRUE(r.rows[0].ok);
  EXPECT_GT(r.rows[0].qa_mean_rate_bps, 0);
  EXPECT_GT(r.rows[0].mean_rap_rate_bps, 0);
  EXPECT_GT(r.rows[0].mean_tcp_rate_bps, 0);

  // And the merged CSV carries the per-flow goodput columns.
  const auto& cols = sweep_columns();
  EXPECT_NE(std::find(cols.begin(), cols.end(), "qa_mean_rate_bps"),
            cols.end());
  EXPECT_NE(std::find(cols.begin(), cols.end(), "mean_rap_rate_bps"),
            cols.end());
  EXPECT_NE(std::find(cols.begin(), cols.end(), "mean_tcp_rate_bps"),
            cols.end());
  EXPECT_EQ(sweep_row_cells(r.rows[0]).size(), cols.size());
}

TEST(SweepTest, ArtifactsRoundTripThroughRundiff) {
  const SweepGrid grid = small_grid();
  SweepOptions opts;
  opts.jobs = 4;
  opts.out_dir =
      (std::filesystem::temp_directory_path() / "qa_sweep_test_out").string();
  std::filesystem::create_directories(opts.out_dir);
  const SweepResult r = run_sweep(grid, opts);

  // sweep.json is in metrics.json shape: rundiff must load it and agree on
  // the canonical digest.
  RunFields loaded;
  std::string error;
  ASSERT_TRUE(load_run_fields(opts.out_dir + "/sweep.json", &loaded, &error))
      << error;
  EXPECT_EQ(loaded.size(), sweep_fields(r.rows).size());
  EXPECT_EQ(canonical_digest(loaded, RunDiffRules{}), sweep_digest(r.rows));

  // CSV: header plus one line per scenario.
  std::ifstream csv(opts.out_dir + "/sweep.csv");
  ASSERT_TRUE(csv.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(csv, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, 1 + grid.size());
}

TEST(SweepTest, ListParsers) {
  EXPECT_EQ(parse_int_list("1,2,3"), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(parse_u64_list("7"), (std::vector<uint64_t>{7}));
  const std::vector<double> d = parse_double_list("0.5,1e3");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0], 0.5);
  EXPECT_DOUBLE_EQ(d[1], 1000.0);
  EXPECT_THROW(parse_int_list(""), std::invalid_argument);
  EXPECT_THROW(parse_int_list("1,,2"), std::invalid_argument);
  EXPECT_THROW(parse_int_list("1,x"), std::invalid_argument);
  EXPECT_THROW(parse_double_list("1.5mm"), std::invalid_argument);
  EXPECT_THROW(parse_int_list("99999999999"), std::invalid_argument);
  EXPECT_THROW(parse_backend_list("rap,cubic"), std::invalid_argument);
}

// A rejected element is named, not reported as a bare "stoi".
TEST(SweepTest, ListParsersNameTheBadElement) {
  try {
    parse_int_list("1,x");
    FAIL() << "1,x parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "invalid list element 'x' (want an integer)");
  }
  try {
    parse_backend_list("rap,cubic");
    FAIL() << "rap,cubic parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'cubic'"), std::string::npos);
  }
}

}  // namespace
}  // namespace qa::app
