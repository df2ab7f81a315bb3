// Cost-model tests: the module must reproduce the paper's own arithmetic
// when fed the paper's measured numbers (167 ms/request on a 1 GiB shard),
// i.e. Table 2's C4 row and the §4 monthly-cost estimate.
#include <gtest/gtest.h>

#include "costmodel/costmodel.h"

namespace lw::cost {
namespace {

ShardMeasurement PaperShard() {
  // §5.1: 64 ms DPF evaluation + 103 ms scan on a 1 GiB shard, d = 22.
  ShardMeasurement m;
  m.dpf_ms = 64;
  m.scan_ms = 103;
  m.shard_gib = 1.0;
  m.domain_bits = 22;
  return m;
}

TEST(CostModel, ReproducesTable2C4Row) {
  const ScaleEstimate e =
      EstimateScale(C4Dataset(), PaperShard(), InstanceSpec{}, 4096);
  EXPECT_EQ(e.num_shards, 305);
  // Paper: "each request requires 1.7 vCPU minutes" per logical server and
  // 3.4 vCPU-minutes (= 204 vCPU-sec, the Table 2 cell) system-wide.
  EXPECT_NEAR(e.vcpu_seconds_one_server, 102.0, 2.0);
  EXPECT_NEAR(e.vcpu_seconds_system, 204.0, 4.0);
  // Paper: $0.001 per request per logical server, $0.002 system-wide.
  EXPECT_NEAR(e.usd_per_request_one_server, 0.001, 0.0003);
  EXPECT_NEAR(e.usd_per_request_system, 0.002, 0.0006);
  // Download: two 4 KiB buckets.
  EXPECT_NEAR(e.download_kib, 8.0, 0.01);
  // Our DPF keys are dpf::KeySize(22) = 289 B each; the paper's library
  // ships ~2.8 KiB keys. Check our own accounting, not theirs.
  EXPECT_GT(e.upload_kib, 0.5);
  EXPECT_LT(e.upload_kib, 2.0);
  EXPECT_NEAR(e.total_comm_kib, e.upload_kib + e.download_kib, 1e-9);
}

TEST(CostModel, WikipediaRowShape) {
  const ScaleEstimate wiki =
      EstimateScale(WikipediaDataset(), PaperShard(), InstanceSpec{}, 4096);
  const ScaleEstimate c4 =
      EstimateScale(C4Dataset(), PaperShard(), InstanceSpec{}, 4096);
  EXPECT_EQ(wiki.num_shards, 21);
  // Table 2 shape: Wikipedia ≈ 10 vCPU-sec vs C4's 204 — about 15-20×
  // cheaper, with identical per-request communication.
  EXPECT_LT(wiki.vcpu_seconds_system, c4.vcpu_seconds_system / 10);
  EXPECT_NEAR(wiki.vcpu_seconds_system, 14.0, 4.0);
  EXPECT_LT(wiki.usd_per_request_system, 0.0002);
  EXPECT_NEAR(wiki.total_comm_kib, c4.total_comm_kib, 1e-9);
}

TEST(CostModel, MonthlyUserCostNearFifteenDollars) {
  // §4: 50 pages/day × 5 data-GETs × 30 days at the C4 per-request cost
  // "roughly $15 (comparable to the cost of a Netflix membership)".
  const ScaleEstimate e =
      EstimateScale(C4Dataset(), PaperShard(), InstanceSpec{}, 4096);
  const double monthly = MonthlyUserCostUsd(e, UserProfile{});
  EXPECT_NEAR(monthly, 15.0, 4.0);
}

TEST(CostModel, GoogleFiComparisons) {
  // §5.2: loading the 22.4 MiB NYT homepage over $10/GiB Fi ≈ $0.218.
  EXPECT_NEAR(GoogleFiCostForBytes(kNytHomepageMib * 1024 * 1024), 0.218,
              0.002);
  // Loading one 4 KiB value over Fi ≈ $0.000038 — about two orders of
  // magnitude below ZLTP's $0.002.
  const double fi_4k = GoogleFiCostForBytes(4096);
  EXPECT_NEAR(fi_4k, 0.000038, 0.000002);
  const ScaleEstimate e =
      EstimateScale(C4Dataset(), PaperShard(), InstanceSpec{}, 4096);
  const double ratio = e.usd_per_request_system / fi_4k;
  EXPECT_GT(ratio, 20);
  EXPECT_LT(ratio, 200);
}

TEST(CostModel, TrendProjection) {
  // 16× per 5 years → "in 5 years ... drop by an order of magnitude".
  EXPECT_NEAR(ProjectedRequestCostUsd(0.002, 5), 0.002 / 16, 1e-6);
  EXPECT_NEAR(ProjectedRequestCostUsd(0.002, 0), 0.002, 1e-12);
  EXPECT_LT(ProjectedRequestCostUsd(0.002, 10), 0.002 / 100);
}

TEST(CostModel, ScalesWithShardMeasurement) {
  // Twice the per-shard wall time → twice the cost.
  ShardMeasurement slow = PaperShard();
  slow.scan_ms *= 2;
  slow.dpf_ms *= 2;
  const ScaleEstimate base =
      EstimateScale(C4Dataset(), PaperShard(), InstanceSpec{}, 4096);
  const ScaleEstimate doubled =
      EstimateScale(C4Dataset(), slow, InstanceSpec{}, 4096);
  EXPECT_NEAR(doubled.usd_per_request_system,
              2 * base.usd_per_request_system, 1e-9);
}

TEST(CostModel, InstanceSpecDefaultsMatchPaper) {
  const InstanceSpec spec;
  EXPECT_EQ(spec.name, "c5.large");
  EXPECT_EQ(spec.vcpus, 2);
  EXPECT_DOUBLE_EQ(spec.usd_per_hour, 0.085);
}

}  // namespace
}  // namespace lw::cost
