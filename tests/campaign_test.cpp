// Tests for the parallel simulation-campaign engine (sim/campaign).
#include "rstp/sim/campaign.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rstp/common/check.h"
#include "rstp/sim/search_support.h"

namespace rstp::sim {
namespace {

using protocols::ProtocolKind;

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.protocols = {ProtocolKind::Alpha, ProtocolKind::Beta};
  spec.timings = {core::TimingParams::make(1, 1, 4)};
  spec.alphabets = {4};
  spec.environments = {core::Environment::worst_case(), core::Environment::randomized(1)};
  spec.seeds_per_cell = 2;
  spec.input_bits = 16;
  spec.campaign_seed = 42;
  return spec;
}

/// A 64-job grid (4 protocols × 2 timings × 2 alphabets × 2 environments ×
/// 2 seeds): large enough that the thread pool has real work to steal.
CampaignSpec reference_campaign_spec() {
  CampaignSpec spec;
  spec.protocols = {ProtocolKind::Alpha, ProtocolKind::Beta, ProtocolKind::Gamma,
                    ProtocolKind::AltBit};
  spec.timings = {core::TimingParams::make(1, 1, 4), core::TimingParams::make(1, 2, 8)};
  spec.alphabets = {4, 16};
  spec.environments = {core::Environment::worst_case(), core::Environment::randomized(1)};
  spec.seeds_per_cell = 2;
  spec.input_bits = 256;
  spec.campaign_seed = 0xCA3BA167;
  return spec;
}

TEST(CampaignSpec, JobCountIsTheGridProduct) {
  const CampaignSpec spec = small_spec();
  EXPECT_EQ(spec.job_count(), 2u * 1u * 1u * 2u * 2u);
}

TEST(CampaignSpec, ValidateRejectsEmptyAxes) {
  CampaignSpec spec = small_spec();
  spec.protocols.clear();
  EXPECT_THROW(Campaign{spec}, ContractViolation);
  spec = small_spec();
  spec.alphabets.clear();
  EXPECT_THROW(Campaign{spec}, ContractViolation);
  spec = small_spec();
  spec.seeds_per_cell = 0;
  EXPECT_THROW(Campaign{spec}, ContractViolation);
}

TEST(Campaign, JobEnumerationCoversTheGridWithDistinctSeeds) {
  const Campaign campaign{small_spec()};
  std::set<std::pair<std::uint64_t, std::uint64_t>> seeds;
  std::size_t alpha_jobs = 0;
  for (std::size_t i = 0; i < campaign.job_count(); ++i) {
    const CampaignJob job = campaign.job(i);
    EXPECT_EQ(job.index, i);
    seeds.insert({job.environment.seed, job.input_seed});
    if (job.protocol == ProtocolKind::Alpha) ++alpha_jobs;
  }
  // SplitMix64 derivation: every job gets its own (env, input) seed pair.
  EXPECT_EQ(seeds.size(), campaign.job_count());
  EXPECT_EQ(alpha_jobs, campaign.job_count() / 2);
}

TEST(Campaign, SerialRunIsCorrectAndAggregated) {
  const Campaign campaign{small_spec()};
  const CampaignResult result = campaign.run(1);
  ASSERT_EQ(result.jobs.size(), campaign.job_count());
  EXPECT_TRUE(result.all_correct());
  EXPECT_EQ(result.incorrect, 0u);
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    EXPECT_EQ(result.jobs[i].index, i);
    EXPECT_TRUE(result.jobs[i].output_correct);
    EXPECT_FALSE(result.jobs[i].failed);
    events += result.jobs[i].event_count;
  }
  EXPECT_EQ(result.total_events, events);
  EXPECT_GE(result.effort.max, result.effort.mean);
  EXPECT_GE(result.effort.mean, result.effort.min);
  EXPECT_GT(result.effort.min, 0.0);
}

TEST(Campaign, FourThreadResultIsBitwiseIdenticalToSerial) {
  // The ISSUE's determinism contract, on the reference 64-job grid: the
  // merged result must compare equal field-for-field (defaulted operator==
  // over every job row and aggregate) whatever the thread count.
  const Campaign campaign{reference_campaign_spec()};
  ASSERT_EQ(campaign.job_count(), 64u);
  const CampaignResult serial = campaign.run(1);
  EXPECT_EQ(serial.incorrect, 0u);
  const CampaignResult parallel = campaign.run(4);
  EXPECT_TRUE(serial == parallel);
  const CampaignResult two = campaign.run(2);
  EXPECT_TRUE(serial == two);
}

TEST(Campaign, ThreadCountZeroMeansHardwareConcurrency) {
  const Campaign campaign{small_spec()};
  const CampaignResult serial = campaign.run(1);
  const CampaignResult automatic = campaign.run(0);
  EXPECT_TRUE(serial == automatic);
}

TEST(Campaign, ZeroProgressIntervalIsRejected) {
  // interval == 0 used to make the monitor thread busy-spin through
  // wait_for timeouts; it is now a contract violation whenever any
  // progress sink (stream or snapshot hook) is attached.
  const Campaign campaign{small_spec()};
  std::ostringstream sink;
  CampaignProgress progress;
  progress.out = &sink;
  progress.interval = std::chrono::milliseconds{0};
  EXPECT_THROW((void)campaign.run(1, progress), ContractViolation);
  progress.out = nullptr;
  progress.on_snapshot = [](const CampaignSnapshot&) {};
  EXPECT_THROW((void)campaign.run(1, progress), ContractViolation);
  // With no sink at all the interval is irrelevant and must not throw.
  progress.on_snapshot = nullptr;
  EXPECT_TRUE(campaign.run(1) == campaign.run(1, progress));
}

TEST(Campaign, SingleJobRerunMatchesTheCampaignRow) {
  // run_campaign_job is the worker body: rerunning one cell standalone must
  // reproduce the row the full campaign recorded for it.
  const Campaign campaign{small_spec()};
  const CampaignResult result = campaign.run(1);
  const CampaignSpec& spec = campaign.spec();
  for (const std::size_t index : {std::size_t{0}, campaign.job_count() - 1}) {
    const CampaignJobResult rerun =
        run_campaign_job(campaign.job(index), spec.input_bits, spec.max_events);
    EXPECT_TRUE(rerun == result.jobs[index]) << "job " << index;
  }
}

// parallel_for_slots is the one worker pool behind Campaign, MultiSession,
// the fuzzer and the adversary search.
TEST(ParallelForSlots, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kSlotCounts[] = {0, 1, 5, 100};
  for (const std::size_t n : kSlotCounts) {
    for (const unsigned jobs : {0u, 1u, 3u, 8u}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for_slots(n, jobs, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " jobs=" << jobs << " i=" << i;
      }
    }
  }
}

TEST(ParallelForSlots, SlotExceptionIsRethrownOnTheCallerAndStopsClaims) {
  // Slot 0 throws; every other slot sleeps, so a pool that kept claiming
  // after the failure would run all of them.
  constexpr std::size_t kSlots = 200;
  for (const unsigned jobs : {1u, 3u}) {
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id thrower;
    std::atomic<std::size_t> ran{0};
    try {
      parallel_for_slots(kSlots, jobs, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 0) {
          thrower = std::this_thread::get_id();
          throw std::runtime_error("slot 0");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
      });
      ADD_FAILURE() << "jobs=" << jobs << ": the slot's exception did not propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "slot 0");
    }
    // One job runs inline on the caller; more jobs throw on a worker thread
    // and the exception crosses back to the caller.
    EXPECT_EQ(thrower == caller, jobs == 1) << "jobs=" << jobs;
    if (jobs == 1) {
      EXPECT_EQ(ran.load(), 1u);
    } else {
      EXPECT_LT(ran.load(), kSlots) << "jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace rstp::sim
