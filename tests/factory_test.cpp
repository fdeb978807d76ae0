// Tests for the protocol factory and the kind metadata.
#include "rstp/protocols/factory.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "rstp/common/check.h"
#include "rstp/core/effort.h"
#include "rstp/est/estimator.h"

namespace rstp::protocols {
namespace {

ProtocolConfig valid_config(ProtocolKind kind) {
  ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 8);
  cfg.k = kind == ProtocolKind::Indexed ? 64u : 8u;
  cfg.input = core::make_random_input(16, 1);
  return cfg;
}

TEST(Factory, EveryKindConstructs) {
  for (const auto kind : kAllProtocolKinds) {
    const ProtocolInstance instance = make_protocol(kind, valid_config(kind));
    ASSERT_NE(instance.transmitter, nullptr) << to_string(kind);
    ASSERT_NE(instance.receiver, nullptr) << to_string(kind);
    // Fresh automata are in their start states: nothing transmitted yet.
    EXPECT_FALSE(instance.transmitter->transmission_complete()) << to_string(kind);
    EXPECT_TRUE(instance.receiver->output().empty()) << to_string(kind);
  }
}

/// valid_config(kind) with n input bits; Indexed's alphabet grows with n.
ProtocolConfig config_with_bits(ProtocolKind kind, std::size_t n) {
  ProtocolConfig cfg = valid_config(kind);
  cfg.input = core::make_random_input(n, 1);
  if (kind == ProtocolKind::Indexed) cfg.k = static_cast<std::uint32_t>(2 * n);
  return cfg;
}

/// The same, for the estimator-driven β/γ pair.
ProtocolConfig adaptive_config(ProtocolKind kind, std::size_t n) {
  ProtocolConfig cfg = config_with_bits(kind, n);
  cfg.planner = std::make_shared<est::BlockPlanner>(
      kind == ProtocolKind::Beta ? est::BlockPlanner::Discipline::TimedBlocks
                                 : est::BlockPlanner::Discipline::AckedBlocks,
      cfg.k, cfg.input, std::make_shared<est::TimingEstimator>(est::EstimatorConfig{}));
  return cfg;
}

void expect_static_names(ProtocolKind kind, const ProtocolConfig& small,
                         const ProtocolConfig& large) {
  const ProtocolInstance a = make_protocol(kind, small);
  const ProtocolInstance b = make_protocol(kind, large);
  EXPECT_FALSE(a.transmitter->name().empty());
  EXPECT_FALSE(a.receiver->name().empty());
  EXPECT_NE(a.transmitter->name(), a.receiver->name());
  EXPECT_EQ(a.transmitter->name(), b.transmitter->name());
  EXPECT_EQ(a.receiver->name(), b.receiver->name());
}

TEST(Factory, AutomatonNamesAreDistinctAndIndependentOfTheConfig) {
  for (const auto kind : kAllProtocolKinds) {
    SCOPED_TRACE(to_string(kind));
    expect_static_names(kind, config_with_bits(kind, 1), config_with_bits(kind, 64));
  }
  for (const auto kind : {ProtocolKind::Beta, ProtocolKind::Gamma}) {
    SCOPED_TRACE(testing::Message() << "adaptive " << to_string(kind));
    expect_static_names(kind, adaptive_config(kind, 1), adaptive_config(kind, 64));
  }
}

TEST(Factory, NamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (const auto kind : kAllProtocolKinds) {
    names.insert(std::string{to_string(kind)});
  }
  EXPECT_EQ(names.size(), std::size(kAllProtocolKinds));
  EXPECT_EQ(to_string(ProtocolKind::Alpha), "alpha");
  EXPECT_EQ(to_string(ProtocolKind::Beta), "beta");
  EXPECT_EQ(to_string(ProtocolKind::Gamma), "gamma");
  EXPECT_EQ(to_string(ProtocolKind::AltBit), "altbit");
  EXPECT_EQ(to_string(ProtocolKind::Strawman), "strawman");
  EXPECT_EQ(to_string(ProtocolKind::Indexed), "indexed");
  EXPECT_EQ(to_string(ProtocolKind::WindowedGamma), "gammaw");
}

TEST(Factory, StreamInsertionMatchesToString) {
  std::ostringstream os;
  os << ProtocolKind::Gamma;
  EXPECT_EQ(os.str(), "gamma");
}

TEST(Factory, RPassivePartitionMatchesThePaper) {
  // r-passive = the receiver sends no packets (P^rt = ∅).
  EXPECT_TRUE(is_r_passive(ProtocolKind::Alpha));
  EXPECT_TRUE(is_r_passive(ProtocolKind::Beta));
  EXPECT_TRUE(is_r_passive(ProtocolKind::Strawman));
  EXPECT_TRUE(is_r_passive(ProtocolKind::Indexed));
  EXPECT_FALSE(is_r_passive(ProtocolKind::Gamma));
  EXPECT_FALSE(is_r_passive(ProtocolKind::AltBit));
  EXPECT_FALSE(is_r_passive(ProtocolKind::WindowedGamma));
}

TEST(Factory, RPassiveMetadataMatchesBehaviour) {
  // Dynamic check: a full worst-case run of an r-passive protocol must have
  // zero receiver sends; an active one must have at least one.
  for (const auto kind : kAllProtocolKinds) {
    if (kind == ProtocolKind::Strawman) continue;  // corrupts under some envs; skip
    const core::ProtocolRun run =
        core::run_protocol(kind, valid_config(kind), core::Environment::worst_case());
    ASSERT_TRUE(run.output_correct) << to_string(kind);
    if (is_r_passive(kind)) {
      EXPECT_EQ(run.result.receiver_sends, 0u) << to_string(kind);
    } else {
      EXPECT_GT(run.result.receiver_sends, 0u) << to_string(kind);
    }
  }
}

TEST(Factory, InvalidConfigurationsRejected) {
  ProtocolConfig bad_k = valid_config(ProtocolKind::Beta);
  bad_k.k = 1;
  EXPECT_THROW((void)make_protocol(ProtocolKind::Beta, bad_k), ContractViolation);

  ProtocolConfig bad_bits = valid_config(ProtocolKind::Beta);
  bad_bits.input = {0, 1, 2};
  EXPECT_THROW((void)make_protocol(ProtocolKind::Beta, bad_bits), ContractViolation);

  ProtocolConfig bad_override = valid_config(ProtocolKind::Beta);
  bad_override.block_size_override = 0;
  EXPECT_THROW((void)make_protocol(ProtocolKind::Beta, bad_override), ContractViolation);

  ProtocolConfig small_indexed = valid_config(ProtocolKind::Indexed);
  small_indexed.k = 8;  // < 2·16
  EXPECT_THROW((void)make_protocol(ProtocolKind::Indexed, small_indexed), ContractViolation);

  ProtocolConfig odd_windowed = valid_config(ProtocolKind::WindowedGamma);
  odd_windowed.k = 7;
  EXPECT_THROW((void)make_protocol(ProtocolKind::WindowedGamma, odd_windowed),
               ContractViolation);
}

TEST(Factory, PaperKindsAreASubsetOfAllKinds) {
  for (const auto kind : kPaperProtocolKinds) {
    bool found = false;
    for (const auto all : kAllProtocolKinds) {
      found = found || all == kind;
    }
    EXPECT_TRUE(found) << to_string(kind);
  }
}

}  // namespace
}  // namespace rstp::protocols
