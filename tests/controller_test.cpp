#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "mlc/controller.hpp"
#include "util/error.hpp"

namespace oxmlc::mlc {
namespace {

using Levels = std::vector<std::size_t>;

struct ControllerFixture : public ::testing::Test {
  ControllerFixture()
      : config(QlcConfig::paper_default(4, 13)),
        programmer(config),
        controller(programmer, 4, 8, 314) {}

  QlcConfig config;
  QlcProgrammer programmer;
  MemoryController controller;
};

TEST_F(ControllerFixture, Geometry) {
  EXPECT_EQ(controller.word_count(), 4u);
  EXPECT_EQ(controller.cells_per_word(), 8u);
}

TEST_F(ControllerFixture, PackedWordRoundTrip) {
  const Levels levels = {15, 14, 14, 11, 13, 10, 14, 13};
  const auto stats = controller.write_word_levels(0, levels);
  EXPECT_EQ(stats.unterminated, 0u);
  EXPECT_GT(stats.energy, 0.0);
  EXPECT_GT(stats.latency, 0.0);
  EXPECT_EQ(controller.read_word_levels(0), levels);
}

TEST_F(ControllerFixture, EveryWordIndependent) {
  const Levels words[4] = {Levels(8, 0),
                           Levels(8, 15),
                           {8, 7, 6, 5, 4, 3, 2, 1},
                           {13, 0, 0, 15, 14, 15, 10, 12}};
  for (std::size_t row = 0; row < 4; ++row) controller.write_word_levels(row, words[row]);
  for (std::size_t row = 0; row < 4; ++row) {
    EXPECT_EQ(controller.read_word_levels(row), words[row]) << row;
  }
}

TEST_F(ControllerFixture, ParallelLatencyIsMaxOfBits) {
  // A word mixing the fastest (level 0) and slowest (level 15) bits must take
  // as long as its slowest bit, not the sum.
  std::vector<std::size_t> levels = {0, 15, 0, 0, 0, 0, 0, 0};
  const auto mixed = controller.write_word_levels(0, levels);
  std::vector<std::size_t> all_fast(8, 0);
  const auto fast = controller.write_word_levels(1, all_fast);
  std::vector<std::size_t> all_slow(8, 15);
  const auto slow = controller.write_word_levels(2, all_slow);
  EXPECT_GT(mixed.latency, 2.0 * fast.latency);
  EXPECT_LT(mixed.latency, 1.5 * slow.latency);
  // Energy is additive: the mixed word costs between the two extremes.
  EXPECT_GT(mixed.energy, fast.energy);
  EXPECT_LT(mixed.energy, slow.energy);
}

TEST_F(ControllerFixture, RewriteWords) {
  controller.write_word_levels(3, Levels(8, 10));
  EXPECT_EQ(controller.read_word_levels(3), Levels(8, 10));
  controller.write_word_levels(3, Levels(8, 5));
  EXPECT_EQ(controller.read_word_levels(3), Levels(8, 5));
  EXPECT_EQ(controller.words_written(), 2u);
  EXPECT_GT(controller.total_energy(), 0.0);
}

TEST_F(ControllerFixture, LevelVectorArityChecked) {
  std::vector<std::size_t> wrong(3, 0);
  EXPECT_THROW(controller.write_word_levels(0, wrong), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Scrub edge behavior (regression coverage for scrub_word / scrub_all)
// ---------------------------------------------------------------------------

TEST_F(ControllerFixture, ScrubWordOutOfRangeNamesIndexAndDims) {
  // The error must carry the (row, col) + dims phrasing of FastArray::at() so
  // an operator can tell WHICH access failed against WHICH geometry.
  try {
    controller.scrub_word(17);
    FAIL() << "scrub_word(17) on a 4-word array did not throw";
  } catch (const InvalidArgumentError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("(17, 0)"), std::string::npos) << message;
    EXPECT_NE(message.find("4x8"), std::string::npos) << message;
    EXPECT_NE(message.find("out of range"), std::string::npos) << message;
  }
}

TEST_F(ControllerFixture, ScrubWordCountsNeverWrittenAsSkipped) {
  const ScrubStats skipped = controller.scrub_word(2);
  EXPECT_EQ(skipped.words, 0u);
  EXPECT_EQ(skipped.words_skipped, 1u);
  EXPECT_EQ(skipped.cells_checked, 0u);
  EXPECT_EQ(skipped.cells_scrubbed, 0u);
  EXPECT_EQ(skipped.energy, 0.0);
}

TEST_F(ControllerFixture, ScrubAllSeparatesVisitedFromSkipped) {
  controller.write_word_levels(0, Levels{15, 13, 11, 9, 7, 5, 3, 1});
  controller.write_word_levels(3, Levels{0, 14, 12, 10, 8, 6, 4, 2});
  const ScrubStats total = controller.scrub_all();
  EXPECT_EQ(total.words, 2u);          // the two written rows were re-sensed
  EXPECT_EQ(total.words_skipped, 2u);  // rows 1 and 2 visibly skipped
  EXPECT_EQ(total.cells_checked, 2u * controller.cells_per_word());
}

TEST_F(ControllerFixture, ScrubbedWrittenWordIsCountedNotSkipped) {
  controller.write_word_levels(1, Levels{13, 0, 0, 15, 13, 14, 14, 15});
  const ScrubStats stats = controller.scrub_word(1);
  EXPECT_EQ(stats.words, 1u);
  EXPECT_EQ(stats.words_skipped, 0u);
  EXPECT_EQ(stats.cells_checked, controller.cells_per_word());
  // Freshly written with no drift applied: nothing to re-terminate.
  EXPECT_EQ(stats.cells_scrubbed, 0u);
}

}  // namespace
}  // namespace oxmlc::mlc
