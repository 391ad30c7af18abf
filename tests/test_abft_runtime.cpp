// Unit tests for the ABFT runtime (structure registry, OS error-log
// mapping) and the shared checksum primitives.
#include <gtest/gtest.h>

#include <vector>

#include "abft/checksum.hpp"
#include "abft/common.hpp"
#include "abft/runtime.hpp"
#include "fault/injector.hpp"
#include "os/os.hpp"

namespace abftecc::abft {
namespace {

TEST(Runtime, SoftwareOnlyModeWithoutOs) {
  Runtime rt(nullptr);
  EXPECT_FALSE(rt.hardware_assisted_available());
  EXPECT_FALSE(rt.errors_pending());
  EXPECT_TRUE(rt.drain_located_errors().empty());
}

struct OsRig {
  memsim::MemorySystem sys;
  os::Os os;
  OsRig() : sys(memsim::SystemConfig::scaled(8), ecc::Scheme::kChipkill),
            os(sys) {}
};

TEST(Runtime, MapsExposedErrorToStructureElement) {
  OsRig rig;
  Runtime rt(&rig.os);
  auto* base = static_cast<double*>(
      rig.os.malloc_ecc(256 * sizeof(double), ecc::Scheme::kNone, "v", true));
  const std::size_t id = rt.register_structure("vec", base, 256);

  memsim::FaultSite site;
  rig.sys.controller().report_uncorrectable(
      site, *rig.os.virt_to_phys(base + 37), 1, ecc::Scheme::kNone);
  ASSERT_TRUE(rt.errors_pending());
  const auto errors = rt.drain_located_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].structure_id, id);
  EXPECT_EQ(errors[0].structure_name, "vec");
  EXPECT_EQ(errors[0].element_index, 37u);
  EXPECT_FALSE(rt.errors_pending());
}

TEST(Runtime, ErrorOutsideStructuresReturnsNpos) {
  OsRig rig;
  Runtime rt(&rig.os);
  auto* base = static_cast<double*>(
      rig.os.malloc_ecc(64 * sizeof(double), ecc::Scheme::kNone, "v", true));
  (void)base;
  // Error lands in the ABFT page but no structure claims it.
  memsim::FaultSite site;
  rig.sys.controller().report_uncorrectable(
      site, *rig.os.virt_to_phys(base), 1, ecc::Scheme::kNone);
  const auto errors = rt.drain_located_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].structure_id, Runtime::npos);
}

TEST(Runtime, UnregisteredStructureNoLongerMatches) {
  OsRig rig;
  Runtime rt(&rig.os);
  auto* base = static_cast<double*>(
      rig.os.malloc_ecc(64 * sizeof(double), ecc::Scheme::kNone, "v", true));
  const std::size_t id = rt.register_structure("vec", base, 64);
  rt.unregister_structure(id);
  memsim::FaultSite site;
  rig.sys.controller().report_uncorrectable(
      site, *rig.os.virt_to_phys(base + 5), 1, ecc::Scheme::kNone);
  const auto errors = rt.drain_located_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].structure_id, Runtime::npos);
}

TEST(Runtime, OverlappingStructuresFirstRegisteredWins) {
  OsRig rig;
  Runtime rt(&rig.os);
  auto* base = static_cast<double*>(
      rig.os.malloc_ecc(128 * sizeof(double), ecc::Scheme::kNone, "v", true));
  const std::size_t first = rt.register_structure("first", base, 128);
  rt.register_structure("second", base + 64, 64);
  memsim::FaultSite site;
  rig.sys.controller().report_uncorrectable(
      site, *rig.os.virt_to_phys(base + 100), 1, ecc::Scheme::kNone);
  const auto errors = rt.drain_located_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].structure_id, first);
  EXPECT_EQ(errors[0].element_index, 100u);
}

// --- checksum primitives -------------------------------------------------------

TEST(Checksum, ColumnChecksumsMatchDefinition) {
  Rng rng(1);
  Matrix a = Matrix::random(10, 6, rng);
  std::vector<double> sum(6), weighted(6);
  column_checksums(a.view(), sum, weighted, /*row_offset=*/3, NullTap{});
  for (std::size_t j = 0; j < 6; ++j) {
    double s = 0, w = 0;
    for (std::size_t i = 0; i < 10; ++i) {
      s += a(i, j);
      w += static_cast<double>(i + 1 + 3) * a(i, j);
    }
    EXPECT_NEAR(sum[j], s, 1e-12);
    EXPECT_NEAR(weighted[j], w, 1e-12);
  }
}

TEST(Checksum, VerifyColumnsLocatesSingleErrors) {
  Rng rng(2);
  Matrix a = Matrix::random(20, 8, rng);
  std::vector<double> sum(8), weighted(8);
  column_checksums(a.view(), sum, weighted, 0, NullTap{});
  a(13, 2) += 5.0;
  a(4, 6) -= 2.0;
  const auto errors = verify_columns(a.view(), sum, weighted, 1e-9,
                                     mean_abs(a.view()), 0, NullTap{});
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].column, 2u);
  EXPECT_TRUE(errors[0].locatable);
  EXPECT_EQ(errors[0].row, 13u);
  EXPECT_NEAR(errors[0].magnitude, 5.0, 1e-9);
  EXPECT_EQ(errors[1].column, 6u);
  EXPECT_EQ(errors[1].row, 4u);
}

TEST(Checksum, TwoErrorsSameColumnNotLocatable) {
  Rng rng(3);
  Matrix a = Matrix::random(20, 4, rng);
  std::vector<double> sum(4), weighted(4);
  column_checksums(a.view(), sum, weighted, 0, NullTap{});
  a(3, 1) += 7.0;
  a(15, 1) += 11.0;
  const auto errors = verify_columns(a.view(), sum, weighted, 1e-9,
                                     mean_abs(a.view()), 0, NullTap{});
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_FALSE(errors[0].locatable);
}

TEST(Checksum, RowOffsetRespectedInLocation) {
  Rng rng(4);
  Matrix a = Matrix::random(16, 4, rng);
  std::vector<double> sum(4), weighted(4);
  column_checksums(a.view(), sum, weighted, /*row_offset=*/100, NullTap{});
  a(9, 3) += 2.5;
  const auto errors = verify_columns(a.view(), sum, weighted, 1e-9,
                                     mean_abs(a.view()), 100, NullTap{});
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_TRUE(errors[0].locatable);
  EXPECT_EQ(errors[0].row, 9u);
}

TEST(Checksum, CleanMatrixProducesNoErrors) {
  Rng rng(5);
  Matrix a = Matrix::random(12, 12, rng);
  std::vector<double> sum(12), weighted(12);
  column_checksums(a.view(), sum, weighted, 0, NullTap{});
  EXPECT_TRUE(verify_columns(a.view(), sum, weighted, 1e-9,
                             mean_abs(a.view()), 0, NullTap{})
                  .empty());
}

TEST(PhaseTimerTest, AccumulatesIntoSink) {
  double sink = 0.0;
  {
    PhaseTimer t(sink, TickClock{});
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + 1.0;
  }
  EXPECT_GT(sink, 0.0);
  const double first = sink;
  { PhaseTimer t(sink, TickClock{}); }
  EXPECT_GE(sink, first);
}

TEST(FtStatsTest, OverheadSumsPhases) {
  FtStats st;
  st.encode_seconds = 1.0;
  st.verify_seconds = 2.0;
  st.correct_seconds = 0.5;
  EXPECT_DOUBLE_EQ(st.overhead_seconds(), 3.5);
}

}  // namespace
}  // namespace abftecc::abft
