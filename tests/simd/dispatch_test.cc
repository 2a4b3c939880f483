#include "simd/dispatch.h"

#include <gtest/gtest.h>

namespace vulnds::simd {
namespace {

TEST(SimdDispatchTest, ParseAcceptsKnobVocabularyCaseInsensitive) {
  const struct {
    const char* text;
    SimdMode mode;
  } cases[] = {
      {"auto", SimdMode::kAuto},     {"AUTO", SimdMode::kAuto},
      {"Auto", SimdMode::kAuto},     {"scalar", SimdMode::kScalar},
      {"SCALAR", SimdMode::kScalar}, {"avx2", SimdMode::kAvx2},
      {"AVX2", SimdMode::kAvx2},     {"Avx2", SimdMode::kAvx2},
  };
  for (const auto& c : cases) {
    Result<SimdMode> m = ParseSimdMode(c.text);
    ASSERT_TRUE(m.ok()) << c.text;
    EXPECT_EQ(*m, c.mode) << c.text;
  }
}

TEST(SimdDispatchTest, ParseRejectsJunk) {
  for (const char* bad : {"", "avx", "avx512", "sse", "0", "on", "scalar "}) {
    EXPECT_FALSE(ParseSimdMode(bad).ok()) << "'" << bad << "'";
  }
}

TEST(SimdDispatchTest, ModeAndTierNamesRoundTripThroughParse) {
  for (const SimdMode m : {SimdMode::kAuto, SimdMode::kScalar, SimdMode::kAvx2}) {
    Result<SimdMode> parsed = ParseSimdMode(SimdModeName(m));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_STREQ(SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx2), "avx2");
}

TEST(SimdDispatchTest, ScalarIsAlwaysHonored) {
  EXPECT_EQ(ResolveTier(SimdMode::kScalar), SimdTier::kScalar);
}

TEST(SimdDispatchTest, AutoResolvesToProcessDefault) {
  EXPECT_EQ(ResolveTier(SimdMode::kAuto), DefaultTier());
}

TEST(SimdDispatchTest, Avx2DegradesToScalarWhenUnavailable) {
  const SimdTier resolved = ResolveTier(SimdMode::kAvx2);
  if (Avx2Available()) {
    EXPECT_EQ(resolved, SimdTier::kAvx2);
  } else {
    EXPECT_EQ(resolved, SimdTier::kScalar);
  }
}

TEST(SimdDispatchTest, BestSupportedTierIsConsistentWithAvailability) {
  EXPECT_EQ(BestSupportedTier(),
            Avx2Available() ? SimdTier::kAvx2 : SimdTier::kScalar);
  // The CPU cannot report an instruction set the build never compiled.
  if (!Avx2KernelsCompiled()) {
    EXPECT_FALSE(Avx2Available());
  }
}

}  // namespace
}  // namespace vulnds::simd
