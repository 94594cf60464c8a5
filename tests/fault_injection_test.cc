#include "fts/common/fault_injection.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace fts {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Never leak armed points into other tests; restore whatever the
    // process environment says (normally: nothing armed).
    FaultInjection::Instance().ReloadFromEnv();
  }
};

TEST_F(FaultInjectionTest, UnarmedPointNeverFires) {
  EXPECT_FALSE(FaultInjection::Instance().ShouldFail("test.unarmed"));
  EXPECT_EQ(FaultInjection::Instance().FireCount("test.unarmed"), 0u);
}

TEST_F(FaultInjectionTest, ArmedPointFiresAndCounts) {
  FaultInjection& faults = FaultInjection::Instance();
  faults.Arm("test.point");
  EXPECT_TRUE(faults.ShouldFail("test.point"));
  EXPECT_TRUE(faults.ShouldFail("test.point"));
  EXPECT_EQ(faults.FireCount("test.point"), 2u);
  EXPECT_TRUE(faults.AnyArmed());
}

TEST_F(FaultInjectionTest, CountedArmExhausts) {
  FaultInjection& faults = FaultInjection::Instance();
  faults.Arm("test.counted", 2);
  EXPECT_TRUE(faults.ShouldFail("test.counted"));
  EXPECT_TRUE(faults.ShouldFail("test.counted"));
  EXPECT_FALSE(faults.ShouldFail("test.counted"));
  EXPECT_EQ(faults.FireCount("test.counted"), 2u);
}

TEST_F(FaultInjectionTest, DisarmStopsFiringButKeepsCount) {
  FaultInjection& faults = FaultInjection::Instance();
  faults.Arm("test.disarm");
  EXPECT_TRUE(faults.ShouldFail("test.disarm"));
  faults.Disarm("test.disarm");
  EXPECT_FALSE(faults.ShouldFail("test.disarm"));
  EXPECT_EQ(faults.FireCount("test.disarm"), 1u);
}

TEST_F(FaultInjectionTest, ResetClearsEverything) {
  FaultInjection& faults = FaultInjection::Instance();
  faults.Arm("test.reset");
  ASSERT_TRUE(faults.ShouldFail("test.reset"));
  faults.Reset();
  EXPECT_FALSE(faults.ShouldFail("test.reset"));
  EXPECT_EQ(faults.FireCount("test.reset"), 0u);
  EXPECT_FALSE(faults.AnyArmed());
}

TEST_F(FaultInjectionTest, ScopedFaultArmsForScope) {
  FaultInjection& faults = FaultInjection::Instance();
  {
    ScopedFault fault("test.scoped");
    EXPECT_TRUE(faults.ShouldFail("test.scoped"));
  }
  EXPECT_FALSE(faults.ShouldFail("test.scoped"));
}

TEST_F(FaultInjectionTest, EnvParsingWithCountsAndWhitespace) {
  const char* original = getenv("FTS_FAULT");
  const std::string saved = original != nullptr ? original : "";
  const bool had_value = original != nullptr;

  ASSERT_EQ(setenv("FTS_FAULT", "a.one, b.two:2 ,c.three:0", 1), 0);
  FaultInjection& faults = FaultInjection::Instance();
  faults.ReloadFromEnv();
  EXPECT_TRUE(faults.ShouldFail("a.one"));
  EXPECT_TRUE(faults.ShouldFail("a.one"));  // Unlimited.
  EXPECT_TRUE(faults.ShouldFail("b.two"));
  EXPECT_TRUE(faults.ShouldFail("b.two"));
  EXPECT_FALSE(faults.ShouldFail("b.two"));  // Counted out.
  EXPECT_FALSE(faults.ShouldFail("c.three"));  // Armed with zero budget.
  ASSERT_EQ(unsetenv("FTS_FAULT"), 0);
  faults.ReloadFromEnv();
  EXPECT_FALSE(faults.ShouldFail("a.one"));
  EXPECT_FALSE(faults.AnyArmed());

  if (had_value) {
    ASSERT_EQ(setenv("FTS_FAULT", saved.c_str(), 1), 0);
  }
}

}  // namespace
}  // namespace fts
