// The failpoint registry contract (common/failpoint.h): spec grammar,
// firing modifiers, hit accounting, and the macro fast path. The
// registry itself compiles in every build, so this suite always runs;
// only the macro-behavior tests depend on whether sites are compiled in
// (Failpoints::kCompiledIn).
#include "common/failpoint.h"

#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"

namespace gbx {
namespace {

using Action = FailpointHit::Action;

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().ClearAll(); }
  void TearDown() override { Failpoints::Instance().ClearAll(); }
};

TEST_F(FailpointTest, SpecGrammarAcceptsEveryAction) {
  Failpoints& fp = Failpoints::Instance();
  EXPECT_TRUE(fp.Set("a", "error").ok());
  EXPECT_TRUE(fp.Set("b", "delay(25)").ok());
  EXPECT_TRUE(fp.Set("c", "partial_write(128)").ok());
  EXPECT_TRUE(fp.Set("d", "crash").ok());
  EXPECT_TRUE(fp.Set("e", "error:once").ok());
  EXPECT_TRUE(fp.Set("f", "error:every(3)").ok());
  EXPECT_EQ(fp.List().size(), 6u);
  EXPECT_TRUE(fp.armed());
}

TEST_F(FailpointTest, SpecGrammarRejectsMalformedInput) {
  Failpoints& fp = Failpoints::Instance();
  for (const char* bad :
       {"", "bogus", "delay", "delay()", "delay(x)", "error(3)",
        "partial_write", "crash(1)", "error:twice", "error:every(0)",
        "error:every()", "off(1)", "delay(99999999999)",
        "error:every(4294967297)"}) {
    EXPECT_EQ(fp.Set("p", bad).code(), StatusCode::kInvalidArgument)
        << "spec '" << bad << "' accepted";
  }
  EXPECT_EQ(fp.Set("", "error").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fp.Set("has space", "error").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(fp.armed());
}

TEST_F(FailpointTest, OffAndClearDisarm) {
  Failpoints& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Set("p", "error").ok());
  EXPECT_TRUE(fp.armed());
  EXPECT_TRUE(fp.Set("p", "off").ok());
  EXPECT_FALSE(fp.armed());
  EXPECT_TRUE(fp.Set("p", "off").ok());  // idempotent

  ASSERT_TRUE(fp.Set("p", "error").ok());
  EXPECT_TRUE(fp.Clear("p").ok());
  EXPECT_EQ(fp.Clear("p").code(), StatusCode::kNotFound);
  EXPECT_FALSE(fp.armed());
}

TEST_F(FailpointTest, ConfigureAppliesListsAndStopsAtFirstError) {
  Failpoints& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Configure("a=error, b=delay(5);c=error:every(2)").ok());
  EXPECT_EQ(fp.List().size(), 3u);

  fp.ClearAll();
  const Status bad = fp.Configure("a=error,oops,b=error");
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fp.List().size(), 1u) << "entries before the error must stick";
  EXPECT_EQ(fp.List()[0].name, "a");
}

TEST_F(FailpointTest, EvalFiresAndCounts) {
  Failpoints& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Set("p", "error").ok());
  const std::int64_t before = fp.HitCount("p");
  for (int i = 0; i < 3; ++i) {
    const FailpointHit hit = fp.Eval("p");
    EXPECT_EQ(hit.action, Action::kError);
    EXPECT_TRUE(hit.fired());
    EXPECT_TRUE(hit.error());
  }
  EXPECT_EQ(fp.HitCount("p"), before + 3);
  EXPECT_FALSE(fp.Eval("unarmed").fired());
}

TEST_F(FailpointTest, OnceFiresExactlyOnceThenDisarms) {
  Failpoints& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Set("p", "error:once").ok());
  EXPECT_TRUE(fp.Eval("p").fired());
  EXPECT_FALSE(fp.Eval("p").fired());
  EXPECT_FALSE(fp.armed());
  // Lifetime hit counts survive the disarm.
  EXPECT_GE(fp.HitCount("p"), 1);
}

TEST_F(FailpointTest, EveryKFiresOnEveryKthEvaluation) {
  Failpoints& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Set("p", "error:every(3)").ok());
  int fired = 0;
  std::vector<bool> pattern;
  for (int i = 0; i < 9; ++i) {
    const bool hit = fp.Eval("p").fired();
    pattern.push_back(hit);
    fired += hit;
  }
  EXPECT_EQ(fired, 3);
  // Fires on the 3rd, 6th, 9th evaluation.
  EXPECT_EQ(pattern, (std::vector<bool>{false, false, true, false, false,
                                        true, false, false, true}));
}

TEST_F(FailpointTest, DelayActionSleepsInline) {
  Failpoints& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Set("p", "delay(30)").ok());
  Stopwatch watch;
  const FailpointHit hit = fp.Eval("p");
  EXPECT_EQ(hit.action, Action::kDelay);
  EXPECT_EQ(hit.arg, 30);
  EXPECT_GE(watch.ElapsedMillis(), 25.0);
}

TEST_F(FailpointTest, PartialWriteCarriesByteBudget) {
  Failpoints& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Set("p", "partial_write(64)").ok());
  const FailpointHit hit = fp.Eval("p");
  EXPECT_TRUE(hit.partial_write());
  EXPECT_EQ(hit.arg, 64);
}

TEST_F(FailpointTest, ListReportsSpecAndCounters) {
  Failpoints& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Set("p", "error:every(2)").ok());
  fp.Eval("p");
  fp.Eval("p");
  const auto infos = fp.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "p");
  EXPECT_EQ(infos[0].spec, "error:every(2)");
  EXPECT_EQ(infos[0].evals, 2);
  EXPECT_EQ(infos[0].hits, 1);
}

TEST_F(FailpointTest, FailpointErrorIsTyped) {
  const Status s = FailpointError("model_io.save.write");
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("model_io.save.write"), std::string::npos);
}

TEST_F(FailpointTest, MacroHonorsCompileGate) {
  Failpoints& fp = Failpoints::Instance();
  ASSERT_TRUE(fp.Set("macro.site", "error").ok());
  const FailpointHit hit = GBX_FAILPOINT_EVAL("macro.site");
  if (Failpoints::kCompiledIn) {
    EXPECT_TRUE(hit.error());
    EXPECT_EQ(fp.HitCount("macro.site"), 1);
  } else {
    // Compiled out: the macro is a constant no-op and the registry
    // never sees an evaluation.
    EXPECT_FALSE(hit.fired());
    EXPECT_EQ(fp.HitCount("macro.site"), 0);
  }
  GBX_FAILPOINT("macro.site");  // must compile to a statement either way
}

}  // namespace
}  // namespace gbx
