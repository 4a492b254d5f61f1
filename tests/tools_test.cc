// Tests for the tool-facing utilities: the flag parser and the decision trace
// writer/reader round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/pipeline/trace.h"
#include "src/util/flags.h"

namespace litereconfig {
namespace {

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  return argv;
}

TEST(FlagSetTest, DefaultsApply) {
  FlagSet flags("test");
  flags.Define("device", "tx2", "device");
  flags.Define("slo", "33.3", "objective");
  auto argv = Argv({});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetString("device"), "tx2");
  EXPECT_DOUBLE_EQ(flags.GetDouble("slo"), 33.3);
  EXPECT_FALSE(flags.IsSet("device"));
}

TEST(FlagSetTest, EqualsAndSpaceSyntax) {
  FlagSet flags("test");
  flags.Define("device", "tx2", "device");
  flags.Define("slo", "33.3", "objective");
  auto argv = Argv({"--device=xavier", "--slo", "50"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetString("device"), "xavier");
  EXPECT_DOUBLE_EQ(flags.GetDouble("slo"), 50.0);
  EXPECT_TRUE(flags.IsSet("device"));
  EXPECT_TRUE(flags.IsSet("slo"));
}

TEST(FlagSetTest, BooleanFlagWithoutValue) {
  FlagSet flags("test");
  flags.Define("verbose", "false", "chatty");
  auto argv = Argv({"--verbose"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagSetTest, UnknownFlagFails) {
  FlagSet flags("test");
  flags.Define("device", "tx2", "device");
  auto argv = Argv({"--nope=1"});
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_FALSE(flags.help_requested());
  EXPECT_NE(flags.error().find("nope"), std::string::npos);
}

TEST(FlagSetTest, HelpRequested) {
  FlagSet flags("test");
  auto argv = Argv({"--help"});
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(flags.help_requested());
}

TEST(FlagSetTest, MissingValueFails) {
  FlagSet flags("test");
  flags.Define("slo", "33.3", "objective");
  auto argv = Argv({"--slo"});
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(FlagSetTest, PositionalArguments) {
  FlagSet flags("test");
  flags.Define("top", "5", "top");
  auto argv = Argv({"trace.jsonl", "--top=3", "extra"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "trace.jsonl");
  EXPECT_EQ(flags.positional()[1], "extra");
  EXPECT_EQ(flags.GetInt("top"), 3);
}

TEST(FlagSetTest, PrintHelpListsFlags) {
  FlagSet flags("my tool");
  flags.Define("device", "tx2", "target device");
  std::ostringstream os;
  flags.PrintHelp(os);
  EXPECT_NE(os.str().find("my tool"), std::string::npos);
  EXPECT_NE(os.str().find("--device"), std::string::npos);
  EXPECT_NE(os.str().find("target device"), std::string::npos);
}

// A FlagSet whose flag "v" holds `value` as if passed on the command line.
FlagSet FlagWithValue(const char* value) {
  FlagSet flags("test");
  flags.Define("v", "0", "value under test");
  std::string arg = std::string("--v=") + value;
  auto argv = Argv({arg.c_str()});
  EXPECT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  return flags;
}

TEST(FlagSetTest, NumericGettersAcceptWellFormedValues) {
  EXPECT_DOUBLE_EQ(FlagWithValue("33.3").GetDouble("v"), 33.3);
  EXPECT_DOUBLE_EQ(FlagWithValue("1e2").GetDouble("v"), 100.0);
  EXPECT_DOUBLE_EQ(FlagWithValue("-0.5").GetDouble("v"), -0.5);
  EXPECT_EQ(FlagWithValue("42").GetInt("v"), 42);
  EXPECT_EQ(FlagWithValue("-7").GetInt("v"), -7);
  EXPECT_EQ(FlagWithValue("0").GetCount("v"), 0);
  EXPECT_EQ(FlagWithValue("16").GetCount("v"), 16);
}

// Malformed numbers used to parse as 0 (--lat_req=abc ran with a 0 ms SLO);
// they now exit 2 with a message naming the flag.
TEST(FlagSetTest, MalformedDoubleExitsNamingTheFlag) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"", "abc", "33.3ms", " 5", "nan", "inf", "1e999"}) {
    EXPECT_EXIT(FlagWithValue(bad).GetDouble("v"), ::testing::ExitedWithCode(2),
                "--v")
        << "value '" << bad << "'";
  }
}

TEST(FlagSetTest, MalformedIntExitsNamingTheFlag) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad :
       {"", "abc", "4x", "1.5", "0x10", "99999999999", "-99999999999"}) {
    EXPECT_EXIT(FlagWithValue(bad).GetInt("v"), ::testing::ExitedWithCode(2),
                "--v")
        << "value '" << bad << "'";
  }
}

TEST(FlagSetTest, NegativeCountExitsNamingTheFlag) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(FlagWithValue("-1").GetCount("v"), ::testing::ExitedWithCode(2),
              "--v.*negative");
  EXPECT_EXIT(FlagWithValue("two").GetCount("v"), ::testing::ExitedWithCode(2),
              "--v");
}

// Declared ranges (--device=tx2|xavier, --gl in [0, 99], a positive
// --lat_req/--slo): a value the tool cannot honour as given exits 2 naming the
// flag rather than running as some other value.
TEST(FlagSetTest, ChoiceRejectsUnknownValues) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EQ(FlagWithValue("tx2").GetChoice("v", {"tx2", "xavier"}), "tx2");
  EXPECT_EQ(FlagWithValue("xavier").GetChoice("v", {"tx2", "xavier"}), "xavier");
  for (const char* bad : {"xavir", "Xavier", "", "tx2 "}) {
    EXPECT_EXIT(FlagWithValue(bad).GetChoice("v", {"tx2", "xavier"}),
                ::testing::ExitedWithCode(2), "--v.*not one of tx2 \\| xavier")
        << "value '" << bad << "'";
  }
}

TEST(FlagSetTest, PositiveRejectsZeroAndNegative) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DOUBLE_EQ(FlagWithValue("33.3").GetPositive("v"), 33.3);
  EXPECT_DOUBLE_EQ(FlagWithValue("1e-3").GetPositive("v"), 1e-3);
  for (const char* bad : {"0", "-0", "-1", "-33.3"}) {
    EXPECT_EXIT(FlagWithValue(bad).GetPositive("v"), ::testing::ExitedWithCode(2),
                "--v.*not positive")
        << "value '" << bad << "'";
  }
  EXPECT_EXIT(FlagWithValue("abc").GetPositive("v"), ::testing::ExitedWithCode(2),
              "--v.*not a number");
}

TEST(FlagSetTest, DoubleInRejectsOutOfRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DOUBLE_EQ(FlagWithValue("0").GetDoubleIn("v", 0.0, 99.0), 0.0);
  EXPECT_DOUBLE_EQ(FlagWithValue("50").GetDoubleIn("v", 0.0, 99.0), 50.0);
  EXPECT_DOUBLE_EQ(FlagWithValue("99").GetDoubleIn("v", 0.0, 99.0), 99.0);
  for (const char* bad : {"150", "-5", "99.5", "-0.001"}) {
    EXPECT_EXIT(FlagWithValue(bad).GetDoubleIn("v", 0.0, 99.0),
                ::testing::ExitedWithCode(2), "--v.*outside \\[0, 99\\]")
        << "value '" << bad << "'";
  }
}

DecisionRecord SampleRecord() {
  DecisionRecord record;
  record.video_seed = 12345;
  record.frame = 40;
  record.branch_id = "s448_n100_g8_kcf_ds2";
  record.features = {"HoC", "ResNet50"};
  record.predicted_accuracy = 0.6123;
  record.predicted_frame_ms = 21.5;
  record.scheduler_cost_ms = 4.2;
  record.switch_cost_ms = 6.75;
  record.actual_frame_ms = 23.875;
  record.gof_length = 8;
  record.switched = true;
  record.infeasible = false;
  record.gpu_cal = 1.7423;
  return record;
}

TEST(TraceTest, WriterEmitsOneLinePerRecord) {
  std::ostringstream os;
  TraceWriter writer(os);
  writer.Write(SampleRecord());
  writer.Write(SampleRecord());
  EXPECT_EQ(writer.count(), 2u);
  // Records are buffered per video until Flush.
  EXPECT_TRUE(os.str().empty());
  writer.Flush();
  std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(TraceTest, RoundTripPreservesFields) {
  std::ostringstream os;
  TraceWriter writer(os);
  DecisionRecord original = SampleRecord();
  writer.Write(original);
  writer.Flush();
  std::istringstream is(os.str());
  std::string error;
  auto records = TraceReader::ReadAllStrict(is, &error);
  ASSERT_TRUE(records.has_value()) << error;
  ASSERT_EQ(records->size(), 1u);
  const DecisionRecord& record = (*records)[0];
  EXPECT_EQ(record.video_seed, original.video_seed);
  EXPECT_EQ(record.frame, original.frame);
  EXPECT_EQ(record.branch_id, original.branch_id);
  EXPECT_EQ(record.features, original.features);
  EXPECT_NEAR(record.predicted_accuracy, original.predicted_accuracy, 1e-3);
  EXPECT_NEAR(record.predicted_frame_ms, original.predicted_frame_ms, 1e-3);
  EXPECT_NEAR(record.scheduler_cost_ms, original.scheduler_cost_ms, 1e-3);
  EXPECT_NEAR(record.switch_cost_ms, original.switch_cost_ms, 1e-3);
  EXPECT_NEAR(record.actual_frame_ms, original.actual_frame_ms, 1e-3);
  EXPECT_EQ(record.gof_length, original.gof_length);
  EXPECT_TRUE(record.switched);
  EXPECT_FALSE(record.infeasible);
  EXPECT_NEAR(record.gpu_cal, original.gpu_cal, 1e-3);
}

TEST(TraceTest, EmptyFeaturesRoundTrip) {
  std::ostringstream os;
  TraceWriter writer(os);
  DecisionRecord record = SampleRecord();
  record.features.clear();
  writer.Write(record);
  writer.Flush();
  std::istringstream is(os.str());
  std::string error;
  auto records = TraceReader::ReadAllStrict(is, &error);
  ASSERT_TRUE(records.has_value()) << error;
  ASSERT_EQ(records->size(), 1u);
  EXPECT_TRUE((*records)[0].features.empty());
}

TEST(TraceTest, ParseLineRejectsMissingCoreFields) {
  EXPECT_FALSE(TraceReader::ParseLine("{\"video\":1,\"frame\":2}").has_value());
}

TEST(TraceTest, StrictReaderAcceptsCleanTraceWithBlankLines) {
  std::ostringstream os;
  TraceWriter writer(os);
  writer.Write(SampleRecord());
  writer.Write(SampleRecord());
  writer.Flush();
  std::istringstream is(os.str() + "\n  \n");
  std::string error;
  auto records = TraceReader::ReadAllStrict(is, &error);
  ASSERT_TRUE(records.has_value()) << error;
  EXPECT_EQ(records->size(), 2u);
  EXPECT_TRUE(error.empty());
}

TEST(TraceTest, StrictReaderFailsOnMalformedLineWithLineNumber) {
  std::ostringstream os;
  TraceWriter writer(os);
  writer.Write(SampleRecord());
  writer.Flush();
  std::istringstream is(os.str() + "garbage that is not json\n");
  std::string error;
  auto records = TraceReader::ReadAllStrict(is, &error);
  EXPECT_FALSE(records.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("garbage"), std::string::npos) << error;
}

TEST(TraceTest, StrictReaderFailsOnTruncatedRecord) {
  // A record missing its core fields is corruption, not data to skip.
  std::istringstream is("{\"video\":1,\"frame\":2}\n");
  std::string error;
  EXPECT_FALSE(TraceReader::ReadAllStrict(is, &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

}  // namespace
}  // namespace litereconfig
