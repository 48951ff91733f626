#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/names.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using hupc::util::Cli;
using hupc::util::percentile_sorted;
using hupc::util::SplitMix64;
using hupc::util::Table;
using hupc::util::Xoshiro256ss;

TEST(SplitMix64, MatchesReferenceSequence) {
  // Reference values from the canonical splitmix64.c (Vigna) with seed
  // 0x123456789abcdef0: first three outputs.
  SplitMix64 rng(0x123456789abcdef0ULL);
  const std::uint64_t a = rng.next();
  const std::uint64_t b = rng.next();
  EXPECT_NE(a, b);
  SplitMix64 rng2(0x123456789abcdef0ULL);
  EXPECT_EQ(rng2.next(), a);
  EXPECT_EQ(rng2.next(), b);
}

TEST(SplitMix64, SplitGivesIndependentStreams) {
  SplitMix64 parent(42);
  SplitMix64 child_a = parent.split();
  SplitMix64 child_b = parent.split();
  EXPECT_NE(child_a.next(), child_b.next());
}

TEST(Xoshiro, BelowIsUnbiasedRangeAndDeterministic) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  Xoshiro256ss a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, UniformInHalfOpenUnitInterval) {
  Xoshiro256ss rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, BelowBoundOneAlwaysZero) {
  Xoshiro256ss rng(5);
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> sorted{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.125), 15.0);
}

TEST(Table, PrintsAlignedAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.2345, 2)});
  t.add_row({"b", "x"});
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("| alpha | 1.23"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1.23\nb,x\n");
}

TEST(Table, RejectsOverlongRows) {
  Table t({"only"});
  EXPECT_THROW(t.add_row({"a", "b"}), std::invalid_argument);
}

TEST(Table, PctFormats) { EXPECT_EQ(Table::pct(0.1234, 1), "12.3%"); }

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4",
                        "--gamma", "--ratio=0.5", "pos1"};
  Cli cli(7, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 4);
  EXPECT_TRUE(cli.get_bool("gamma", false));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.get_int("missing", -7), -7);
}

// The message of the std::invalid_argument `f` throws ("" if none).
template <class F>
std::string rejection(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, NumbersMustParseInFull) {
  const char* argv[] = {"prog",      "--ops=1e3", "--n=-12", "--rate=1e3",
                        "--frac=0.5x", "--count=", "--big=99999999999999999999"};
  Cli cli(7, argv);
  EXPECT_EQ(cli.get_int("n", 0), -12);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 1000.0);
  EXPECT_EQ(rejection([&] { (void)cli.get_int("ops", 0); }),
            "--ops: expected an integer, got '1e3'");
  EXPECT_EQ(rejection([&] { (void)cli.get_double("frac", 0.0); }),
            "--frac: expected a number, got '0.5x'");
  EXPECT_NE(rejection([&] { (void)cli.get_int("count", 0); }), "");
  EXPECT_NE(rejection([&] { (void)cli.get_int("big", 0); }), "");
}

TEST(Cli, NarrowedIntegersMustFitTheirRange) {
  const char* argv[] = {"prog",       "--threads=4294967312", "--keys=-1",
                        "--nodes=8",  "--seed=18446744073709551615",
                        "--grid=3"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int_in("nodes", 4), 8);
  EXPECT_EQ(cli.get_int_in<std::size_t>("missing", 7), 7u);
  EXPECT_EQ(cli.get_int_in("grid", 2, 1, 3), 3);
  EXPECT_EQ(rejection([&] { (void)cli.get_int_in("threads", 16); }),
            "--threads: expected an integer in [-2147483648, 2147483647], "
            "got '4294967312'");
  EXPECT_EQ(rejection([&] { (void)cli.get_int_in<std::size_t>("keys", 1); }),
            "--keys: expected an integer in [0, 9223372036854775807], "
            "got '-1'");
  EXPECT_EQ(rejection([&] { (void)cli.get_int_in("grid", 2, 1, 2); }),
            "--grid: expected an integer in [1, 2], got '3'");
  // An unsigned 64-bit flag takes what an int64_t holds; beyond that the
  // value does not parse at all.
  EXPECT_NE(rejection([&] { (void)cli.get_int_in<std::uint64_t>("seed", 1); }),
            "");
}

TEST(Cli, BoolTakesOnlyFixedSpellings) {
  const char* argv[] = {"prog",     "--a=true", "--b=1",    "--c=yes",
                        "--d=false", "--e=0",   "--f=no",   "--g=maybe",
                        "--h=on",   "--bare"};
  Cli cli(10, argv);
  for (const char* on : {"a", "b", "c", "bare"}) {
    EXPECT_TRUE(cli.get_bool(on, false)) << on;
  }
  for (const char* off : {"d", "e", "f"}) {
    EXPECT_FALSE(cli.get_bool(off, true)) << off;
  }
  EXPECT_EQ(rejection([&] { (void)cli.get_bool("g", false); }),
            "--g: expected true|1|yes or false|0|no, got 'maybe'");
  EXPECT_NE(rejection([&] { (void)cli.get_bool("h", false); }), "");
  EXPECT_TRUE(cli.get_bool("missing", true));
}

TEST(Cli, ChoiceTakesOnlyAllowedValues) {
  const char* argv[] = {"prog", "--mode=fast", "--vis=maybe"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.choice("mode", "slow", {"slow", "fast"}), "fast");
  EXPECT_EQ(cli.choice("missing", "slow", {"slow", "fast"}), "slow");
  EXPECT_EQ(rejection([&] { (void)cli.choice("vis", "off", {"on", "off"}); }),
            "unknown --vis value 'maybe' (expected on|off)");
  EXPECT_TRUE(cli.unread_flags().empty());
  EXPECT_EQ(rejection([] {
              (void)hupc::util::one_of("variant", "typo", {"split", "overlap"});
            }),
            "unknown variant 'typo' (expected split|overlap)");
}

TEST(Cli, CliMainMapsExceptionsToExitStatus) {
  const char* argv[] = {"prog", "--n=3"};
  using hupc::util::cli_main;
  EXPECT_EQ(cli_main("prog", 2, argv,
                     [](const Cli& cli) {
                       return static_cast<int>(cli.get_int("n", 0));
                     }),
            3);
  EXPECT_EQ(cli_main("prog", 2, argv,
                     [](const Cli&) -> int {
                       throw std::invalid_argument("bad input");
                     }),
            2);
  EXPECT_EQ(cli_main("prog", 2, argv,
                     [](const Cli&) -> int {
                       throw std::runtime_error("failed run");
                     }),
            1);
}

TEST(Names, LookupListsTheKnownNames) {
  struct Entry {
    const char* name;
    int value;
  };
  constexpr Entry kTable[] = {{"one", 1}, {"two", 2}};
  EXPECT_EQ(hupc::util::lookup(kTable, "number", "two").value, 2);
  EXPECT_EQ(rejection([&] { (void)hupc::util::lookup(kTable, "number", "six"); }),
            "unknown number 'six' (known: one, two)");
}

}  // namespace
