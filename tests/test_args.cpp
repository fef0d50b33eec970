// Args suite: the flag parser behind every tool and bench. The unconsumed()
// coverage is the regression guard for strict unknown-flag rejection —
// femtocr_sim and bench/common.h both exit 2 when unconsumed() is nonempty
// after all known flags were queried, so "queried marks consumed" is
// load-bearing behavior, not a convenience.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/args.h"

namespace {

using femtocr::util::Args;

Args make_args(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, ParsesKeyValueAndBooleanForms) {
  const Args args = make_args({"--runs=10", "--per-user", "--eta=0.5"});
  EXPECT_EQ(args.get("runs", std::int64_t{0}), 10);
  EXPECT_TRUE(args.get("per-user", false));
  EXPECT_DOUBLE_EQ(args.get("eta", 0.0), 0.5);
  EXPECT_EQ(args.get("absent", std::string("fallback")), "fallback");
}

TEST(Args, RejectsMalformedTokensAndValues) {
  EXPECT_THROW(make_args({"runs=10"}), std::logic_error);   // missing --
  EXPECT_THROW(make_args({"--"}), std::logic_error);        // empty name
  const Args args = make_args({"--runs=ten", "--eta=0.5x"});
  EXPECT_THROW(args.get("runs", std::int64_t{0}), std::logic_error);
  EXPECT_THROW(args.get("eta", 0.0), std::logic_error);
}

TEST(Args, CountFlagsRejectValuesBelowTheirMinimum) {
  const Args args = make_args({"--runs=0", "--threads=-1", "--gops=3"});
  EXPECT_THROW(args.get_count("threads", 0, 0), std::logic_error);
  EXPECT_EQ(args.get_count("gops", 1, 1), 3u);
  EXPECT_EQ(args.get_count("absent", 10, 1), 10u);
  try {
    (void)args.get_count("runs", 10, 1);
    ADD_FAILURE() << "--runs=0 accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("--runs"), std::string::npos)
        << e.what();
  }
}

TEST(Args, UnconsumedListsOnlyUnqueriedKeys) {
  // The strict-rejection contract: after querying every known flag,
  // unconsumed() is exactly the set of typos/unknowns. Both get() and
  // has() must count as consumption, in any mix.
  const Args args = make_args({"--runs=3", "--sweep=eta", "--bogus=1"});
  (void)args.get("runs", std::int64_t{0});
  EXPECT_TRUE(args.has("sweep"));
  const auto unknown = args.unconsumed();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "bogus");
}

TEST(Args, UnconsumedEmptyWhenEverythingQueried) {
  const Args args = make_args({"--threads=4", "--trace-out=t.json"});
  (void)args.get("threads", std::int64_t{0});
  (void)args.get("trace-out", std::string());
  EXPECT_TRUE(args.unconsumed().empty());
}

TEST(Args, QueryingAbsentKeysConsumesNothing) {
  // Probing for a flag the user did not pass must not mask a typo they
  // DID pass — only present keys can transition to consumed.
  const Args args = make_args({"--typo-flag=1"});
  EXPECT_FALSE(args.has("metrics-out"));
  (void)args.get("trace-out", std::string());
  const auto unknown = args.unconsumed();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo-flag");
}

}  // namespace
