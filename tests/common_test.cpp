// Tests for the common utilities: CLI parsing, logging levels, error
// macros, stopwatch, CRC32C (known answers and a portable-vs-SSE4.2-vs-bitwise
// differential); plus serialization robustness (fuzz) and experiment
// determinism properties.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/crc32c.h"
#include "common/crc32c_detail.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/experiment.h"
#include "data/synthetic.h"
#include "tensor/serialize.h"

namespace oasis {
namespace {

TEST(Cli, ParsesAllValueForms) {
  common::CliParser cli("prog", "test");
  cli.add_flag("alpha", "a value", "1");
  cli.add_flag("beta", "another", "x");
  cli.add_bool("gamma", "a switch");
  const char* argv[] = {"prog", "--alpha", "42", "--beta=hello", "--gamma"};
  cli.parse(5, argv);
  EXPECT_EQ(cli.get_int("alpha"), 42);
  EXPECT_EQ(cli.get("beta"), "hello");
  EXPECT_TRUE(cli.get_bool("gamma"));
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  common::CliParser cli("prog", "test");
  cli.add_flag("rate", "r", "0.5");
  cli.add_bool("quick", "q");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_DOUBLE_EQ(cli.get_real("rate"), 0.5);
  EXPECT_FALSE(cli.get_bool("quick"));
}

TEST(Cli, RejectsUnknownAndMalformed) {
  common::CliParser cli("prog", "test");
  cli.add_flag("known", "k", "1");
  {
    const char* argv[] = {"prog", "--unknown", "3"};
    EXPECT_THROW(cli.parse(3, argv), ConfigError);
  }
  {
    const char* argv[] = {"prog", "positional"};
    EXPECT_THROW(cli.parse(2, argv), ConfigError);
  }
  {
    const char* argv[] = {"prog", "--known"};
    EXPECT_THROW(cli.parse(2, argv), ConfigError);  // missing value
  }
}

TEST(Cli, TypeErrorsAreReported) {
  common::CliParser cli("prog", "test");
  cli.add_flag("n", "count", "not-a-number");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_THROW((void)cli.get_int("n"), ConfigError);
  EXPECT_THROW((void)cli.get_real("n"), ConfigError);
  EXPECT_THROW((void)cli.get("unregistered"), Error);
}

TEST(Cli, IntegerParsingRejectsTrailingGarbageAndOverflow) {
  common::CliParser cli("prog", "test");
  cli.add_flag("n", "count", "0");
  const auto set = [&](const char* v) {
    const std::string arg = std::string("--n=") + v;
    const char* argv[] = {"prog", arg.c_str()};
    cli.parse(2, argv);
  };
  // std::stoll would have accepted all of these prefixes silently.
  for (const char* bad : {"12x", "1e3", "0x10", "3.5", " 7", "7 ", "--", ""}) {
    set(bad);
    EXPECT_THROW((void)cli.get_int("n"), ConfigError) << "input: " << bad;
  }
  set("9223372036854775808");  // INT64_MAX + 1
  EXPECT_THROW((void)cli.get_int("n"), ConfigError);
  set("-9223372036854775809");  // INT64_MIN - 1
  EXPECT_THROW((void)cli.get_int("n"), ConfigError);
  set("9223372036854775807");
  EXPECT_EQ(cli.get_int("n"), INT64_MAX);
  set("-42");
  EXPECT_EQ(cli.get_int("n"), -42);
}

TEST(Cli, UnsignedParsingRejectsNegativeValues) {
  common::CliParser cli("prog", "test");
  cli.add_flag("every", "interval", "0");
  const auto set = [&](const char* v) {
    const std::string arg = std::string("--every=") + v;
    const char* argv[] = {"prog", arg.c_str()};
    cli.parse(2, argv);
  };
  // strtoull would wrap "-1" to 2^64-1 — the classic silent catastrophe for
  // a count flag like --checkpoint-every.
  for (const char* bad : {"-1", "-0", "+3", "5x", "", "18446744073709551616"}) {
    set(bad);
    EXPECT_THROW((void)cli.get_uint("every"), ConfigError) << "input: " << bad;
  }
  set("18446744073709551615");  // UINT64_MAX parses
  EXPECT_EQ(cli.get_uint("every"), UINT64_MAX);
  set("0");
  EXPECT_EQ(cli.get_uint("every"), 0u);
}

TEST(Cli, UintRangeEnforcesInclusiveBounds) {
  // The sharded engine's --shard-size / --population go through
  // get_uint_range: a zero shard size or an overflowing population must die
  // with a typed ConfigError at the flag boundary, never reach the engine.
  common::CliParser cli("prog", "test");
  cli.add_flag("shard-size", "clients per shard", "256");
  cli.add_flag("population", "virtual clients", "0");
  {
    const char* argv[] = {"prog", "--shard-size", "0"};
    cli.parse(3, argv);
    EXPECT_THROW((void)cli.get_uint_range("shard-size", 1, 1'000'000),
                 ConfigError);
  }
  {
    const char* argv[] = {"prog", "--shard-size", "1000001"};
    cli.parse(3, argv);
    EXPECT_THROW((void)cli.get_uint_range("shard-size", 1, 1'000'000),
                 ConfigError);
  }
  {
    // Overflows int64 entirely → the strict get_uint parse throws first.
    const char* argv[] = {"prog", "--population", "99999999999999999999"};
    cli.parse(3, argv);
    EXPECT_THROW((void)cli.get_uint_range("population", 0, 100'000'000),
                 ConfigError);
  }
  {
    const char* argv[] = {"prog", "--shard-size", "1", "--population",
                          "100000000"};
    cli.parse(5, argv);
    EXPECT_EQ(cli.get_uint_range("shard-size", 1, 1'000'000), 1u);
    EXPECT_EQ(cli.get_uint_range("population", 0, 100'000'000), 100'000'000u);
  }
  {
    // Bounds are inclusive on both ends.
    const char* argv[] = {"prog", "--shard-size", "1000000"};
    cli.parse(3, argv);
    EXPECT_EQ(cli.get_uint_range("shard-size", 1, 1'000'000), 1'000'000u);
  }
}

TEST(Cli, ParseHostPortAcceptsValidSpecs) {
  const common::HostPort a = common::parse_host_port("localhost:7400");
  EXPECT_EQ(a.host, "localhost");
  EXPECT_EQ(a.port, 7400);
  const common::HostPort b = common::parse_host_port("10.0.0.2:1");
  EXPECT_EQ(b.host, "10.0.0.2");
  EXPECT_EQ(b.port, 1);
  const common::HostPort c = common::parse_host_port("example.org:65535");
  EXPECT_EQ(c.port, 65535);
}

TEST(Cli, ParseHostPortRejectsMalformedSpecs) {
  // The --connect retry loop reports these once, up front, instead of
  // burning its reconnect budget against a target that can never resolve.
  EXPECT_THROW((void)common::parse_host_port("no-colon"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port(":7400"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port("host:"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port("host:7400x"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port("host:0"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port("host:65536"), ConfigError);
  EXPECT_THROW((void)common::parse_host_port("host:99999999999999999999"),
               ConfigError);
  EXPECT_THROW((void)common::parse_host_port(""), ConfigError);
}

TEST(Cli, RealParsingRejectsTrailingGarbageAndOverflow) {
  common::CliParser cli("prog", "test");
  cli.add_flag("rate", "r", "0");
  const auto set = [&](const char* v) {
    const std::string arg = std::string("--rate=") + v;
    const char* argv[] = {"prog", arg.c_str()};
    cli.parse(2, argv);
  };
  for (const char* bad : {"0.5abc", "1.2.3", "", "1e999"}) {
    set(bad);
    EXPECT_THROW((void)cli.get_real("rate"), ConfigError) << "input: " << bad;
  }
  set("-2.5e-3");
  EXPECT_DOUBLE_EQ(cli.get_real("rate"), -2.5e-3);
}

TEST(Cli, BoolAcceptsExplicitValues) {
  common::CliParser cli("prog", "test");
  cli.add_bool("flag", "f");
  const char* argv[] = {"prog", "--flag=false"};
  cli.parse(2, argv);
  EXPECT_FALSE(cli.get_bool("flag"));
}

TEST(Cli, DuplicateRegistrationThrows) {
  common::CliParser cli("prog", "test");
  cli.add_flag("x", "", "1");
  EXPECT_THROW(cli.add_flag("x", "", "2"), Error);
  EXPECT_THROW(cli.add_bool("x", ""), Error);
}

TEST(Logging, ParseLevels) {
  using common::LogLevel;
  EXPECT_EQ(common::parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(common::parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(common::parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(common::parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(common::parse_log_level("off"), LogLevel::kOff);
  EXPECT_THROW(common::parse_log_level("loud"), ConfigError);
}

TEST(Logging, ThresholdRoundTrip) {
  const auto saved = common::log_threshold();
  common::set_log_threshold(common::LogLevel::kError);
  EXPECT_EQ(common::log_threshold(), common::LogLevel::kError);
  OASIS_LOG_INFO << "suppressed line (must not crash)";
  common::set_log_threshold(saved);
}

TEST(ErrorMacros, CheckThrowsWithLocation) {
  try {
    OASIS_CHECK_MSG(1 == 2, "custom message " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  common::Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i);
  (void)sink;
  const double elapsed = sw.seconds();
  EXPECT_GT(elapsed, 0.0);
  // millis() and seconds() measure the same clock.
  EXPECT_GE(sw.millis(), elapsed * 1e3);
  sw.restart();
  EXPECT_LT(sw.seconds(), elapsed + 0.5);
}

// ---- CRC32C -----------------------------------------------------------------

using CrcFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

/// The implementations runnable on this host, by name: the dispatched
/// entry point, the portable walk, and the SSE4.2 kernel when the CPU has it.
std::vector<std::pair<std::string, CrcFn>> crc_impls() {
  std::vector<std::pair<std::string, CrcFn>> impls{
      {"dispatched",
       [](const void* d, std::size_t n, std::uint32_t s) {
         return common::crc32c(d, n, s);
       }},
      {"portable", &common::detail::crc32c_portable}};
  if (common::detail::sse42_supported()) {
    impls.emplace_back("sse42", &common::detail::crc32c_sse42);
  }
  return impls;
}

/// Bitwise reference: ref[L] is the CRC32C of data[0, L) continued from
/// `seed`, for every prefix length L — one pass, one bit at a time.
std::vector<std::uint32_t> bitwise_prefix_crcs(const std::uint8_t* data,
                                               std::size_t n,
                                               std::uint32_t seed) {
  std::vector<std::uint32_t> ref(n + 1);
  std::uint32_t reg = ~seed;
  ref[0] = seed;
  for (std::size_t i = 0; i < n; ++i) {
    reg ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      reg = (reg & 1u) ? (reg >> 1) ^ 0x82F63B78u : reg >> 1;
    }
    ref[i + 1] = ~reg;
  }
  return ref;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

constexpr std::size_t kLongBlock = 3 * common::detail::kCrcLongLane;
constexpr std::size_t kShortBlock = 3 * common::detail::kCrcShortLane;

TEST(Crc32c, Rfc3720KnownAnswers) {
  const std::string digits = "123456789";
  const std::vector<std::uint8_t> zeros(32, 0x00), ones(32, 0xFF);
  for (const auto& [name, fn] : crc_impls()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(fn(digits.data(), digits.size(), 0), 0xE3069283u);
    EXPECT_EQ(fn(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    EXPECT_EQ(fn(ones.data(), ones.size(), 0), 0x62A8AB43u);
    EXPECT_EQ(fn(nullptr, 0, 0), 0u);
  }
}

// Every length from empty through one whole long block plus a ragged tail,
// at every 8-byte misalignment, fresh and continued from a random seed: the
// portable walk and the SSE4.2 kernel must both equal the bitwise reference.
// The portable walk (the slow one) takes every length up to past a short
// block and a stride beyond it.
TEST(Crc32c, PortableAndSse42MatchBitwiseReference) {
  constexpr std::size_t kMaxLen = kLongBlock + 17;
  const bool have_sse42 = common::detail::sse42_supported();
  common::Rng seeds(0xC3C3u);
  for (const std::uint32_t seed :
       {0u, static_cast<std::uint32_t>(seeds()),
        static_cast<std::uint32_t>(seeds())}) {
    const auto buf = random_bytes(kMaxLen + 8, seed ^ 0x5EEDu);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::uint8_t* data = buf.data() + offset;
      const auto ref = bitwise_prefix_crcs(data, kMaxLen, seed);
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        if (len <= kShortBlock + 17 || len % 61 == 0 || len + 24 >= kMaxLen) {
          ASSERT_EQ(common::detail::crc32c_portable(data, len, seed), ref[len])
              << "portable, len " << len << " offset " << offset;
        }
        if (have_sse42) {
          ASSERT_EQ(common::detail::crc32c_sse42(data, len, seed), ref[len])
              << "sse42, len " << len << " offset " << offset;
        }
      }
    }
  }
}

// crc32c(a‖b) == crc32c(b, crc32c(a)) with the split on, and around, the
// short- and long-block boundaries, so a chain is resumed mid-lane.
TEST(Crc32c, ChainingAcrossLaneBoundaries) {
  const std::size_t n = 2 * kLongBlock + kShortBlock + 13;
  const auto buf = random_bytes(n, 0xC4A1u);
  std::vector<std::size_t> splits{0, 1, 7, 8, 9, n};
  for (const std::size_t edge :
       {common::detail::kCrcShortLane, kShortBlock,
        common::detail::kCrcLongLane, kLongBlock, kLongBlock + kShortBlock}) {
    for (const std::size_t delta : {0, 1, 3, 8}) {
      splits.push_back(edge - delta);
      splits.push_back(edge + delta);
    }
  }
  for (const auto& [name, fn] : crc_impls()) {
    SCOPED_TRACE(name);
    const std::uint32_t whole = fn(buf.data(), n, 0);
    for (const std::size_t split : splits) {
      const std::uint32_t head = fn(buf.data(), split, 0);
      EXPECT_EQ(fn(buf.data() + split, n - split, head), whole)
          << "split at " << split;
    }
  }
}

// Serialization fuzz: corrupting a valid buffer at any prefix length must
// raise SerializationError (never crash or return garbage silently).
class SerializationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SerializationFuzz, TruncationAlwaysThrows) {
  common::Rng rng(GetParam());
  std::vector<tensor::Tensor> tensors;
  tensors.push_back(tensor::Tensor::randn({3, 4}, rng));
  tensors.push_back(tensor::Tensor::randn({7}, rng));
  const tensor::ByteBuffer buf = tensor::serialize_tensors(tensors);
  // Truncate at a pseudo-random interior point.
  const auto cut = 1 + static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(buf.size()) - 2));
  tensor::ByteBuffer truncated(buf.begin(),
                               buf.begin() + static_cast<std::ptrdiff_t>(cut));
  EXPECT_THROW(tensor::deserialize_tensors(truncated), Error);
}

INSTANTIATE_TEST_SUITE_P(Cuts, SerializationFuzz, ::testing::Range(1, 17));

TEST(Determinism, AttackExperimentIsAPureFunctionOfItsSeed) {
  data::SynthConfig cfg;
  cfg.num_classes = 6;
  cfg.height = cfg.width = 10;
  cfg.train_per_class = 4;
  cfg.test_per_class = 0;
  const auto victim = data::generate(cfg).train;
  cfg.seed ^= 0x11;
  const auto aux = data::generate(cfg).train;

  core::AttackExperimentConfig exp;
  exp.attack = core::AttackKind::kRtf;
  exp.batch_size = 4;
  exp.neurons = 50;
  exp.num_batches = 2;
  exp.transforms = {augment::TransformKind::kMinorRotation};
  exp.seed = 1234;
  const auto a = core::run_attack_experiment(victim, aux, exp);
  const auto b = core::run_attack_experiment(victim, aux, exp);
  ASSERT_EQ(a.per_image_psnr.size(), b.per_image_psnr.size());
  for (std::size_t i = 0; i < a.per_image_psnr.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.per_image_psnr[i], b.per_image_psnr[i]);
  }
  exp.seed = 4321;
  const auto c = core::run_attack_experiment(victim, aux, exp);
  bool any_different = false;
  for (std::size_t i = 0; i < a.per_image_psnr.size(); ++i) {
    if (a.per_image_psnr[i] != c.per_image_psnr[i]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace oasis
