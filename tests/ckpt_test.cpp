// oasis::ckpt tests: container parsing and its exhaustive corruption
// tolerance (every truncation length, hundreds of random bit flips — all
// must surface as typed CheckpointError, never a crash or a silent load),
// atomic-write durability plumbing, generation retention and restore-side
// fallback, and end-to-end resume bit-identity for the FL simulation.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/codec.h"
#include "ckpt/container.h"
#include "ckpt/io.h"
#include "ckpt/manager.h"
#include "common/crc32c.h"
#include "common/error.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/preprocessor.h"
#include "fl/server.h"
#include "fl/simulation.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "tensor/serialize.h"
#include "test_util.h"

namespace oasis::ckpt {
namespace {

using testutil::ScratchDir;
namespace fs = std::filesystem;
using Reason = CheckpointError::Reason;

ByteBuffer make_small_container() {
  SnapshotBuilder builder;
  builder.add("meta", {1, 2, 3, 4});
  builder.add("empty", {});
  ByteBuffer blob(257);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  builder.add("blob", blob);
  return builder.finish();
}

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

TEST(Container, RoundTripPreservesSectionsAndOrder) {
  const ByteBuffer bytes = make_small_container();
  const Snapshot snap = Snapshot::parse(bytes);
  EXPECT_EQ(snap.names(), (std::vector<std::string>{"meta", "empty", "blob"}));
  EXPECT_TRUE(snap.has("meta"));
  EXPECT_FALSE(snap.has("nope"));
  EXPECT_EQ(snap.section("meta"), (ByteBuffer{1, 2, 3, 4}));
  EXPECT_TRUE(snap.section("empty").empty());
  EXPECT_EQ(snap.section("blob").size(), 257u);
  EXPECT_THROW((void)snap.section("nope"), CheckpointError);
}

TEST(Container, BuilderRejectsBadNames) {
  SnapshotBuilder builder;
  builder.add("a", {1});
  EXPECT_THROW(builder.add("a", {2}), Error);     // duplicate
  EXPECT_THROW(builder.add("", {}), Error);       // empty
  EXPECT_THROW(builder.add(std::string(256, 'x'), {}), Error);  // too long
}

TEST(Container, EmptyContainerIsValid) {
  const ByteBuffer bytes = SnapshotBuilder{}.finish();
  const Snapshot snap = Snapshot::parse(bytes);
  EXPECT_TRUE(snap.names().empty());
}

TEST(Container, RejectsBadMagicAndVersion) {
  ByteBuffer bytes = make_small_container();
  ByteBuffer bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  try {
    Snapshot::parse(bad_magic);
    FAIL() << "bad magic accepted";
  } catch (const CheckpointError& e) {
    // The footer CRC runs before the field is interpreted as a magic/version
    // problem only if intact — a flipped magic byte also breaks the footer,
    // so either reason is acceptable as long as it is typed.
    EXPECT_TRUE(e.reason() == Reason::kBadMagic ||
                e.reason() == Reason::kFooterChecksum)
        << CheckpointError::reason_name(e.reason());
  }

  // Splice a wrong version in and RESEAL the footer so the version check
  // itself (not the checksum) has to catch it. Version 1 is the format
  // before the one snapshot schema: refused, not migrated.
  for (const std::uint8_t version : {99, 1}) {
    ByteBuffer wrong_version = bytes;
    wrong_version[8] = version;
    const std::uint32_t crc = common::crc32c(wrong_version.data(),
                                             wrong_version.size() - 4);
    std::memcpy(wrong_version.data() + wrong_version.size() - 4, &crc, 4);
    try {
      Snapshot::parse(wrong_version);
      FAIL() << "version " << int{version} << " accepted";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.reason(), Reason::kBadVersion);
    }
  }
}

// The headline robustness property (ISSUE satellite): EVERY truncation of a
// valid snapshot — all lengths from 0 to size-1 — must yield a typed
// CheckpointError. No crash, no hang, no silent partial load. Runs under
// ASan in CI, so an out-of-bounds directory read would abort loudly here.
TEST(Container, EveryTruncationLengthIsRejectedTyped) {
  const ByteBuffer bytes = make_small_container();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteBuffer cut(bytes.begin(),
                   bytes.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      Snapshot::parse(std::move(cut));
      FAIL() << "truncation to " << len << " bytes was accepted";
    } catch (const CheckpointError&) {
      // expected — any reason, as long as it is typed.
    }
  }
}

// Same property for point damage: single-bit flips anywhere in the file.
// 200 positions drawn from a fixed-seed RNG (deterministic test), plus both
// edges. A flip can land in the magic, the directory, a payload, or either
// checksum — every one must be caught because the footer CRC covers the
// whole file.
TEST(Container, TwoHundredRandomBitFlipsAreRejectedTyped) {
  const ByteBuffer bytes = make_small_container();
  common::Rng rng(0xB17F11B5);
  std::vector<std::size_t> positions{0, bytes.size() - 1};
  while (positions.size() < 202) {
    positions.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1)));
  }
  for (const std::size_t pos : positions) {
    for (int bit = 0; bit < 8; bit += 7) {  // low and high bit of the byte
      ByteBuffer damaged = bytes;
      damaged[pos] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        Snapshot::parse(std::move(damaged));
        FAIL() << "bit flip at byte " << pos << " bit " << bit
               << " was accepted";
      } catch (const CheckpointError&) {
        // expected
      }
    }
  }
}

// A directory that lies about payload placement must be caught even when
// the footer CRC is valid (the attacker/cosmic ray wrote a consistent but
// malformed file). Reseal after each splice so only the structural checks
// stand between the damage and the caller.
TEST(Container, ResealedStructuralDamageIsStillRejected) {
  const auto reseal = [](ByteBuffer b) {
    const std::uint32_t crc = common::crc32c(b.data(), b.size() - 4);
    std::memcpy(b.data() + b.size() - 4, &crc, 4);
    return b;
  };
  const ByteBuffer bytes = make_small_container();

  // Oversized section count → directory overruns the file.
  ByteBuffer huge_count = bytes;
  huge_count[12] = 0xFF;
  huge_count[13] = 0xFF;
  EXPECT_THROW(Snapshot::parse(reseal(std::move(huge_count))),
               CheckpointError);

  // First section's payload size inflated → payloads no longer tile the
  // body exactly.
  ByteBuffer bad_size = bytes;
  // Directory entry 0: name_len(4) + "meta"(4) → offset u64 at 24, size at 32.
  bad_size[32] ^= 0x40;
  EXPECT_THROW(Snapshot::parse(reseal(std::move(bad_size))), CheckpointError);

  // Payload byte flipped with footer resealed → only the SECTION crc can
  // catch it.
  ByteBuffer bad_payload = bytes;
  bad_payload[bytes.size() - 10] ^= 0x01;  // inside the "blob" payload
  try {
    Snapshot::parse(reseal(std::move(bad_payload)));
    FAIL() << "resealed payload damage accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.reason(), Reason::kSectionChecksum);
  }
}

// ---------------------------------------------------------------------------
// Section codec
// ---------------------------------------------------------------------------

TEST(Codec, WriterReaderRoundTrip) {
  SectionWriter w;
  w.u8(7);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1.5);
  w.str("hello");
  const ByteBuffer payload = w.take();

  SectionReader r(payload, "test");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -1.5);
  EXPECT_EQ(r.str(), "hello");
  r.expect_end();
}

TEST(Codec, ShortAndTrailingBytesAreMalformedSection) {
  SectionWriter w;
  w.u32(1);
  const ByteBuffer payload = w.take();

  SectionReader short_r(payload, "s");
  short_r.u32();
  try {
    short_r.u32();  // nothing left
    FAIL() << "read past the end succeeded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.reason(), Reason::kMalformedSection);
  }

  SectionReader trailing_r(payload, "t");
  EXPECT_THROW(trailing_r.expect_end(), CheckpointError);  // 4 bytes unread
}

// ---------------------------------------------------------------------------
// Durable I/O + manager
// ---------------------------------------------------------------------------

TEST(Io, AtomicWriteRoundTripsAndLeavesNoTmp) {
  ScratchDir dir("ckpt_io");
  const std::string path = dir.path("file.bin");
  const ByteBuffer bytes{1, 2, 3, 4, 5};
  write_file_atomic(path, bytes);
  EXPECT_EQ(read_file(path), bytes);
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Overwrite in place — readers must only ever see old-or-new.
  write_file_atomic(path, {9, 9});
  EXPECT_EQ(read_file(path), (ByteBuffer{9, 9}));
}

TEST(Io, ReadFailuresCarryPathAndErrno) {
  try {
    read_file("/nonexistent/oasis/nowhere.ckpt");
    FAIL() << "read of a missing file succeeded";
  } catch (const IoError& e) {
    EXPECT_EQ(e.path(), "/nonexistent/oasis/nowhere.ckpt");
    EXPECT_NE(e.error_number(), 0);
    EXPECT_NE(std::string(e.what()).find("nowhere.ckpt"), std::string::npos);
  }
}

TEST(Manager, KeepsNewestKAndSweepsTmpLitter) {
  ScratchDir dir("ckpt_retention");
  CheckpointManager manager(dir.str(), /*keep=*/2);
  for (std::uint64_t gen = 1; gen <= 5; ++gen) {
    ByteBuffer snap = SnapshotBuilder{}.finish();
    manager.save(gen, snap);
  }
  EXPECT_EQ(manager.generations(), (std::vector<std::uint64_t>{4, 5}));

  // Simulated crash litter from an earlier run gets swept on the next save.
  const std::string litter = manager.path_for(99) + ".tmp";
  { std::ofstream(litter) << "torn"; }
  manager.save(6, SnapshotBuilder{}.finish());
  EXPECT_FALSE(fs::exists(litter));
  EXPECT_EQ(manager.generations(), (std::vector<std::uint64_t>{5, 6}));
}

TEST(Manager, FallsBackPastCorruptGenerationsAndCountsThem) {
  ScratchDir dir("ckpt_fallback");
  obs::Registry::global().reset();
  CheckpointManager manager(dir.str(), /*keep=*/3);

  SnapshotBuilder good;
  good.add("payload", {42});
  manager.save(1, good.finish());
  manager.save(2, good.finish());
  manager.save(3, good.finish());

  // Corrupt the two newest on disk: truncate gen 3, bit-flip gen 2.
  {
    ByteBuffer g3 = read_file(manager.path_for(3));
    g3.resize(g3.size() / 2);
    std::ofstream out(manager.path_for(3), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(g3.data()),
              static_cast<std::streamsize>(g3.size()));
  }
  {
    ByteBuffer g2 = read_file(manager.path_for(2));
    g2[g2.size() / 2] ^= 0x10;
    std::ofstream out(manager.path_for(2), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(g2.data()),
              static_cast<std::streamsize>(g2.size()));
  }

  const CheckpointManager::Loaded loaded = manager.load_latest_valid();
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.snapshot.section("payload"), (ByteBuffer{42}));
  EXPECT_EQ(obs::counter("ckpt.restore.skipped_invalid").value(), 2u);
}

TEST(Manager, AllGenerationsDamagedOrMissingIsTyped) {
  ScratchDir dir("ckpt_empty");
  CheckpointManager manager(dir.str(), 3);
  try {
    (void)manager.load_latest_valid();
    FAIL() << "empty directory produced a snapshot";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.reason(), Reason::kNoValidGeneration);
  }

  manager.save(1, SnapshotBuilder{}.finish());
  {
    std::ofstream out(manager.path_for(1), std::ios::binary | std::ios::trunc);
    out << "not a checkpoint";
  }
  EXPECT_THROW((void)manager.load_latest_valid(), CheckpointError);
}

// ---------------------------------------------------------------------------
// Simulation checkpoint / restore
// ---------------------------------------------------------------------------

fl::Simulation make_federation(std::uint64_t seed) {
  data::SynthConfig cfg;
  cfg.num_classes = 4;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = 4;
  cfg.test_per_class = 0;

  const fl::ModelFactory factory = [seed] {
    common::Rng rng(seed ^ 0x5EED);
    return nn::make_mlp({3, 8, 8}, {8}, 4, rng);
  };
  auto server = std::make_unique<fl::Server>(factory(), /*learning_rate=*/0.05);
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (std::uint64_t id = 0; id < 3; ++id) {
    cfg.seed = 100 + id;
    clients.push_back(std::make_unique<fl::Client>(
        id, data::generate(cfg).train, factory, /*batch_size=*/3,
        std::make_shared<fl::IdentityPreprocessor>(),
        common::Rng(seed ^ (0xC11E + id))));
  }
  return fl::Simulation(std::move(server), std::move(clients),
                        fl::SimulationConfig{/*clients_per_round=*/2, seed});
}

/// Obs dump with timings off and the one contracted exclusion (counters
/// under "ckpt.restore", which record the restore itself) filtered out.
std::string comparable_obs_dump() {
  std::stringstream filtered;
  std::stringstream src(
      obs::to_json(obs::Registry::global(), {/*include_timings=*/false}));
  std::string line;
  while (std::getline(src, line)) {
    if (line.find("ckpt.restore") == std::string::npos) filtered << line << '\n';
  }
  return filtered.str();
}

TEST(SimulationCkpt, ResumedRunIsBitIdenticalToStraightRun) {
  // Straight run: 6 rounds, with a mid-flight encode so the save counter
  // matches the resumed timeline.
  obs::Registry::global().reset();
  fl::Simulation straight = make_federation(33);
  straight.run(3);
  (void)straight.encode_checkpoint();
  straight.run(3);
  const tensor::ByteBuffer straight_model =
      nn::serialize_state(straight.server().global_model());
  const std::string straight_obs = comparable_obs_dump();

  // Interrupted run: 3 rounds, snapshot, then a COLD federation (fresh
  // process stand-in: new objects, reset registry) restores and finishes.
  obs::Registry::global().reset();
  fl::Simulation first_half = make_federation(33);
  first_half.run(3);
  const tensor::ByteBuffer snapshot = first_half.encode_checkpoint();

  obs::Registry::global().reset();
  fl::Simulation resumed = make_federation(33);
  resumed.restore_checkpoint(snapshot);
  EXPECT_EQ(resumed.server().round(), 3u);
  resumed.run(3);

  EXPECT_EQ(nn::serialize_state(resumed.server().global_model()),
            straight_model);
  EXPECT_EQ(comparable_obs_dump(), straight_obs);
}

TEST(SimulationCkpt, RestoreIntoMismatchedFederationIsRejectedUntouched) {
  obs::Registry::global().reset();
  fl::Simulation source = make_federation(33);
  source.run(2);
  const tensor::ByteBuffer snapshot = source.encode_checkpoint();

  // Different seed → different config echo: must be refused BEFORE any live
  // state is touched.
  fl::Simulation other = make_federation(34);
  other.run(1);
  const tensor::ByteBuffer before =
      nn::serialize_state(other.server().global_model());
  try {
    other.restore_checkpoint(snapshot);
    FAIL() << "foreign snapshot accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.reason(), Reason::kStateMismatch);
  }
  EXPECT_EQ(nn::serialize_state(other.server().global_model()), before);
  EXPECT_EQ(other.server().round(), 1u);
}

TEST(SimulationCkpt, CorruptedSimulationSnapshotsAreAllTyped) {
  // The full-size artifact (real model + rng + obs sections): every
  // truncation and a spread of bit flips must still be typed errors.
  obs::Registry::global().reset();
  fl::Simulation sim = make_federation(5);
  sim.run(1);
  const tensor::ByteBuffer bytes = sim.encode_checkpoint();

  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 ? 1 : 97)) {  // dense at the header, strided after
    tensor::ByteBuffer cut(bytes.begin(),
                           bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(Snapshot::parse(std::move(cut)), CheckpointError)
        << "at truncation " << len;
  }
  common::Rng rng(0xF11B);
  for (int i = 0; i < 200; ++i) {
    tensor::ByteBuffer damaged = bytes;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    damaged[pos] ^= static_cast<std::uint8_t>(
        1u << rng.uniform_int(0, 7));
    EXPECT_THROW(Snapshot::parse(std::move(damaged)), CheckpointError)
        << "bit flip at " << pos;
  }
}

TEST(SimulationCkpt, SaveAndResumeThroughManagerPicksNewestValid) {
  ScratchDir dir("ckpt_sim_mgr");
  obs::Registry::global().reset();
  CheckpointManager manager(dir.str(), /*keep=*/3);

  fl::Simulation sim = make_federation(77);
  sim.run(2);
  (void)sim.save_checkpoint(manager);  // generation 2
  sim.run(2);
  const std::string path4 = sim.save_checkpoint(manager);  // generation 4
  EXPECT_EQ(manager.generations(), (std::vector<std::uint64_t>{2, 4}));

  // Damage the newest: resume must fall back to generation 2.
  {
    ByteBuffer g4 = read_file(path4);
    g4[g4.size() / 3] ^= 0x80;
    std::ofstream out(path4, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(g4.data()),
              static_cast<std::streamsize>(g4.size()));
  }
  obs::Registry::global().reset();
  fl::Simulation resumed = make_federation(77);
  EXPECT_EQ(resumed.resume_from(manager), 2u);
  EXPECT_EQ(resumed.server().round(), 2u);
}

}  // namespace
}  // namespace oasis::ckpt
