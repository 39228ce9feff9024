#include "ckpt/codec.h"

namespace oasis::ckpt {

void expect_engine(SectionReader& meta, Engine engine) {
  const std::uint8_t tag = meta.u8();
  if (tag != static_cast<std::uint8_t>(engine)) {
    throw CheckpointError(
        CheckpointError::Reason::kStateMismatch,
        "snapshot of engine " + std::to_string(tag) + " restored into engine " +
            std::to_string(static_cast<unsigned>(engine)));
  }
}

// Out of line: inlined into a fresh SectionWriter, GCC 12 reports a false
// -Wstringop-overflow on the first vector insert.
void write_rng_state(SectionWriter& w, const common::Rng::State& s) {
  for (const auto word : s.words) w.u64(word);
  w.f64(s.spare_normal);
  w.u8(s.has_spare ? 1 : 0);
}

common::Rng::State read_rng_state(SectionReader& r) {
  common::Rng::State s;
  for (auto& word : s.words) word = r.u64();
  s.spare_normal = r.f64();
  s.has_spare = r.u8() != 0;
  return s;
}

}  // namespace oasis::ckpt
