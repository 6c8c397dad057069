// A kind the network sees before its codec exists is encode-verified as
// soon as the codec is registered.
//
// Registering a codec changes the process-wide registry for good, and
// the catalog test in wire_codec_test.cpp rejects every key outside the
// protocol catalog. This test therefore runs in an executable of its
// own, so no other test shares its registry, in any order or repeat.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "net/codec.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::net {
namespace {

// A message type outside the protocol catalog.
struct LateMsg {
  std::uint32_t v = 0;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.v);
  }
  bool operator==(const LateMsg&) const = default;
};

LateMsg sample_late(Rng& rng, const WireSample&) {
  return {static_cast<std::uint32_t>(rng.index(1000))};
}

TEST(LateCodec, KindSentBeforeItsCodecExistsIsVerifiedOnceRegistered) {
  // A fresh family on every run, so --gtest_repeat starts each run with
  // no codec for its kind.
  static int run = 0;
  const std::string family = "late" + std::to_string(run++);
  const std::string kind = family + "/sg0/msg";
  ASSERT_EQ(CodecRegistry::global().find_kind(kind), nullptr);
  sim::Simulator sim(5);
  Network net(sim);
  // No codec yet: on the simulator a raw kind goes out unchecked.
  EXPECT_NO_THROW(net.send(0, 1, kind, LateMsg{7}, 99));
  CodecRegistry::global().add(make_codec(family + ":msg", &sample_late));
  EXPECT_THROW(net.send(0, 1, kind, LateMsg{7}, 99), std::logic_error);
  EXPECT_NO_THROW(net.send(0, 1, kind, LateMsg{7}, 4));
  EXPECT_EQ(net.stats().sent_by_kind.at(kind).messages, 2u);
}

}  // namespace
}  // namespace p2pfl::net
