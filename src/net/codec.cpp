#include "net/codec.hpp"

#include "common/check.hpp"

namespace p2pfl::net {

CodecRegistry& CodecRegistry::global() {
  static CodecRegistry registry;
  return registry;
}

void CodecRegistry::add(Codec codec) {
  P2PFL_CHECK(!codec.key.empty());
  P2PFL_CHECK(codec.encode_to && codec.decode);
  codecs_[codec.key] = std::move(codec);
}

std::string CodecRegistry::key_of_kind(const std::string& kind) {
  const std::size_t first = kind.find('/');
  if (first == std::string::npos) return kind;
  const std::size_t last = kind.rfind('/');
  return kind.substr(0, first) + ":" + kind.substr(last + 1);
}

const Codec* CodecRegistry::find_key(const std::string& key) const {
  auto it = codecs_.find(key);
  return it == codecs_.end() ? nullptr : &it->second;
}

const Codec* CodecRegistry::find_kind(const std::string& kind) const {
  return find_key(key_of_kind(kind));
}

std::vector<const Codec*> CodecRegistry::all() const {
  std::vector<const Codec*> out;
  out.reserve(codecs_.size());
  for (const auto& [key, codec] : codecs_) out.push_back(&codec);
  return out;
}

}  // namespace p2pfl::net
