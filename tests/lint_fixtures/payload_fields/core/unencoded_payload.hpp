// Fixture: a piggybacked payload whose encode_body() forgets a field.
// `history` is restored by decode_body() but never written by
// encode_body(), so a payload crossing the wire silently loses it.  The
// length bound below is spelled with a digit separator (`100'000`), the
// shape that once made the lexer read the rest of the file as one
// character literal and hide every definition after it.  dvlint must flag
// `history` on the save side only.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace fixture {

inline constexpr std::uint64_t kMaxHistory = 100'000;

struct ProtocolPayload {
  std::uint64_t view_id = 0;

  virtual ~ProtocolPayload() = default;
  virtual void encode_body(Encoder& enc) const = 0;
};

struct HistoryPayload final : ProtocolPayload {
  std::uint64_t round = 0;
  std::vector<std::uint64_t> history;

  void encode_body(Encoder& enc) const override;
  static std::shared_ptr<HistoryPayload> decode_body(Decoder& dec);
};

inline void HistoryPayload::encode_body(Encoder& enc) const {
  enc.put_varint(round);
}

inline std::shared_ptr<HistoryPayload> HistoryPayload::decode_body(
    Decoder& dec) {
  auto p = std::make_shared<HistoryPayload>();
  p->round = dec.get_varint();
  const std::uint64_t n = dec.get_varint();
  if (n > kMaxHistory) throw DecodeError("implausible history length");
  for (std::uint64_t i = 0; i < n; ++i) p->history.push_back(dec.get_varint());
  return p;
}

}  // namespace fixture
