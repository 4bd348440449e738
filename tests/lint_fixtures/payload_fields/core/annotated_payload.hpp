// Fixture: the clean twin of unencoded_payload.hpp.  Both body fields
// travel on the wire, and the one field that never does -- a memo the
// receivers fill -- is annotated transient.  The digit separator is kept
// so the lexer is exercised the same way.  dvlint must stay silent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace fixture {

inline constexpr std::uint64_t kMaxTally = 100'000;

struct TallyPayload final {
  std::uint64_t round = 0;
  std::vector<std::uint64_t> tally;
  mutable std::uint64_t
      total = 0;  // dvlint: transient(memo of a pure function of the body)

  void encode_body(Encoder& enc) const;
  static std::shared_ptr<TallyPayload> decode_body(Decoder& dec);
};

inline void TallyPayload::encode_body(Encoder& enc) const {
  enc.put_varint(round);
  enc.put_varint(tally.size());
  for (std::uint64_t t : tally) enc.put_varint(t);
}

inline std::shared_ptr<TallyPayload> TallyPayload::decode_body(Decoder& dec) {
  auto p = std::make_shared<TallyPayload>();
  p->round = dec.get_varint();
  const std::uint64_t n = dec.get_varint();
  if (n > kMaxTally) throw DecodeError("implausible tally length");
  for (std::uint64_t i = 0; i < n; ++i) p->tally.push_back(dec.get_varint());
  return p;
}

}  // namespace fixture
