#include "core/dfls.hpp"

#include "core/quorum.hpp"

namespace dynvote {

Dfls::Dfls(ProcessId self, const View& initial_view)
    : YkdFamilyBase(self, initial_view, PruneMode::kGlobalSuperseded,
                    /*filter_constraints=*/false),
      gc_received_(initial_view.members.universe_size()) {}

void Dfls::view_changed(const View& view) {
  // Interrupted before the GC round completed: the ambiguous sessions stay.
  gc_pending_ = false;
  gc_received_.clear();
  gc_count_ = 0;
  YkdFamilyBase::view_changed(view);
}

void Dfls::on_primary_formed() {
  // Keep the ambiguous sessions for one more exchange round in the newly
  // formed primary.
  gc_pending_ = true;
  gc_number_ = last_primary_.number;
  gc_received_.clear();
  gc_count_ = 0;

  reuse_payload(gc_pool_).formed_number = gc_number_;
  stage(gc_pool_);
}

void Dfls::save_extra(Encoder& enc) const {
  enc.put_bool(gc_pending_);
  enc.put_varint(gc_number_);
  gc_received_.encode(enc);
}

void Dfls::load_extra(Decoder& dec) {
  gc_pending_ = dec.get_bool();
  gc_number_ = dec.get_varint();
  gc_received_ = ProcessSet::decode(dec);
  gc_count_ = arrivals_from(gc_received_, current_view().members);
}

void Dfls::handle_extra_payload(const ProtocolPayload& payload,
                                ProcessId sender) {
  if (payload.type() != PayloadType::kGcRound || !gc_pending_) return;
  const auto& gc = static_cast<const GcRoundPayload&>(payload);
  if (gc.formed_number != gc_number_) return;
  if (add_arrival(gc_received_, sender, current_view().members) &&
      ++gc_count_ == view_size()) {
    if (!ambiguous_.empty()) note_state_mutated();
    ambiguous_.clear();
    gc_pending_ = false;
  }
}

}  // namespace dynvote
