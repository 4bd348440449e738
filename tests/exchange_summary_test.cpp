// The YKD family decides each state exchange once per view: the first
// member to complete summarizes the exchange into a memo on the lowest
// member's payload and every member holding the same payload objects reuses
// it.  These tests pin that the sharing is invisible: a simulation in which
// no two members ever share a payload object (so each computes alone) is
// identical, round by round and process by process, to a plain one.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/one_pending.hpp"
#include "core/ykd.hpp"
#include "sim/driver.hpp"

namespace dynvote {
namespace {

/// Forwards everything to `inner`, except that every received message is
/// re-parsed from its wire bytes first: each recipient gets its own payload
/// objects, so no exchange memo is ever shared.
class PrivateCopies final : public PrimaryComponentAlgorithm {
 public:
  explicit PrivateCopies(std::unique_ptr<PrimaryComponentAlgorithm> inner)
      : PrimaryComponentAlgorithm(inner->self(), inner->initial_view()),
        inner_(std::move(inner)) {}

  void view_changed(const View& view) override { inner_->view_changed(view); }
  Message incoming_message(Message message, ProcessId sender) override {
    return inner_->incoming_message(Message::parse(message.serialize()),
                                    sender);
  }
  std::optional<Message> outgoing_message_poll(const Message& app) override {
    return inner_->outgoing_message_poll(app);
  }
  bool in_primary() const override { return inner_->in_primary(); }
  std::string_view name() const override { return inner_->name(); }
  AlgorithmDebugInfo debug_info() const override {
    return inner_->debug_info();
  }
  void save(Encoder& enc) const override { inner_->save(enc); }
  void load(Decoder& dec) override { inner_->load(dec); }
  const Session& last_primary_session() const override {
    return inner_->last_primary_session();
  }

 private:
  std::unique_ptr<PrimaryComponentAlgorithm> inner_;
};

/// Every process's observable state, compared field by field.
void expect_same_processes(const Gcs& shared, const Gcs& alone,
                           const std::string& where) {
  ASSERT_EQ(shared.process_count(), alone.process_count());
  for (ProcessId p = 0; p < shared.process_count(); ++p) {
    const AlgorithmDebugInfo a = shared.algorithm(p).debug_info();
    const AlgorithmDebugInfo b = alone.algorithm(p).debug_info();
    ASSERT_EQ(a.last_primary, b.last_primary) << where << " process " << p;
    ASSERT_EQ(a.ambiguous_count, b.ambiguous_count)
        << where << " process " << p;
    ASSERT_EQ(a.blocked, b.blocked) << where << " process " << p;
    ASSERT_EQ(a.session_number, b.session_number)
        << where << " process " << p;
    ASSERT_EQ(shared.algorithm(p).in_primary(), alone.algorithm(p).in_primary())
        << where << " process " << p;
  }
}

using EquivalenceParam = std::tuple<AlgorithmKind, FaultModelKind>;

class PerProcessEquivalence
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(PerProcessEquivalence, SharedSummaryMatchesPrivateComputation) {
  const auto [kind, model] = GetParam();
  constexpr std::size_t kRuns = 3;  // cascading: state carries across runs
  std::size_t events = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SimulationConfig config;
    config.algorithm = kind;
    config.processes = 10;
    config.changes_per_run = 8;
    config.mean_rounds_between_changes = 1.5;
    config.seed = seed * 7919;
    config.fault_model.kind = model;
    Simulation shared(config);

    config.algorithm_factory = [kind](ProcessId self, const View& initial) {
      return std::make_unique<PrivateCopies>(
          make_algorithm(kind, self, initial));
    };
    Simulation alone(config);

    for (std::size_t run = 0; run < kRuns; ++run) {
      const std::string where = std::string(to_string(model)) + " seed " +
                                std::to_string(seed) + " run " +
                                std::to_string(run);
      for (;;) {
        const std::optional<RunResult> a = shared.run_events(1);
        const std::optional<RunResult> b = alone.run_events(1);
        ++events;
        ASSERT_EQ(a.has_value(), b.has_value()) << where;
        ASSERT_NO_FATAL_FAILURE(
            expect_same_processes(shared.gcs(), alone.gcs(), where));
        if (a) {
          ASSERT_EQ(*a, *b) << where;
          break;
        }
      }
    }
    EXPECT_EQ(shared.invariant_checks(), alone.invariant_checks());
  }
  EXPECT_GT(events, 32u * kRuns * 8u);
}

INSTANTIATE_TEST_SUITE_P(
    YkdFamilyAcrossModels, PerProcessEquivalence,
    ::testing::Combine(::testing::Values(AlgorithmKind::kYkd,
                                         AlgorithmKind::kYkdUnoptimized,
                                         AlgorithmKind::kDfls,
                                         AlgorithmKind::kOnePending),
                       ::testing::Values(FaultModelKind::kGeometric,
                                         FaultModelKind::kSleepy,
                                         FaultModelKind::kRepairable)),
    [](const ::testing::TestParamInfo<EquivalenceParam>& p) {
      std::string name = std::string(to_string(std::get<0>(p.param))) + "_" +
                         std::string(to_string(std::get<1>(p.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Hand-fed exchanges: universe {0,1,2,3}, new view {0,1,2}.  Every table
// holds the same payload objects for members 0 and 2; member 1's payload
// differs between tables.

constexpr std::size_t kUniverse = 4;
constexpr ViewId kViewId = 5;

const View& initial_view() {
  static const View view{0, ProcessSet::full(kUniverse)};
  return view;
}

View next_view() { return View{kViewId, ProcessSet(kUniverse, {0, 1, 2})}; }

/// A round-1 state at the genesis primary, optionally holding `pending`.
std::shared_ptr<StateExchangePayload> genesis_state(
    std::optional<Session> pending = std::nullopt) {
  const Session genesis{0, ProcessSet::full(kUniverse)};
  auto state = std::make_shared<StateExchangePayload>();
  state->view_id = kViewId;
  state->last_primary = genesis;
  state->last_formed.assign(kUniverse, genesis);
  if (pending) state->ambiguous.push_back(*pending);
  return state;
}

std::unique_ptr<PrimaryComponentAlgorithm> member(AlgorithmKind kind,
                                                  ProcessId self) {
  auto alg = make_algorithm(kind, self, initial_view());
  alg->view_changed(next_view());
  return alg;
}

/// Feed the states of members 0, 1, 2 in that order.
void complete(PrimaryComponentAlgorithm& alg,
              const std::vector<std::shared_ptr<StateExchangePayload>>& table) {
  for (ProcessId q = 0; q < table.size(); ++q) {
    Message m;
    m.protocol = table[q];
    (void)alg.incoming_message(std::move(m), q);
  }
}

/// Did the member decide to attempt?  (session_number only moves then.)
bool attempted(const PrimaryComponentAlgorithm& alg) {
  return alg.debug_info().session_number == 1;
}

struct HandFed {
  AlgorithmKind kind;
  /// Member 1's pending session in the "other" table.
  Session pending;
  /// What that table implies: attempt refused by the subquorum rule
  /// (YKD) or by the pending-session rule (1-pending, blocked).
  bool other_blocked;
};

class SharedLowestPayload : public ::testing::TestWithParam<HandFed> {};

TEST_P(SharedLowestPayload, EachMemberGetsTheVerdictOfItsOwnTable) {
  const HandFed param = GetParam();
  const auto p0 = genesis_state();
  const auto p2 = genesis_state();
  const std::vector<std::shared_ptr<StateExchangePayload>> clean = {
      p0, genesis_state(), p2};
  const std::vector<std::shared_ptr<StateExchangePayload>> other = {
      p0, genesis_state(param.pending), p2};

  // Clean table first (memo written for it), then the other table (memo
  // key mismatch: recompute and overwrite), then the clean table again.
  auto x = member(param.kind, 0);
  auto y = member(param.kind, 2);
  auto w = member(param.kind, 1);
  complete(*x, clean);
  complete(*y, other);
  complete(*w, clean);

  EXPECT_TRUE(attempted(*x));
  EXPECT_FALSE(x->debug_info().blocked);
  EXPECT_FALSE(attempted(*y));
  EXPECT_EQ(y->debug_info().blocked, param.other_blocked);
  EXPECT_TRUE(attempted(*w));
  EXPECT_FALSE(w->debug_info().blocked);
  // The memo lives on the lowest member's payload and names the last
  // table it summarized.
  EXPECT_EQ(p0->summary.variant, x->name());
  EXPECT_EQ(p0->summary.view_id, kViewId);
  ASSERT_EQ(p0->summary.states.size(), 3u);
  EXPECT_EQ(p0->summary.states[1],
            reinterpret_cast<std::uintptr_t>(clean[1].get()));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SharedLowestPayload,
    ::testing::Values(
        // {3} is no subquorum of {0,1,2}: YKD's own constraint refuses.
        HandFed{AlgorithmKind::kYkd, Session{1, ProcessSet(kUniverse, {3})},
                false},
        // {0,1,2} is a subquorum of {0,1,3}, but 3 is absent, so the session
        // stays pending and 1-pending blocks.
        HandFed{AlgorithmKind::kOnePending,
                Session{1, ProcessSet(kUniverse, {0, 1, 3})}, true}),
    [](const ::testing::TestParamInfo<HandFed>& p) {
      std::string name(to_string(p.param.kind));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ExchangeSummary, MembersHoldingTheSamePayloadsReuseTheMemo) {
  // Pins that the memo is consulted at all: corrupt the verdict the first
  // member computed, and a second member holding the same payload objects
  // follows it, while a member holding a copy recomputes the truth.
  const std::vector<std::shared_ptr<StateExchangePayload>> table = {
      genesis_state(), genesis_state(), genesis_state()};
  auto first = member(AlgorithmKind::kYkd, 0);
  complete(*first, table);
  ASSERT_TRUE(attempted(*first));
  table[0]->summary.quorate = false;
  table[0]->summary.allowed = false;

  auto reuser = member(AlgorithmKind::kYkd, 1);
  complete(*reuser, table);
  EXPECT_FALSE(attempted(*reuser));

  const PayloadPtr copy = decode_payload(encode_payload(*table[0]));
  const auto& decoded = static_cast<const StateExchangePayload&>(*copy);
  EXPECT_TRUE(decoded.summary.variant.empty());  // never encoded
  auto copied = std::make_shared<StateExchangePayload>(decoded);
  auto recomputer = member(AlgorithmKind::kYkd, 2);
  complete(*recomputer, {copied, table[1], table[2]});
  EXPECT_TRUE(attempted(*recomputer));
}

TEST(ExchangeSummary, VariantIsPartOfTheKey) {
  // The same payload objects completed under another variant recompute:
  // YKD attempts past a pending session 1-pending must block on.
  const Session pending{1, ProcessSet(kUniverse, {0, 1, 3})};
  const std::vector<std::shared_ptr<StateExchangePayload>> table = {
      genesis_state(), genesis_state(pending), genesis_state()};
  auto ykd = member(AlgorithmKind::kYkd, 0);
  complete(*ykd, table);
  auto one_pending = member(AlgorithmKind::kOnePending, 1);
  complete(*one_pending, table);
  EXPECT_TRUE(attempted(*ykd));
  EXPECT_FALSE(attempted(*one_pending));
  EXPECT_TRUE(one_pending->debug_info().blocked);
}

}  // namespace
}  // namespace dynvote
