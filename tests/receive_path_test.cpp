// The GCS delivers every message through `receive` (by const reference);
// the thesis API `incoming_message` (by value) is its adapter.  These tests
// pin that the two entry points are interchangeable: a simulation whose
// algorithms only offer `incoming_message` -- so the GCS takes the default
// by-value adapter -- is identical, round by round and process by process,
// to a plain one.  Hand-fed cases pin the running quorum counts that
// replaced whole-set compares: a repeated message from one sender counts
// once.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "core/dfls.hpp"
#include "core/mr1p.hpp"
#include "core/ykd.hpp"
#include "sim/driver.hpp"
#include "sim_test_util.hpp"

namespace dynvote {
namespace {

/// Forwards everything to `inner` and overrides only the thesis API
/// `incoming_message`, never `receive`: the GCS reaches it through the
/// default adapter, which copies the message and calls incoming_message.
/// Counts the calls, so tests can check that no delivery bypasses it.
class ThesisApiOnly final : public PrimaryComponentAlgorithm {
 public:
  explicit ThesisApiOnly(std::unique_ptr<PrimaryComponentAlgorithm> inner)
      : PrimaryComponentAlgorithm(inner->self(), inner->initial_view()),
        inner_(std::move(inner)) {}

  void view_changed(const View& view) override { inner_->view_changed(view); }
  Message incoming_message(Message message, ProcessId sender) override {
    ++calls_;
    return inner_->incoming_message(std::move(message), sender);
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

  std::uint64_t calls() const { return calls_; }

 private:
  std::unique_ptr<PrimaryComponentAlgorithm> inner_;
  std::uint64_t calls_ = 0;
};

Gcs::AlgorithmFactory thesis_api_only(AlgorithmKind kind) {
  return [kind](ProcessId self, const View& initial) {
    return std::make_unique<ThesisApiOnly>(make_algorithm(kind, self, initial));
  };
}

/// Every process's observable state, compared field by field.
void expect_same_processes(const Gcs& fast, const Gcs& adapted,
                           const std::string& where) {
  ASSERT_EQ(fast.process_count(), adapted.process_count());
  for (ProcessId p = 0; p < fast.process_count(); ++p) {
    const AlgorithmDebugInfo a = fast.algorithm(p).debug_info();
    const AlgorithmDebugInfo b = adapted.algorithm(p).debug_info();
    ASSERT_EQ(a.last_primary, b.last_primary) << where << " process " << p;
    ASSERT_EQ(a.ambiguous_count, b.ambiguous_count)
        << where << " process " << p;
    ASSERT_EQ(a.blocked, b.blocked) << where << " process " << p;
    ASSERT_EQ(a.session_number, b.session_number)
        << where << " process " << p;
    ASSERT_EQ(fast.algorithm(p).in_primary(), adapted.algorithm(p).in_primary())
        << where << " process " << p;
  }
}

/// A fault model as the driver is configured for it: the geometric model
/// with crashes is the same kind with a non-zero crash fraction.
struct Faults {
  const char* name;
  FaultModelKind kind;
  double crash_fraction;
};

void PrintTo(const Faults& faults, std::ostream* os) { *os << faults.name; }

using EquivalenceParam = std::tuple<AlgorithmKind, Faults>;

class ReceivePathEquivalence
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(ReceivePathEquivalence, FastPathMatchesThesisAdapter) {
  const auto [kind, faults] = GetParam();
  constexpr std::size_t kRuns = 3;  // cascading: state carries across runs
  std::size_t events = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SimulationConfig config;
    config.algorithm = kind;
    config.processes = 10;
    config.changes_per_run = 8;
    config.mean_rounds_between_changes = 1.5;
    config.seed = seed * 7919;
    config.fault_model.kind = faults.kind;
    config.crash_fraction = faults.crash_fraction;
    Simulation fast(config);

    config.algorithm_factory = thesis_api_only(kind);
    Simulation adapted(config);

    for (std::size_t run = 0; run < kRuns; ++run) {
      const std::string where = std::string(faults.name) + " seed " +
                                std::to_string(seed) + " run " +
                                std::to_string(run);
      for (;;) {
        const std::optional<RunResult> a = fast.run_events(1);
        const std::optional<RunResult> b = adapted.run_events(1);
        ++events;
        ASSERT_EQ(a.has_value(), b.has_value()) << where;
        ASSERT_NO_FATAL_FAILURE(
            expect_same_processes(fast.gcs(), adapted.gcs(), where));
        if (a) {
          ASSERT_EQ(*a, *b) << where;
          break;
        }
      }
    }
    EXPECT_EQ(fast.gcs().deliveries(), adapted.gcs().deliveries());
    EXPECT_EQ(fast.invariant_checks(), adapted.invariant_checks());
  }
  EXPECT_GT(events, 32u * kRuns * 8u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAcrossModels, ReceivePathEquivalence,
    ::testing::Combine(
        ::testing::ValuesIn(all_algorithm_kinds()),
        ::testing::Values(Faults{"geometric", FaultModelKind::kGeometric, 0.0},
                          Faults{"sleepy", FaultModelKind::kSleepy, 0.0},
                          Faults{"repairable", FaultModelKind::kRepairable,
                                 0.0},
                          Faults{"crash", FaultModelKind::kGeometric, 0.3})),
    [](const ::testing::TestParamInfo<EquivalenceParam>& p) {
      std::string name = std::string(to_string(std::get<0>(p.param))) + "_" +
                         std::get<1>(p.param).name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ReceivePath, ThesisApiOnlyAlgorithmSeesEveryDelivery) {
  // Round deliveries, partition and merge flushes and the crash flush all
  // reach an algorithm that only overrides incoming_message.
  constexpr std::size_t kProcesses = 6;
  Gcs gcs(thesis_api_only(AlgorithmKind::kYkd), kProcesses);
  const auto calls = [&] {
    std::uint64_t n = 0;
    for (ProcessId p = 0; p < kProcesses; ++p) {
      n += static_cast<const ThesisApiOnly&>(gcs.algorithm(p)).calls();
    }
    return n;
  };

  // Each change lands while the previous round's states are in flight, so
  // each one flushes some deliveries.
  const auto flushed = [&](auto&& change) {
    gcs.step_round();
    const std::uint64_t before = gcs.deliveries();
    change();
    return gcs.deliveries() - before;
  };
  gcs.apply_partition(0, ProcessSet(kProcesses, {4, 5}));
  EXPECT_GT(flushed([&] {
              gcs.apply_partition(0, ProcessSet(kProcesses, {3}),
                                  test::all_cross());
            }),
            0u);
  EXPECT_GT(flushed([&] { gcs.apply_merge(0, 1); }), 0u);
  EXPECT_GT(flushed([&] { gcs.apply_crash(2); }), 0u);
  test::settle(gcs);

  EXPECT_EQ(calls(), gcs.deliveries());
}

// ---------------------------------------------------------------------
// Hand-fed quorums: universe {0,1,2,3}, new view {0,1,2}.

constexpr std::size_t kUniverse = 4;
constexpr ViewId kViewId = 5;

const View& initial_view() {
  static const View view{1, ProcessSet::full(kUniverse)};
  return view;
}

const View& next_view() {
  static const View view{kViewId, ProcessSet(kUniverse, {0, 1, 2})};
  return view;
}

/// Deliver `payload` from `sender` through the GCS's entry point.
void deliver(PrimaryComponentAlgorithm& alg,
             std::shared_ptr<ProtocolPayload> payload, ProcessId sender) {
  payload->view_id = kViewId;
  Message m;
  m.protocol = std::move(payload);
  alg.receive(m, sender);
}

/// Bring a YKD-family member of the new view to the attempt stage: every
/// member reports the genesis state, so it proposes {1, {0,1,2}}.
Session attempt_stage(PrimaryComponentAlgorithm& alg) {
  alg.view_changed(next_view());
  const Session genesis{0, ProcessSet::full(kUniverse)};
  for (ProcessId q = 0; q < 3; ++q) {
    auto state = std::make_shared<StateExchangePayload>();
    state->last_primary = genesis;
    state->last_formed.assign(kUniverse, genesis);
    deliver(alg, state, q);
  }
  EXPECT_EQ(alg.debug_info().session_number, 1u);
  return Session{1, next_view().members};
}

std::shared_ptr<ProtocolPayload> attempt(const Session& proposal) {
  auto a = std::make_shared<AttemptPayload>();
  a->proposal = proposal;
  return a;
}

TEST(RunningQuorum, RepeatedYkdAttemptCountsOnce) {
  Ykd alg(0, initial_view(), YkdOptions{.optimized = true});
  const Session proposal = attempt_stage(alg);
  deliver(alg, attempt(proposal), 0);
  deliver(alg, attempt(proposal), 0);
  deliver(alg, attempt(proposal), 1);
  deliver(alg, attempt(proposal), 1);
  EXPECT_FALSE(alg.in_primary());
  deliver(alg, attempt(proposal), 2);
  EXPECT_TRUE(alg.in_primary());
  EXPECT_EQ(alg.last_primary_session(), proposal);
}

TEST(RunningQuorum, RepeatedDflsGcRoundCountsOnce) {
  Dfls alg(0, initial_view());
  const Session proposal = attempt_stage(alg);
  for (ProcessId q = 0; q < 3; ++q) deliver(alg, attempt(proposal), q);
  ASSERT_TRUE(alg.in_primary());
  // The formed session stays ambiguous until the GC round completes.
  ASSERT_EQ(alg.debug_info().ambiguous_count, 1u);
  const auto gc = [&] {
    auto g = std::make_shared<GcRoundPayload>();
    g->formed_number = proposal.number;
    return g;
  };
  deliver(alg, gc(), 1);
  deliver(alg, gc(), 1);
  deliver(alg, gc(), 0);
  deliver(alg, gc(), 0);
  EXPECT_EQ(alg.debug_info().ambiguous_count, 1u);
  deliver(alg, gc(), 2);
  EXPECT_EQ(alg.debug_info().ambiguous_count, 0u);
}

/// The payload type of the next message `alg` multicasts, if any.
std::optional<PayloadType> next_send(PrimaryComponentAlgorithm& alg) {
  const std::optional<Message> out =
      alg.outgoing_message_poll(Message::empty());
  if (!out || !out->protocol) return std::nullopt;
  return out->protocol->type();
}

TEST(RunningQuorum, RepeatedMr1pProposeAndAttemptCountOnce) {
  Mr1p alg(0, initial_view());
  alg.view_changed(next_view());  // no pending session: proposes the view
  ASSERT_EQ(next_send(alg), PayloadType::kMr1pPropose);
  const Session proposal{kViewId, next_view().members};
  const auto propose = [&] {
    auto p = std::make_shared<Mr1pProposePayload>();
    p->proposal = proposal;
    return p;
  };
  deliver(alg, propose(), 0);
  deliver(alg, propose(), 0);
  deliver(alg, propose(), 1);
  deliver(alg, propose(), 1);
  EXPECT_EQ(next_send(alg), std::nullopt);  // <V,1> not yet from everyone
  deliver(alg, propose(), 2);
  EXPECT_EQ(next_send(alg), PayloadType::kMr1pAttempt);

  // A majority of {0,1,2} is two distinct senders, not two messages.
  const auto mr1p_attempt = [&] {
    auto a = std::make_shared<Mr1pAttemptPayload>();
    a->proposal = proposal;
    return a;
  };
  deliver(alg, mr1p_attempt(), 2);
  deliver(alg, mr1p_attempt(), 2);
  EXPECT_FALSE(alg.in_primary());
  deliver(alg, mr1p_attempt(), 0);
  EXPECT_TRUE(alg.in_primary());
  EXPECT_EQ(alg.last_primary_session(), proposal);
}

TEST(RunningQuorum, CountsSurviveASnapshotRestore) {
  // The counts are derived and never written: load() recomputes them from
  // the restored sets, so a restored member completes on the same arrival.
  Ykd alg(0, initial_view(), YkdOptions{.optimized = true});
  const Session proposal = attempt_stage(alg);
  deliver(alg, attempt(proposal), 0);
  deliver(alg, attempt(proposal), 1);
  Encoder enc;
  alg.save(enc);
  const std::vector<std::byte> bytes = enc.take();

  Ykd restored(0, initial_view(), YkdOptions{.optimized = true});
  Decoder dec(bytes);
  restored.load(dec);
  dec.finish();
  deliver(restored, attempt(proposal), 1);
  EXPECT_FALSE(restored.in_primary());
  deliver(restored, attempt(proposal), 2);
  EXPECT_TRUE(restored.in_primary());
}

}  // namespace
}  // namespace dynvote
