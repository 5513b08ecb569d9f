// demotx:expert-file: benchmark: drives every semantics tier, the object-ops opt-in and the durable service by design
// demotx benchmark driver: one workload per invocation, two time bases.
//
//   demotx_perfbench --workload <list|hashset|bank|kv> --seed N
//                    --seconds S --trace 0|1 [--trace-out FILE]
//
// Every workload runs under the virtual-time simulator (N fibers,
// round-robin = an ideal N-way machine) in episodes; episode e of seed s
// always draws the same inputs.  A run has three parts:
//
//   set-up  builds the initial state from the seed and runs one warm-up
//           episode; that state is the one measured.  `setup_s` is the
//           median of kSetups set-ups: this one and the rest on spare
//           instances spread over the filler, so it samples the host
//           across the whole run.
//   fixed   round(S x episodes_per_second) episodes.  Every virtual-cycle
//           metric comes from these, so for one seed it is identical on
//           every run and every host.
//   filler  further episodes until S seconds have passed since the
//           fixed part began.
//
// Host-clock op costs are per-layer figures, not end-to-end ones: on a
// shared machine neighbours' cache and atomic traffic slow this code by
// up to 1.6x in phases lasting 10 to 40 seconds, so run-to-run spread
// of any host-time-per-op figure (simulated or real mode) reaches 16%,
// too wide to gate a change on.  `setup_s` is the one host-clock
// end-to-end metric; its samples are spread over the run for that
// reason.
//
// With --trace 1 the last line carries the per-layer metrics instead.
// The fixed episodes record spans at the benchmark's layer boundaries:
// `op` around each container / account op the benchmark issues, `tx`
// around each transaction attempt (the stm::TxObserver begin ->
// commit|abort hooks) with its op as parent.  For the closed-loop
// workloads the filler is replaced by real mode: the same op stream on
// one OS thread without the simulator, untraced for the first half
// (`real_ns_per_op`) and traced for the second.  Spans stay in memory;
// --trace-out writes the first kTraceEventCap of each phase as Chrome
// trace-event JSON (virtual cycles or ns as timestamps).
//
// Every op's result is checked: each episode checks the structure's
// size against initial + net adds, the bank's conserved total (every
// audit too) and, for the KV service, the service reply oracle; real
// mode replays every batch against a sequential model.  A wrong result
// or a shed request counts as failed and makes the run incorrect.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ds/tx_hashset.hpp"
#include "ds/tx_list.hpp"
#include "dur/wal.hpp"
#include "harness/workload.hpp"
#include "mem/epoch.hpp"
#include "stm/observer.hpp"
#include "stm/stm.hpp"
#include "svc/kvservice.hpp"
#include "svc/openloop.hpp"
#include "vt/scheduler.hpp"

using namespace demotx;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetups = 9;
constexpr std::size_t kTraceEventCap = 5000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(mix64(seed) | 1) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// Linear interpolation between closest ranks (numpy's default).
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = static_cast<double>(v[lo]);
  if (lo + 1 >= v.size()) return a;
  const double b = static_cast<double>(
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo + 1),
                        v.end()));
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// ---- result line ------------------------------------------------------

struct Report {
  bool correct = true;
  std::string why;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void fail(const std::string& w) {
    ++failed;
    if (correct) why = w;
    correct = false;
  }
  void add(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, {v, unit}});
  }
  void print(std::ostream& os) const {
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char buf[64];
      const auto res = std::to_chars(buf, buf + sizeof buf,
                                     metrics[i].second.first);
      os << (i == 0 ? "" : ", ") << "\"" << metrics[i].first
         << "\": {\"value\": " << std::string(buf, res.ptr)
         << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    }
    os << "}}\n";
  }
};

// ---- tracing ----------------------------------------------------------

// Records `op` spans (opened by the benchmark loops) and `tx` spans (one
// per transaction attempt, from the observer hooks) per logical thread.
// Timestamps are virtual cycles under the simulator, host ns otherwise.
// Closed spans fold into running totals; the first kTraceEventCap are
// also kept for the trace file, so memory stays bounded on long runs.
// Attached only while single-OS-threaded (all fibers share one OS
// thread; real mode uses one thread).
class Tracer final : public stm::TxObserver {
 public:
  struct Totals {
    double op_time = 0, op_self = 0;  // op spans, and their part outside tx
    std::uint64_t ops = 0;
    double commit_time = 0, abort_time = 0;  // tx spans by outcome
    std::uint64_t commits = 0, aborts = 0;
  };

  explicit Tracer(bool virtual_time)
      : virtual_(virtual_time), t0_(Clock::now()) {}
  Tracer(const Tracer&) = delete;  // the observer hook holds its address
  Tracer& operator=(const Tracer&) = delete;

  void attach() { stm::set_tx_observer(this); }
  static void detach() { stm::set_tx_observer(nullptr); }

  void open_op(int slot) { op_[slot] = Open{now(), 0, ++next_id_, 0}; }
  void close_op(int slot) {
    Open& o = op_[slot];
    if (o.id == 0) return;
    const std::uint64_t d = now() - o.start;
    totals_.op_time += static_cast<double>(d);
    totals_.op_self += static_cast<double>(d - o.cover);
    ++totals_.ops;
    keep(o, d, slot, "op");
    o.id = 0;
  }

  void on_begin(int slot, std::uint64_t, stm::Semantics,
                std::uint64_t) override {
    Open& t = tx_[slot];
    if (t.id != 0) return;  // flat-nested begin: the outer attempt covers it
    t = Open{now(), 0, ++next_id_, op_[slot].id};
  }
  void on_commit(int slot, std::uint64_t) override { close_tx(slot, true); }
  void on_abort(int slot, stm::AbortReason) override { close_tx(slot, false); }
  void on_read(int, const stm::Cell*, std::uint64_t, std::uint64_t,
               bool) override {}
  void on_elastic_cut(int, unsigned) override {}
  void on_strengthen(int, std::uint64_t) override {}
  void on_write(int, const stm::Cell*, std::uint64_t) override {}
  void on_release(int, const stm::Cell*) override {}
  void on_branch_rollback(int) override {}
  void on_commit_write(int, const stm::Cell*, std::uint64_t) override {}

  [[nodiscard]] const Totals& totals() const { return totals_; }

  void write_chrome(std::ostream& os, const char* phase, bool& first) const {
    for (const Event& e : kept_) {
      os << (first ? "\n" : ",\n") << "{\"name\": \"" << e.name
         << "\", \"cat\": \"" << phase << "\", \"ph\": \"X\", \"ts\": "
         << e.start << ", \"dur\": " << e.dur << ", \"pid\": 1, \"tid\": "
         << e.slot << ", \"args\": {\"id\": " << e.id
         << ", \"parent\": " << e.parent << "}}";
      first = false;
    }
  }

 private:
  struct Open {
    std::uint64_t start = 0;
    std::uint64_t cover = 0;   // summed duration of child tx spans
    std::uint64_t id = 0;      // 0 = no span open
    std::uint64_t parent = 0;  // enclosing op span id, 0 = none
  };
  struct Event {
    std::uint64_t start, dur, id, parent;
    int slot;
    const char* name;
  };

  std::uint64_t now() const {
    if (virtual_) return vt::sim_now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0_)
            .count());
  }
  void close_tx(int slot, bool ok) {
    Open& t = tx_[slot];
    if (t.id == 0) return;
    const std::uint64_t d = now() - t.start;
    (ok ? totals_.commit_time : totals_.abort_time) += static_cast<double>(d);
    ++(ok ? totals_.commits : totals_.aborts);
    if (t.parent != 0 && op_[slot].id == t.parent) op_[slot].cover += d;
    keep(t, d, slot, ok ? "tx-commit" : "tx-abort");
    t.id = 0;
  }
  void keep(const Open& o, std::uint64_t d, int slot, const char* name) {
    if (kept_.size() < kTraceEventCap)
      kept_.push_back(Event{o.start, d, o.id, o.parent, slot, name});
  }

  bool virtual_;
  Clock::time_point t0_;
  Totals totals_;
  std::uint64_t next_id_ = 0;
  std::vector<Event> kept_;
  Open op_[vt::kMaxThreads];
  Open tx_[vt::kMaxThreads];
};

// Opens/closes an op span when a tracer is present.
class OpSpan {
 public:
  OpSpan(Tracer* t, int slot) : t_(t), slot_(slot) {
    if (t_ != nullptr) t_->open_op(slot_);
  }
  ~OpSpan() {
    if (t_ != nullptr) t_->close_op(slot_);
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  Tracer* t_;
  int slot_;
};

// ---- phase results ----------------------------------------------------

struct SimResult {
  double lat_sum = 0;  // virtual cycles summed over every op / request
  std::uint64_t ops = 0;
  // Per episode: p99 op latency (KV: p99 of the slowest request class).
  std::vector<double> episode_p99;
  stm::TxStats stm;
  dur::WalStats wal;               // summed over episodes
  std::uint64_t svc_attempts = 0;  // KV: transaction attempts (all classes)
};

// ---- workloads --------------------------------------------------------

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  // Fresh initial state plus a warm-up episode; the last call's state is
  // the one the run measures.
  virtual void setup(std::uint64_t seed, Report& rep) = 0;
  // Seed-determined sim episodes per second of --seconds (sized so they
  // take about half of the run on a current x86 core).
  [[nodiscard]] virtual double episodes_per_second() const = 0;
  // Episode e of the run's stream (every e draws fresh inputs).
  virtual void sim_episode(std::uint64_t seed, std::uint64_t e, Tracer* tr,
                           SimResult& out, Report& rep) = 0;
  // Real-mode (one OS thread, no simulator) batches for the traced run.
  // The KV service runs only inside the simulator and has none.
  [[nodiscard]] virtual bool has_real_mode() const { return true; }
  virtual void begin_real() {}
  virtual std::uint64_t real_batch(Tracer*, Report&) { return 0; }
  virtual void final_check(Report& rep) = 0;
};

// One closed-loop episode: `fibers` fibers each run op(rng) back to back
// until `cycles` virtual cycles have passed; every op's latency is kept.
void closed_loop_episode(int fibers, std::uint64_t cycles, std::uint64_t seed,
                         Tracer* tr, SimResult& out, Report& rep,
                         const std::function<void(Rng&)>& op) {
  stm::Runtime& rt = stm::Runtime::instance();
  rt.reset_stats();
  rt.sim_lines_reset();

  vt::Scheduler::Options sopts;
  sopts.policy = vt::Scheduler::Policy::kRoundRobin;
  sopts.max_cycles = cycles * 64 + 10'000'000;
  vt::Scheduler sched(sopts);
  std::vector<std::vector<std::uint32_t>> lat(static_cast<std::size_t>(fibers));
  for (int f = 0; f < fibers; ++f) {
    sched.spawn([&, f](int id) {
      Rng rng(seed * 1000003 + static_cast<std::uint64_t>(f));
      auto& mine = lat[static_cast<std::size_t>(f)];
      while (sched.cycles() < cycles) {
        const std::uint64_t t0 = sched.cycles();
        {
          OpSpan span(tr, id);
          op(rng);
        }
        mine.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(sched.cycles() - t0, UINT32_MAX)));
      }
    });
  }
  sched.run();
  if (sched.hit_cycle_limit()) rep.fail("an episode hit the cycle limit");
  std::vector<std::uint32_t> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  for (const std::uint32_t c : all) out.lat_sum += c;
  out.ops += all.size();
  out.episode_p99.push_back(quantile(std::move(all), 0.99));
  out.stm.merge(rt.aggregate_stats());
  mem::EpochManager::instance().drain();
}

// Integer-set workloads over an ISet container (the paper's Collection
// workload, uniform keys over twice the initial size).
class SetWorkload final : public Workload {
 public:
  struct Params {
    std::function<std::unique_ptr<ISet>()> make;
    long initial_size;
    int contains_pct, add_pct, remove_pct;  // remainder is size
    int fibers;
    std::uint64_t cycles;  // per episode
    double episodes_per_second;
    std::size_t batch;  // real-mode ops per timed batch
  };

  explicit SetWorkload(Params p) : p_(std::move(p)) {}

  void setup(std::uint64_t seed, Report& rep) override {
    set_.reset();  // free the previous state before building the next
    set_ = p_.make();
    harness::WorkloadConfig cfg;
    cfg.initial_size = p_.initial_size;
    cfg.key_range = 2 * p_.initial_size;
    cfg.seed = seed;
    harness::prefill(*set_, cfg);
    size_ = p_.initial_size;
    SimResult warm;
    episode(mix64(seed ^ 0x5e7u), nullptr, warm, rep);
  }

  [[nodiscard]] double episodes_per_second() const override {
    return p_.episodes_per_second;
  }

  void sim_episode(std::uint64_t seed, std::uint64_t e, Tracer* tr,
                   SimResult& out, Report& rep) override {
    episode(mix64(seed) + e, tr, out, rep);
  }

  void begin_real() override {
    // Sequential model of the current contents (quiescent sweep).
    present_.assign(static_cast<std::size_t>(2 * p_.initial_size), 0);
    for (long k = 0; k < 2 * p_.initial_size; ++k)
      present_[static_cast<std::size_t>(k)] = set_->contains(k) ? 1 : 0;
    real_rng_ = Rng(mix64(static_cast<std::uint64_t>(size_)) ^ 0x3a11u);
    ops_.resize(p_.batch);
    results_.resize(p_.batch);
  }

  std::uint64_t real_batch(Tracer* tr, Report& rep) override {
    for (Op& o : ops_) o = gen(real_rng_);
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      OpSpan span(tr, 0);
      results_[i] = apply(ops_[i]);
    }
    // Replay against the model.  The caller times the whole call; input
    // generation and replay are small next to the ops and the same work
    // on every run.
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& o = ops_[i];
      auto& bit = present_[static_cast<std::size_t>(o.key)];
      long expect = 0;
      switch (o.kind) {
        case harness::OpKind::kContains: expect = bit; break;
        case harness::OpKind::kAdd:
          expect = bit == 0 ? 1 : 0;
          size_ += expect;
          bit = 1;
          break;
        case harness::OpKind::kRemove:
          expect = bit;
          size_ -= expect;
          bit = 0;
          break;
        case harness::OpKind::kSize: expect = size_; break;
      }
      if (results_[i] != expect)
        rep.fail("real-mode result differs from the sequential model");
    }
    rep.attempted += ops_.size();
    return ops_.size();
  }

  void final_check(Report& rep) override {
    if (set_->unsafe_size() != size_)
      rep.fail("final structure size differs from the model");
  }

 private:
  struct Op {
    harness::OpKind kind;
    long key;
  };

  void episode(std::uint64_t stream, Tracer* tr, SimResult& out,
               Report& rep) {
    long net = 0;
    bool bad_size = false;
    const std::uint64_t before = out.ops;
    closed_loop_episode(p_.fibers, p_.cycles, stream, tr, out, rep,
                        [&](Rng& rng) {
      const Op o = gen(rng);
      const long r = apply(o);
      if (o.kind == harness::OpKind::kAdd) net += r;
      if (o.kind == harness::OpKind::kRemove) net -= r;
      if (o.kind == harness::OpKind::kSize &&
          (r < 0 || r > 2 * p_.initial_size))
        bad_size = true;
    });
    size_ += net;
    rep.attempted += out.ops - before;
    if (bad_size) rep.fail("a size op returned an impossible size");
    if (set_->unsafe_size() != size_)
      rep.fail("structure size != initial + net adds after an episode");
  }

  Op gen(Rng& rng) const {
    const auto r = static_cast<int>(rng.below(100));
    const auto key = static_cast<long>(
        rng.below(static_cast<std::uint64_t>(2 * p_.initial_size)));
    if (r < p_.contains_pct) return {harness::OpKind::kContains, key};
    if (r < p_.contains_pct + p_.add_pct) return {harness::OpKind::kAdd, key};
    if (r < p_.contains_pct + p_.add_pct + p_.remove_pct)
      return {harness::OpKind::kRemove, key};
    return {harness::OpKind::kSize, key};
  }

  long apply(const Op& o) {
    switch (o.kind) {
      case harness::OpKind::kContains: return set_->contains(o.key) ? 1 : 0;
      case harness::OpKind::kAdd: return set_->add(o.key) ? 1 : 0;
      case harness::OpKind::kRemove: return set_->remove(o.key) ? 1 : 0;
      case harness::OpKind::kSize: return set_->size();
    }
    return 0;
  }

  Params p_;
  std::unique_ptr<ISet> set_;
  long size_ = 0;  // expected size: initial + net adds so far
  // Real mode.
  Rng real_rng_{1};
  std::vector<std::uint8_t> present_;
  std::vector<Op> ops_;
  std::vector<long> results_;
};

// Bank: classic two-account transfers plus snapshot audits of the whole
// table; the total is conserved, and every audit must see it.
class BankWorkload final : public Workload {
 public:
  static constexpr std::size_t kAccounts = 128;
  static constexpr long kInitial = 1000;
  static constexpr int kAuditPct = 2;
  static constexpr int kFibers = 16;
  static constexpr std::uint64_t kCycles = 100'000;
  static constexpr std::size_t kBatch = 4096;

  void setup(std::uint64_t seed, Report& rep) override {
    accounts_.reset(new stm::TVar<long>[kAccounts]);
    for (std::size_t i = 0; i < kAccounts; ++i)
      accounts_[i].unsafe_store(kInitial);
    SimResult warm;
    episode(mix64(seed ^ 0xba4cu), nullptr, warm, rep);
  }

  [[nodiscard]] double episodes_per_second() const override { return 6.0; }

  void sim_episode(std::uint64_t seed, std::uint64_t e, Tracer* tr,
                   SimResult& out, Report& rep) override {
    episode(mix64(seed) + e, tr, out, rep);
  }

  void begin_real() override {
    real_rng_ = Rng(static_cast<std::uint64_t>(accounts_[0].unsafe_load()));
  }

  std::uint64_t real_batch(Tracer* tr, Report& rep) override {
    for (std::size_t i = 0; i < kBatch; ++i) {
      OpSpan span(tr, 0);
      op(real_rng_, rep);
    }
    rep.attempted += kBatch;
    return kBatch;
  }

  void final_check(Report& rep) override {
    if (total() != expected()) rep.fail("final bank total not conserved");
  }

 private:
  static long expected() { return static_cast<long>(kAccounts) * kInitial; }
  [[nodiscard]] long total() const {
    long t = 0;
    for (std::size_t i = 0; i < kAccounts; ++i) t += accounts_[i].unsafe_load();
    return t;
  }

  void episode(std::uint64_t stream, Tracer* tr, SimResult& out,
               Report& rep) {
    const std::uint64_t before = out.ops;
    closed_loop_episode(kFibers, kCycles, stream, tr, out, rep,
                        [&](Rng& rng) { op(rng, rep); });
    rep.attempted += out.ops - before;
    if (total() != expected()) rep.fail("bank total not conserved");
  }

  void op(Rng& rng, Report& rep) {
    if (static_cast<int>(rng.below(100)) < kAuditPct) {
      const long sum =
          stm::atomically(stm::Semantics::kSnapshot, [&](stm::Tx& tx) {
            long s = 0;
            for (std::size_t i = 0; i < kAccounts; ++i)
              s += accounts_[i].get(tx);
            return s;
          });
      if (sum != expected()) rep.fail("an audit saw a non-conserved total");
      return;
    }
    const std::size_t from = rng.below(kAccounts);
    std::size_t to = rng.below(kAccounts - 1);
    if (to >= from) ++to;
    const long amount = 1 + static_cast<long>(rng.below(100));
    stm::atomically([&](stm::Tx& tx) {
      const long a = accounts_[from].get(tx);
      if (a < amount) return;
      accounts_[from].set(tx, a - amount);
      accounts_[to].set(tx, accounts_[to].get(tx) + amount);
    });
  }

  std::unique_ptr<stm::TVar<long>[]> accounts_;
  Rng real_rng_{1};
};

// KV service (src/svc/) with durable acks: open-loop arrivals below
// saturation, no admission or deadline shedding, so every request must
// be acknowledged and pass the service reply oracle.  The mix has no
// transfers: with them, about one 6000-request episode in a thousand
// never drains — its transfers abort on write-lock timeouts until the
// cycle brake (a fom re-parks an aborted attempt without the contention
// manager's backoff, so conflicting transfers can retry in lockstep
// under the round-robin simulator).  The classic tier's commit path is
// the bank workload's subject instead.
class KvWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kRequests = 6000;
  static constexpr std::uint64_t kGap = 40;

  void setup(std::uint64_t seed, Report& rep) override {
    SimResult warm;
    run(mix64(seed ^ 0x3e7u), warm, rep);
  }

  [[nodiscard]] double episodes_per_second() const override { return 4.0; }

  void sim_episode(std::uint64_t seed, std::uint64_t e, Tracer*,
                   SimResult& out, Report& rep) override {
    run(mix64(seed) + e, out, rep);
  }

  [[nodiscard]] bool has_real_mode() const override { return false; }
  void final_check(Report&) override {}

 private:
  static void run(std::uint64_t seed, SimResult& out, Report& rep) {
    svc::SvcConfig cfg;
    cfg.workers = 4;
    cfg.sessions = 32;
    cfg.queue_cap = 1u << 20;
    cfg.deadline_cycles = 0;
    cfg.mean_interarrival = kGap;
    cfg.total_requests = kRequests;
    cfg.bank_keys = 32;
    cfg.keys_per_session = 4;
    cfg.initial_balance = 100;
    cfg.durable = true;
    cfg.get_pct = 38;
    cfg.put_pct = 30;
    cfg.scan_pct = 30;
    cfg.transfer_pct = 0;  // the remaining 2% are irrevocable admin ops
    svc::KvService s(cfg, seed);
    stm::Runtime::instance().sim_lines_reset();
    const svc::OpenLoopResult r = svc::run_open_loop(s);
    out.stm.merge(stm::Runtime::instance().aggregate_stats());
    const dur::WalStats& w = dur::WalManager::instance().stats();
    out.wal.records_forced += w.records_forced;
    out.wal.flushes += w.flushes;
    out.wal.acks += w.acks;
    out.wal.ack_lat_sum += w.ack_lat_sum;

    svc::SvcStats& st = s.stats();
    rep.attempted += st.arrived;
    std::string why;
    if (r.hit_limit) rep.fail("KV episode hit the cycle limit");
    if (!s.check_replies(&why)) rep.fail("KV reply oracle: " + why);
    for (std::uint64_t i = 0; i < st.shed_total(); ++i)
      rep.fail("KV request shed");
    double p99 = 0;
    for (int c = 0; c < svc::kNumReqClasses; ++c) {
      out.lat_sum += static_cast<double>(st.lat[c].sum());
      out.ops += st.lat[c].count();
      out.svc_attempts += st.attempts[c];
      if (st.lat[c].count() > 0)
        p99 = std::max(p99, static_cast<double>(st.lat[c].p99()));
    }
    out.episode_p99.push_back(p99);
  }
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "list") {
    // Fig. 7 mix: elastic parses, classic size.
    return std::make_unique<SetWorkload>(SetWorkload::Params{
        [] {
          return std::make_unique<ds::TxList>(ds::TxList::Options{
              stm::Semantics::kElastic, stm::Semantics::kClassic});
        },
        256, 80, 5, 5, 8, 100'000, 12.0, 512});
  }
  if (name == "hashset") {
    // Object-ops tier, update-heavy mix, snapshot size.
    stm::Runtime::instance().config.object_ops = true;
    return std::make_unique<SetWorkload>(SetWorkload::Params{
        [] {
          return std::make_unique<ds::TxHashSet>(ds::TxHashSet::Options{
              256, stm::Semantics::kElastic, stm::Semantics::kSnapshot});
        },
        2048, 50, 20, 20, 16, 30'000, 4.0, 4096});
  }
  if (name == "bank") return std::make_unique<BankWorkload>();
  if (name == "kv") return std::make_unique<KvWorkload>();
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

void add_end_to_end(Report& rep, const SimResult& sim,
                    const std::vector<double>& setups) {
  rep.add("sim_cycles_mean", ratio(sim.lat_sum, static_cast<double>(sim.ops)),
          "cycles");
  double p99 = 0;
  for (const double v : sim.episode_p99) p99 += v;
  rep.add("sim_cycles_p99",
          ratio(p99, static_cast<double>(sim.episode_p99.size())), "cycles");
  rep.add("setup_s", quantile(setups, 0.5), "s");
}

void add_per_layer(Report& rep, const SimResult& sim, const Tracer& sim_tr,
                   const Tracer& real_tr, bool closed_loop,
                   const std::vector<double>& real_ns) {
  const stm::TxStats& st = sim.stm;
  const auto reason = [&st](stm::AbortReason r) {
    return static_cast<double>(st.aborts_by_reason[static_cast<int>(r)]);
  };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const Tracer::Totals& s = sim_tr.totals();
  const Tracer::Totals& r = real_tr.totals();
  const double commits = n(st.commits);
  // KV requests are not benchmark-side spans: the share outside any
  // transaction attempt is taken against total request latency.
  const double outside =
      closed_loop
          ? ratio(s.op_self, s.op_time)
          : ratio(sim.lat_sum - s.commit_time - s.abort_time, sim.lat_sum);
  rep.add("sim_tx_cycles", ratio(s.commit_time, n(s.commits)), "cycles");
  rep.add("sim_wasted_share",
          ratio(s.abort_time, s.commit_time + s.abort_time), "ratio");
  rep.add("sim_outside_tx_share", outside, "ratio");
  rep.add("stm_attempts_per_commit", ratio(n(st.commits + st.aborts), commits),
          "ratio");
  rep.add("stm_reads_per_commit", ratio(n(st.reads), commits), "count");
  rep.add("stm_writes_per_commit", ratio(n(st.writes), commits), "count");
  rep.add("stm_validation_aborts",
          reason(stm::AbortReason::kReadValidation) +
              reason(stm::AbortReason::kCommitValidation) +
              reason(stm::AbortReason::kWindowInvalid),
          "count");
  rep.add("stm_lock_aborts",
          reason(stm::AbortReason::kLockedByOther) +
              reason(stm::AbortReason::kWriteLockTimeout) +
              reason(stm::AbortReason::kKilled),
          "count");
  rep.add("stm_snapshot_aborts",
          reason(stm::AbortReason::kSnapshotTooOld) +
              reason(stm::AbortReason::kSnapshotRace),
          "count");
  rep.add("stm_snapshot_old_reads", n(st.snapshot_old_reads), "count");
  rep.add("obj_conflict_aborts", reason(stm::AbortReason::kObjectConflict),
          "count");
  rep.add("wal_group_size", ratio(n(sim.wal.records_forced), n(sim.wal.flushes)),
          "count");
  rep.add("wal_ack_cycles", ratio(n(sim.wal.ack_lat_sum), n(sim.wal.acks)),
          "cycles");
  rep.add("svc_attempts_per_request", ratio(n(sim.svc_attempts), n(sim.ops)),
          "ratio");
  // Request time outside attempts and durability waits: queueing plus
  // the post-decision commit work.
  rep.add("svc_queue_cycles",
          closed_loop ? 0.0
                      : ratio(sim.lat_sum - s.commit_time - s.abort_time -
                                  n(sim.wal.ack_lat_sum),
                              n(sim.ops)),
          "cycles");
  rep.add("real_ns_per_op", quantile(real_ns, 0.5), "ns");
  rep.add("real_tx_ns", ratio(r.commit_time, n(r.commits)), "ns");
  rep.add("real_op_self_ns", ratio(r.op_self, n(r.ops)), "ns");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: demotx_perfbench --workload <list|hashset|bank|kv> "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }

  Report rep;
  // Set-up: once now (the state the run measures), and in an untraced
  // run kSetups - 1 more times on spare instances spread over the run,
  // so the median samples the host across the whole run.
  std::vector<double> setups;
  const auto timed_setup = [&](Workload& target) {
    const auto t0 = Clock::now();
    target.setup(args.seed, rep);
    setups.push_back(seconds_since(t0));
  };
  timed_setup(*w);

  const auto run0 = Clock::now();
  const auto fixed = static_cast<std::uint64_t>(
      std::max(1.0, args.seconds * w->episodes_per_second() + 0.5));
  Tracer sim_tr(/*virtual_time=*/true);
  SimResult sim;
  // Seed-determined episodes: every sim metric comes from these.
  if (args.trace) sim_tr.attach();
  for (std::uint64_t e = 0; e < fixed; ++e)
    w->sim_episode(args.seed, e, args.trace ? &sim_tr : nullptr, sim, rep);
  Tracer::detach();

  Tracer real_tr(/*virtual_time=*/false);
  std::vector<double> real_ns;  // host ns per op, one per real batch
  if (args.trace && w->has_real_mode()) {
    // Real mode for the rest of the run: first half without spans,
    // second half traced.
    w->begin_real();
    const double half = (args.seconds + seconds_since(run0)) / 2;
    while (real_ns.size() < 5 || seconds_since(run0) < half) {
      const auto t0 = Clock::now();
      const std::uint64_t n = w->real_batch(nullptr, rep);
      real_ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
    }
    real_tr.attach();
    for (int b = 0; b < 5 || seconds_since(run0) < args.seconds; ++b)
      w->real_batch(&real_tr, rep);
    Tracer::detach();
  } else {
    // Further checked episodes (fresh inputs) until --seconds have
    // passed, with the spare set-ups spaced evenly among them.
    const double filler0 = seconds_since(run0);
    const double spacing =
        (args.seconds - filler0) / static_cast<double>(kSetups);
    for (std::uint64_t e = fixed; seconds_since(run0) < args.seconds; ++e) {
      SimResult extra;
      w->sim_episode(args.seed, e, nullptr, extra, rep);
      if (!args.trace && setups.size() < kSetups &&
          seconds_since(run0) >=
              filler0 + static_cast<double>(setups.size()) * spacing)
        timed_setup(*make_workload(args.workload));
    }
  }
  w->final_check(rep);
  std::cerr << "perfbench " << args.workload << " seed " << args.seed << ": "
            << fixed << " seed-determined episodes, " << real_ns.size()
            << " real batches, "
            << seconds_since(run0) << " s"
            << (rep.correct ? "" : "; INCORRECT: " + rep.why) << "\n";

  if (!args.trace) {
    add_end_to_end(rep, sim, setups);
  } else {
    add_per_layer(rep, sim, sim_tr, real_tr, w->has_real_mode(), real_ns);
    if (!args.trace_out.empty()) {
      std::ofstream f(args.trace_out);
      f << "{\"traceEvents\": [";
      bool first = true;
      sim_tr.write_chrome(f, "sim", first);
      real_tr.write_chrome(f, "real", first);
      f << "\n]}\n";
    }
  }
  rep.print(std::cout);
  return 0;
}
