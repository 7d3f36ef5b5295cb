// service_mix: an in-process service::AlphaService (2 eval threads, 1 op
// worker, 1 job worker, a fresh checkpoint directory) driven through Call
// by one closed-loop client. Per job: submit_search, job_status polls until
// DONE, job_result, backtest, two identical stress requests and a signals
// lookup per validation date. After the jobs: a fixed count of job_status
// and signals lookups against the idle service.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "core/pruning.h"
#include "layers.h"
#include "market/dataset.h"
#include "scenario/scenario.h"
#include "service/alpha_service.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

using namespace alphaevolve;

namespace {

constexpr int kJobs = 128;
/// Every job spec is the service's default (population 20, tournament 5,
/// batch 8) but for its seed and budget; the batch size is still sent, so
/// the stream stays fixed if the default changes.
constexpr int64_t kJobCandidates = 800;
constexpr int kJobBatch = 8;
constexpr int kStressScenarios = 7;  // the whole standard suite
constexpr int kLookupCalls = 20000;
constexpr int kSetupReps = 40;

service::ServiceOptions Options(const std::string& dir) {
  service::ServiceOptions o;
  o.eval_threads = 2;
  o.op_workers = 1;
  o.supervisor.worker_threads = 1;
  o.supervisor.checkpoint_dir = dir;
  return o;
}

/// The panel the service simulates, for the stand-alone layer timers.
market::MarketConfig ServicePanelConfig(const service::ServiceOptions& o) {
  market::MarketConfig mc;
  mc.num_stocks = o.num_stocks;
  mc.num_days = o.num_days;
  mc.seed = o.data_seed;
  return mc;
}

/// Client-side latency samples, microseconds.
struct Timers {
  std::vector<double> submit, status, signals, backtest, stress;
};

/// One closed-loop client: every call waits for its response.
class Client {
 public:
  Client(service::AlphaService& svc, Outcome& out) : svc_(svc), out_(out) {}

  /// Issues one op; returns its result object (null on an error envelope,
  /// which fails the run). `raw` receives the response line.
  JsonValue Call(const std::string& op, const std::string& params,
                 std::vector<double>* us, std::string* raw = nullptr,
                 const std::string& id = "") {
    const std::string rid = id.empty() ? "r" + std::to_string(next_id_++) : id;
    const std::string line = "{\"op\":\"" + op + "\",\"id\":\"" + rid +
                             "\",\"params\":" + params + "}";
    const double t0 = WallSeconds();
    std::string resp = svc_.Call(line);
    if (us != nullptr) us->push_back((WallSeconds() - t0) * 1e6);
    ++out_.attempted;
    JsonValue result;
    bool ok = false;
    try {
      const JsonValue v = JsonValue::Parse(resp);
      ok = v.At("ok").AsBool();
      if (ok) result = v.At("result");
    } catch (const std::exception&) {
      ok = false;
    }
    Check(out_, ok, op + " failed: " + resp.substr(0, 160));
    if (raw != nullptr) *raw = std::move(resp);
    return result;
  }

 private:
  service::AlphaService& svc_;
  Outcome& out_;
  int64_t next_id_ = 0;
};

std::string JobParam(const std::string& job) {
  return "{\"job\":\"" + job + "\"}";
}

struct Round {
  /// Per job: submit-to-DONE seconds, candidates per second of that time
  /// and process CPU seconds per 1000 candidates over it. The CPU seconds
  /// of all those windows, summed.
  std::vector<double> job_s, job_cps, job_cpu_per_k;
  double job_wall_s = 0.0, job_cpu_s = 0.0;
  int64_t candidates = 0;
  double fitness_sum = 0.0;
  double lookup_ops_per_s = 0.0;
  KnownFaults faults;
  /// Summed job statistics (for the per-layer ratios).
  int64_t evaluated = 0, cache_hits = 0, pruned = 0, cutoff_discarded = 0;
  std::vector<core::AlphaProgram> bests;
};

double Num(const JsonValue& v, const char* key) {
  const JsonValue& x = v.At(key);
  return x.is_number() ? x.AsDouble() : std::nan("");
}

/// One whole round of the client's script; checks every response.
Round RunRound(service::AlphaService& svc, Outcome& out, const Args& args,
               Timers& t) {
  Client client(svc, out);
  Round round;
  const market::Dataset& dataset = svc.dataset();
  const std::vector<int>& valid_dates = dataset.dates(market::Split::kValid);
  check::Panel labels;
  for (int date : valid_dates) {
    std::vector<double> row(static_cast<size_t>(dataset.num_tasks()));
    for (int k = 0; k < dataset.num_tasks(); ++k) {
      row[static_cast<size_t>(k)] = dataset.Label(k, date);
    }
    labels.push_back(std::move(row));
  }
  const int num_dates = static_cast<int>(valid_dates.size());

  std::vector<std::string> mined;  // jobs that found an alpha
  for (int j = 0; j < kJobs; ++j) {
    const uint64_t seed = args.seed * 100 + static_cast<uint64_t>(j) + 1;
    const double t_submit = WallSeconds();
    const double cpu0 = CpuSeconds();
    const JsonValue sub = client.Call(
        "submit_search",
        "{\"seed\":" + std::to_string(seed) +
            ",\"max_candidates\":" + std::to_string(kJobCandidates) +
            ",\"batch_size\":" + std::to_string(kJobBatch) + "}",
        &t.submit);
    if (!sub.is_object()) return round;
    const std::string job = sub.At("job").AsString();
    std::string state;
    while (true) {
      const JsonValue st = client.Call("job_status", JobParam(job), &t.status);
      if (!st.is_object()) return round;
      state = st.At("state").AsString();
      if (state == "done" || state == "failed" || state == "cancelled") break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double job_s = WallSeconds() - t_submit;
    const double job_cpu_s = CpuSeconds() - cpu0;
    round.job_s.push_back(job_s);
    round.job_wall_s += job_s;
    Check(out, state == "done", "job " + job + " ended " + state);
    if (state != "done") return round;

    const JsonValue res = client.Call("job_result", JobParam(job), nullptr);
    if (!res.is_object()) return round;
    const JsonValue& stats = res.At("stats");
    const int64_t cands = stats.At("candidates").AsInt();
    round.candidates += cands;
    round.evaluated += stats.At("evaluated").AsInt();
    round.cache_hits += stats.At("cache_hits").AsInt();
    round.pruned += stats.At("pruned_redundant").AsInt();
    round.cutoff_discarded += stats.At("cutoff_discarded").AsInt();
    round.job_cps.push_back(static_cast<double>(cands) / job_s);
    round.job_cpu_s += job_cpu_s;
    round.job_cpu_per_k.push_back(job_cpu_s /
                                  (static_cast<double>(cands) / 1e3));
    Check(out, cands == kJobCandidates,
          "job " + job + " searched " + std::to_string(cands));
    Check(out,
          cands == stats.At("evaluated").AsInt() +
                       stats.At("cache_hits").AsInt() +
                       stats.At("pruned_redundant").AsInt(),
          "job " + job + ": candidates != evaluated + hits + pruned");
    // Per-alpha ops need a mined alpha; without one they answer not_found.
    if (!res.At("has_alpha").AsBool()) continue;
    round.fitness_sum += Num(res, "best_fitness");
    round.bests.push_back(
        core::AlphaProgram::FromString(res.At("program").AsString()));
    mined.push_back(job);

    const JsonValue bt = client.Call("backtest", JobParam(job), &t.backtest);
    if (!bt.is_object()) return round;

    // The alpha's validation predictions, one signals lookup per date; the
    // IC recomputed from them must match what backtest and job_result say.
    check::Panel preds;
    for (int d = 0; d < num_dates; ++d) {
      const JsonValue sig = client.Call(
          "signals",
          "{\"job\":\"" + job + "\",\"date\":" + std::to_string(d) + "}",
          &t.signals);
      if (!sig.is_object()) return round;
      std::vector<double> row;
      for (const JsonValue& p : sig.At("predictions").AsArray()) {
        row.push_back(p.is_number() ? p.AsDouble() : std::nan(""));
      }
      preds.push_back(std::move(row));
    }
    if (!res.At("metrics").At("valid").AsBool()) {
      // The alpha is valid on the validation dates but non-finite on the
      // test dates, so its full metrics are invalid; backtest must agree.
      ++round.faults.invalid_on_test;
      Check(out, !bt.At("valid").AsBool(),
            "job " + job + ": backtest valid, job_result metrics invalid");
    } else if (std::any_of(preds.begin(), preds.end(),
                           check::OverflowsDouble)) {
      // Predictions beyond the double range: the IC comparison is left
      // out (see README, "Left out").
      ++round.faults.ic_overflow;
    } else {
      const double ic = check::InformationCoefficient(preds, labels);
      const double bt_ic = Num(bt, "ic_valid");
      const double res_ic = Num(res.At("metrics"), "ic_valid");
      Check(out, check::Close(ic, bt_ic) && check::Close(ic, res_ic),
            "job " + job + " backtest ic_valid " + std::to_string(bt_ic) +
                ", job_result " + std::to_string(res_ic) + " != recomputed " +
                std::to_string(ic));
    }

    // Two identical stress requests: one finite IC per regime, same bytes.
    const std::string stress_params =
        "{\"job\":\"" + job +
        "\",\"scenarios\":" + std::to_string(kStressScenarios) + "}";
    std::string first, second;
    const JsonValue st1 = client.Call("stress", stress_params, &t.stress,
                                      &first, "stress-" + job);
    client.Call("stress", stress_params, &t.stress, &second, "stress-" + job);
    Check(out, first == second, "job " + job + ": stress not repeatable");
    if (!st1.is_object()) return round;
    const std::vector<JsonValue>& regimes = st1.At("scenarios").AsArray();
    Check(out, static_cast<int>(regimes.size()) == kStressScenarios,
          "job " + job + ": stress returned " +
              std::to_string(regimes.size()) + " regimes");
    for (const JsonValue& r : regimes) {
      Check(out, std::isfinite(Num(r, "ic_valid")),
            "job " + job + ": non-finite stress IC");
    }
  }

  // Reads against the idle service: alternate job_status and signals.
  Check(out, !mined.empty(), "no job mined an alpha");
  if (mined.empty()) return round;
  const double t0 = WallSeconds();
  for (int i = 0; i < kLookupCalls; ++i) {
    const std::string& job = mined[static_cast<size_t>(i / 2) % mined.size()];
    if (i % 2 == 0) {
      client.Call("job_status", JobParam(job), &t.status);
    } else {
      client.Call("signals",
                  "{\"job\":\"" + job + "\",\"date\":" +
                      std::to_string((i / 2) % num_dates) + "}",
                  &t.signals);
    }
  }
  round.lookup_ops_per_s = kLookupCalls / (WallSeconds() - t0);
  return round;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> Ms(const std::vector<double>& us) {
  std::vector<double> ms;
  for (double u : us) ms.push_back(u * 1e-3);
  return ms;
}

}  // namespace

Outcome RunServiceMix(const Args& args) {
  Outcome out;
  const std::string base =
      std::string(kOutDir) + "/service-" + std::to_string(getpid());
  std::filesystem::remove_all(base);

  // Set-up: panel simulation, evaluator pool, supervisor recovery on an
  // empty checkpoint directory, worker threads. Half the repetitions run
  // before the measurement and the rest after it, each followed by a pause
  // (see kSetupGapMs).
  std::unique_ptr<service::AlphaService> svc;
  std::vector<double> setup;
  auto set_up = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      svc.reset();
      const std::string dir = base + "/setup" + std::to_string(setup.size());
      const double t0 = WallSeconds();
      svc = std::make_unique<service::AlphaService>(Options(dir));
      setup.push_back(WallSeconds() - t0);
      std::this_thread::sleep_for(std::chrono::milliseconds(kSetupGapMs));
    }
  };
  set_up(kSetupReps / 2);

  if (args.trace) {
    out.layers = EmptyLayers();
    std::map<std::string, double>& L = out.layers;
    Timers plain_timers, t;
    const Round plain = RunRound(*svc, out, args, plain_timers);
    BeginTracing();
    const Round traced = RunRound(*svc, out, args, t);
    const SpanTotals spans = CollectSpans();
    L["ckpt.writes"] = static_cast<double>(CounterValue("ckpt.writes"));
    L["ckpt.bytes_written"] =
        static_cast<double>(CounterValue("ckpt.bytes_written"));
    L["service.op_us"] = HistogramP50("service.op_micros");
    EndTracing();
    auto median_ms = [&spans](const char* n) {
      const auto it = spans.ms.find(n);
      return it == spans.ms.end() ? 0.0 : Median(it->second);
    };
    L["ckpt.write_ms"] = median_ms("checkpoint.write");
    L["ckpt.capture_ms"] = median_ms("checkpoint.capture");
    L["service.submit_us"] = Median(t.submit);
    L["service.status_us"] = Median(t.status);
    L["service.signals_us"] = Median(t.signals);
    const auto lease = spans.seconds.find("pool.lease_acquire");
    L["pool.lease_wait_s"] =
        lease == spans.seconds.end() ? 0.0 : lease->second;
    const double cands = static_cast<double>(traced.candidates);
    L["evolution.cache_hit_ratio"] =
        Ratio(static_cast<double>(traced.cache_hits), cands);
    L["evolution.pruned_ratio"] =
        Ratio(static_cast<double>(traced.pruned), cands);
    L["evolution.eval_ratio"] =
        Ratio(static_cast<double>(traced.evaluated), cands);
    L["evolution.cutoff_discard_ratio"] =
        Ratio(static_cast<double>(traced.cutoff_discarded),
              static_cast<double>(traced.evaluated));
    const double cps_plain = Ratio(static_cast<double>(plain.candidates),
                                   plain.job_wall_s);
    const double cps_traced = Ratio(cands, traced.job_wall_s);
    L["obs.trace_overhead_pct"] =
        100.0 * Ratio(cps_plain - cps_traced, cps_plain);
    L["obs.spans_dropped"] = static_cast<double>(spans.dropped);

    const MutateTimes mt = TimeMutatePrune(args.seed, svc->dataset().window());
    L["evolution.mutate_us"] = mt.mutate_us;
    L["evolution.prune_fingerprint_us"] = mt.prune_fingerprint_us;
    const ReplayTimes rt = TimeReplay(svc->dataset(), traced.bests);
    L["executor.run_ms"] = rt.run_ms;
    L["eval.metrics_ms"] = rt.metrics_ms;
    const service::ServiceOptions opts = Options("");
    L["market.simulate_ms"] = MedianMs(3, [&opts] {
      market::Dataset::Simulate(ServicePanelConfig(opts),
                                market::DatasetConfig{});
    });
    const scenario::ScenarioSuite suite = scenario::ScenarioSuite::Standard(
        ServicePanelConfig(opts), opts.data_seed);
    L["scenario.materialize_ms"] = MedianMs(3, [&suite] {
      suite.Materialize(1, market::DatasetConfig{});
    });
    out.account.push_back(
        "service_mix traced round: " + std::to_string(traced.job_s.size()) +
        " jobs, median job " + std::to_string(Median(traced.job_s)) + " s");
  } else {
    std::vector<double> job_s, cps, cpu_per_k, lookups;
    KnownFaults faults;
    Timers t;
    double fitness = 0.0, cpu_s = 0.0, candidates = 0.0;
    const double start = WallSeconds();
    do {
      const Round r = RunRound(*svc, out, args, t);
      job_s.insert(job_s.end(), r.job_s.begin(), r.job_s.end());
      cps.insert(cps.end(), r.job_cps.begin(), r.job_cps.end());
      cpu_s += r.job_cpu_s;
      cpu_per_k.insert(cpu_per_k.end(), r.job_cpu_per_k.begin(),
                       r.job_cpu_per_k.end());
      candidates += static_cast<double>(r.candidates);
      lookups.push_back(r.lookup_ops_per_s);
      faults = r.faults;
      fitness = r.fitness_sum / kJobs;
      if (!out.correct) break;
    } while (WallSeconds() - start < args.seconds);
    set_up(kSetupReps - kSetupReps / 2);
    out.end_to_end = {
        {"cpu_s_per_kcand", Median(cpu_per_k), "s"},
        {"fitness_at_budget", fitness, "IC"},
        {"setup_s", Median(setup), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    out.workload = {
        {"cands_per_s", Median(cps), "1/s"},
        {"job_s", Median(job_s), "s"},
        {"cpu_s_per_kcand_mean", cpu_s / (candidates / 1e3), "s"},
        {"stress_ms", Median(Ms(t.stress)), "ms"},
        {"backtest_ms", Median(Ms(t.backtest)), "ms"},
        {"lookup_ops_per_s", Median(lookups), "1/s"},
        {"best_invalid_on_test", static_cast<double>(faults.invalid_on_test),
         "count"},
        {"job_ic_overflow", static_cast<double>(faults.ic_overflow), "count"},
    };
  }
  svc.reset();  // drains and joins every service thread
  std::filesystem::remove_all(base);
  return out;
}

}  // namespace perfbench
