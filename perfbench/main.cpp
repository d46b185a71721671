// perfbench: the end-to-end BERT-base benchmark of xflow.
//
// Runs one named workload through the public API (EncoderStackT, EmbeddingT,
// MakeStackArena, GraphExecutorT, MixedPrecisionAdam) on inputs generated
// from --seed, times warm steps for --seconds, checks the outputs, and
// prints one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) record spans around every call into a layer, replay every
// kernel of the schedule, and report the per-layer metrics. See README.md.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--perturb CHECK]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "fusion/fuser.hpp"
#include "graph/executor.hpp"
#include "replay.hpp"
#include "tensor/memstats.hpp"
#include "trace.hpp"
#include "transformer/arena.hpp"
#include "transformer/embedding.hpp"
#include "transformer/stack.hpp"
#include "transformer/training.hpp"

namespace {

using namespace xflow;
using namespace xflow::transformer;
using perfbench::CheckResult;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::SecondsSince;

constexpr std::int64_t kVocab = 30522;
constexpr int kLayers = 2;
constexpr int kMinWarmSteps = 3;
// Sequences of the batch the plain-loop reference forward recomputes.
constexpr int kReferenceSequences = 2;
// The whole run must end well inside the 180 s a run may take.
constexpr double kRunBudgetSeconds = 170;

struct Workload {
  const char* name;
  std::int64_t b, j;
  int threads;
  bool train;
  float dropout;
  std::size_t memory_budget;  // bytes; 0 plans without checkpointing
};

// BERT-base layers (h=12, p=64, i=768, u=3072), vocabulary 30522.
constexpr Workload kWorkloads[] = {
    {"bert-base-train", 8, 128, 4, true, 0.1f, 0},
    // 150 MB sits between the checkpointed (~129 MB) and the unbudgeted
    // (~181 MB) planned peaks: the planner must recompute one layer.
    {"long-seq-ckpt-train", 2, 512, 4, true, 0.1f, 150'000'000},
    {"bert-base-infer-1t", 8, 128, 1, false, 0.0f, 0},
};

const char* const kPerturbations[] = {
    "reference-forward",    "layernorm-property", "mse-loss",
    "output-bias-gradient", "embedding-gradient-balance",
    "loss-non-increasing",  "recompute-bitwise",  "threads-bitwise",
    "stall"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string perturb;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--perturb CHECK]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++k];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (flag == "--perturb") {
      a.perturb = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!a.perturb.empty() &&
      std::find_if(std::begin(kPerturbations), std::end(kPerturbations),
                   [&](const char* p) { return a.perturb == p; }) ==
          std::end(kPerturbations)) {
    Usage(("unknown --perturb " + a.perturb).c_str());
  }
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

TensorH DeepCopy(const TensorH& t) {
  TensorH out(t.shape());
  std::memcpy(out.data(), t.data(),
              static_cast<std::size_t>(t.size()) * sizeof(Half));
  return out;
}

/// One trainable tensor and its optimizer bookkeeping.
struct Param {
  std::string name;
  TensorF master;
  TensorH* working;
  TensorH* grad;
};

/// The model, its planned arena and bound executor, and (for training) the
/// gradients, fp32 masters and optimizer. Everything a step touches.
struct Model {
  EncoderConfig cfg;
  EncoderStack stack;
  Embedding embedding;
  StackArenaT<Half> arena;
  graph::GraphExecutorT<Half>* ex = nullptr;
  std::vector<EncoderGradients> grads;
  TensorH d_tok, d_pos;
  std::vector<Param> params;
  MixedPrecisionAdam adam;
  double adam_bytes = 0;  // computed bytes one optimizer step moves

  /// Constructs the layers and tables, then plans the arena; `plan_s`
  /// receives the planning time.
  Model(const EncoderConfig& config, std::uint64_t model_seed,
        std::uint64_t emb_seed, graph::StackGraphOptions options,
        std::size_t budget, double* plan_s, perfbench::Tracer& tracer)
      : cfg(config),
        stack(Construct(config, model_seed, tracer)),
        embedding(ConstructEmbedding(config, emb_seed, tracer)),
        arena(Plan(config, std::move(options), budget, tracer, plan_s)) {}

  static EncoderStack Construct(const EncoderConfig& c, std::uint64_t seed,
                                perfbench::Tracer& tracer) {
    ScopedSpan span(tracer, "EncoderStackT", "transformer");
    return EncoderStack(c, kLayers, seed);
  }
  static Embedding ConstructEmbedding(const EncoderConfig& c,
                                      std::uint64_t seed,
                                      perfbench::Tracer& tracer) {
    ScopedSpan span(tracer, "EmbeddingT", "transformer");
    return Embedding(kVocab, c.dims, seed);
  }
  static StackArenaT<Half> Plan(const EncoderConfig& c,
                                graph::StackGraphOptions options,
                                std::size_t budget, perfbench::Tracer& tracer,
                                double* plan_s) {
    ScopedSpan span(tracer, "MakeStackArena", "graph");
    const auto t0 = Clock::now();
    auto arena = MakeStackArena<Half>(c, std::move(options), budget);
    *plan_s = SecondsSince(t0);
    return arena;
  }

  /// Builds the executor and binds inputs, tables and gradient outputs.
  void Bind(const TokenIds& tokens, const TensorH* target, bool train,
            perfbench::Tracer& tracer) {
    ScopedSpan span(tracer, "GraphExecutorT build+bind", "graph");
    ex = &stack.Executor(arena);
    ex->BindInput("token_table", embedding.token_table());
    ex->BindInput("pos_table", embedding.pos_table());
    ex->BindTokens(tokens);
    if (!train) return;
    ex->BindInput("target", *target);
    d_tok = TensorH(embedding.token_table().shape());
    d_pos = TensorH(embedding.pos_table().shape());
    ex->BindOutput("d_token_table", d_tok);
    ex->BindOutput("d_pos_table", d_pos);
    grads.resize(kLayers);
    for (int l = 0; l < kLayers; ++l) {
      auto& g = grads[static_cast<std::size_t>(l)].params;
      g.EnsureShapes(cfg.dims);
      for (auto& [name, tensor] : g.Named()) {
        ex->BindOutput(StrFormat("L%d.d_%s", l, name.c_str()), *tensor);
      }
    }
  }

  /// fp32 master copies of every trainable tensor, tables included.
  void InitOptimizer() {
    for (int l = 0; l < kLayers; ++l) {
      auto named = stack.layer(l).params().Named();
      auto named_grads = grads[static_cast<std::size_t>(l)].params.Named();
      for (std::size_t p = 0; p < named.size(); ++p) {
        params.push_back({StrFormat("L%d.%s", l, named[p].first.c_str()),
                          named[p].second->Cast<float>(), named[p].second,
                          named_grads[p].second});
      }
    }
    params.push_back({"token_table", embedding.token_table().Cast<float>(),
                      &embedding.token_table(), &d_tok});
    params.push_back({"pos_table", embedding.pos_table().Cast<float>(),
                      &embedding.pos_table(), &d_pos});
    for (const Param& p : params) {
      // Reads master, grad, m, v; writes master, m, v, working copy.
      adam_bytes += static_cast<double>(p.master.size()) *
                    (3 * 4 + 2 + 3 * 4 + 2);
    }
  }

  void AdamStep(perfbench::Tracer& tracer) {
    for (Param& p : params) {
      ScopedSpan span(tracer, p.name, "optimizer");
      adam.Step(p.name, p.master, *p.working, *p.grad);
    }
  }

  [[nodiscard]] TensorH Output() {
    const auto& d = cfg.dims;
    return arena.arena().ViewAs<Half>(StrFormat("L%d.y", kLayers - 1),
                                      Shape("ibj", {d.i, d.b, d.j}));
  }

  /// Every gradient the executor writes, in a fixed order.
  std::vector<const TensorH*> Gradients() {
    std::vector<const TensorH*> out;
    for (auto& g : grads) {
      for (auto& [name, tensor] : g.params.Named()) out.push_back(tensor);
    }
    out.push_back(&d_tok);
    out.push_back(&d_pos);
    return out;
  }
};

struct StepTimes {
  double fwd = 0, bwd = 0, adam = 0;
  [[nodiscard]] double total() const { return fwd + bwd + adam; }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintJson(bool correct, std::int64_t attempted, std::int64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = StrFormat("{\"correct\": %s, \"attempted\": %lld, "
                              "\"failed\": %lld, \"metrics\": {",
                              correct ? "true" : "false",
                              static_cast<long long>(attempted),
                              static_cast<long long>(failed));
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     m == 0 ? "" : ", ", metrics[m].name.c_str(),
                     metrics[m].value, metrics[m].unit);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Run(const Args& args, Clock::time_point process_start) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const auto perturbed = [&](const char* check) {
    return args.perturb == check;
  };
  const bool train = w->train;
  perfbench::Watchdog watchdog(kRunBudgetSeconds);
  perfbench::Tracer tracer(args.trace);
  std::vector<CheckResult> checks;
  const auto add_check = [&](CheckResult c) {
    watchdog.Finished(c.ok);
    checks.push_back(std::move(c));
  };

  // ---- Inputs, all derived from --seed.
  watchdog.Phase("inputs");
  ThreadPool::SetGlobalThreads(w->threads);
  graph::ModelDims dims = graph::ModelDims::BertBase();
  dims.b = w->b;
  dims.j = dims.k = w->j;
  std::uint64_t state = args.seed;
  const std::uint64_t model_seed = SplitMix64(state);
  const std::uint64_t emb_seed = SplitMix64(state);
  const std::uint64_t dropout_seed = SplitMix64(state);
  const std::uint64_t target_seed = SplitMix64(state);
  TokenIds tokens(static_cast<std::size_t>(dims.b * dims.j));
  for (auto& t : tokens) {
    t = static_cast<std::int32_t>(SplitMix64(state) % kVocab);
  }
  const Shape ibj("ibj", {dims.i, dims.b, dims.j});
  const TensorH target = train ? TensorH::Random(ibj, target_seed) : TensorH();
  EncoderConfig cfg;
  cfg.dims = dims;
  cfg.dropout_prob = w->dropout;
  cfg.seed = dropout_seed;
  const graph::StackGraphOptions options{.num_layers = kLayers,
                                         .include_backward = train,
                                         .vocab = kVocab,
                                         .include_loss = train};

  // ---- Set-up: construction, planning, executor, cold step.
  watchdog.Phase("model construction");
  const auto t_init = Clock::now();
  double init_s = 0, plan_s = 0;
  Model model(cfg, model_seed, emb_seed, options, w->memory_budget, &plan_s,
              tracer);
  init_s = SecondsSince(t_init) - plan_s;
  watchdog.Phase("executor build");
  const auto t_exec = Clock::now();
  model.Bind(tokens, &target, train, tracer);
  if (train) model.InitOptimizer();
  const double exec_s = SecondsSince(t_exec);
  auto& ex = *model.ex;

  std::vector<double> losses;
  std::vector<std::uint64_t> first_grads;  // fingerprints, checkpointed runs
  double check_s = 0;  // untimed check work inside timed intervals
  const auto run_step = [&](bool check) {
    StepTimes t;
    auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "Forward", "graph");
      ex.Forward();
    }
    t.fwd = SecondsSince(t0);
    if (!train) return t;
    losses.push_back(ex.last_loss());
    TensorH y;
    if (check) {
      const auto tc = Clock::now();
      y = DeepCopy(model.Output());  // the plan recycles y during backward
      add_check(perfbench::CheckMseLoss(y, target, ex.last_loss(),
                                        perturbed("mse-loss")));
      check_s += SecondsSince(tc);
    }
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "Backward", "graph");
      ex.Backward();
    }
    t.bwd = SecondsSince(t0);
    if (check) {
      const auto tc = Clock::now();
      add_check(perfbench::CheckOutputBiasGradient(
          y, target, model.grads.back().params.ln2_b,
          perturbed("output-bias-gradient")));
      add_check(perfbench::CheckEmbeddingGradientBalance(
          model.d_tok, model.d_pos, perturbed("embedding-gradient-balance")));
      if (w->memory_budget > 0) {
        first_grads = perfbench::Fingerprints(model.Gradients());
      }
      check_s += SecondsSince(tc);
    }
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "MixedPrecisionAdam", "transformer");
      model.AdamStep(tracer);
    }
    t.adam = SecondsSince(t0);
    return t;
  };

  watchdog.Phase("cold step");
  if (perturbed("stall")) {
    // Stands in for a step that never completes (see README: stall guard).
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  // The shipped first dispatch: contractions tune concurrently, inside the
  // step (autotune `measure`). A stall here points at the tuner deadlock
  // (README: stall guard).
  const auto stats_cold = memstats::Read();
  const StepTimes cold = run_step(/*check=*/true);
  watchdog.Finished(true);
  const double cold_step_s = cold.total();
  const auto autotune_measures =
      memstats::Read().autotune_measures - stats_cold.autotune_measures;
  const double setup_s = SecondsSince(process_start) - check_s;
  std::int64_t steps = 1;

  // ---- Timed warm steps. In traced runs every other step records spans,
  // so traced and untraced steps of the same run give the overhead.
  std::vector<StepTimes> warm;
  std::vector<double> traced_step_s, untraced_step_s;
  const auto stats_warm = memstats::Read();
  const auto loop_start = Clock::now();
  while (static_cast<int>(warm.size()) < kMinWarmSteps ||
         SecondsSince(loop_start) < args.seconds) {
    watchdog.Phase("warm step");
    const bool record = args.trace && warm.size() % 2 == 0;
    tracer.set_paused(args.trace && !record);
    warm.push_back(run_step(/*check=*/false));
    watchdog.Finished(true);
    (record ? traced_step_s : untraced_step_s).push_back(warm.back().total());
    ++steps;
  }
  tracer.set_paused(false);
  const auto stats_end = memstats::Read();
  const double allocs_per_step =
      static_cast<double>((stats_end.tensor_allocs - stats_warm.tensor_allocs) +
                          (stats_end.workspace_allocs -
                           stats_warm.workspace_allocs)) /
      static_cast<double>(warm.size());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::vector<double> step_s, fwd_s, bwd_s, adam_s;
  for (const StepTimes& t : warm) {
    step_s.push_back(t.total());
    fwd_s.push_back(t.fwd);
    bwd_s.push_back(t.bwd);
    adam_s.push_back(t.adam);
  }
  const double step_median = Median(step_s);
  const double tokens_per_s =
      static_cast<double>(dims.b * dims.j) / step_median;

  // ---- Untimed output checks.
  watchdog.Phase("output checks");
  if (train) {
    add_check(perfbench::CheckLossNonIncreasing(
        losses, perturbed("loss-non-increasing")));
  } else {
    const TensorH y = model.Output();
    // kReferenceSequences distinct sequences, chosen by the seed.
    std::vector<std::int64_t> rows;
    const auto first = static_cast<std::int64_t>(
        SplitMix64(state) % static_cast<std::uint64_t>(dims.b));
    for (int r = 0; r < kReferenceSequences; ++r) {
      rows.push_back((first + r) % dims.b);
    }
    add_check(perfbench::CheckReferenceForward(model.stack, model.embedding,
                                               tokens, y, rows,
                                               perturbed("reference-forward")));
    add_check(perfbench::CheckLayerNormProperty(
        y, perturbed("layernorm-property")));
  }
  if (w->memory_budget > 0) {
    // Recompute must not change values: the same model (same seeds, fresh
    // weights) planned without a budget must give the first step's loss and
    // every gradient, bit for bit.
    watchdog.Phase("unbudgeted reference step");
    double unused = 0;
    Model plain(cfg, model_seed, emb_seed, options, 0, &unused, tracer);
    plain.Bind(tokens, &target, train, tracer);
    plain.ex->Forward();
    plain.ex->Backward();
    watchdog.Finished(true);
    ++steps;
    add_check(perfbench::CheckBitwiseEqual(
        "recompute-bitwise", {losses.front()}, {plain.ex->last_loss()},
        first_grads, plain.Gradients(), perturbed("recompute-bitwise")));
  }

  // ---- Traced run: thread scaling, kernel replay, host roofs, trace file.
  std::vector<Metric> metrics;
  if (args.trace) {
    watchdog.Phase("thread comparison");
    const int other_threads = w->threads == 1 ? 4 : 1;
    double step_1t_s = 0, step_nt_s = 0;
    if (train) {
      ex.Forward();
      ex.Backward();
      watchdog.Finished(true);
      const double want_loss = ex.last_loss();
      const auto want = perfbench::Fingerprints(model.Gradients());
      ThreadPool::SetGlobalThreads(other_threads);
      const StepTimes t = run_step(/*check=*/false);
      watchdog.Finished(true);
      steps += 2;
      step_1t_s = t.total();
      step_nt_s = step_median;
      add_check(perfbench::CheckBitwiseEqual(
          "threads-bitwise", {want_loss}, {losses.back()}, want,
          model.Gradients(), perturbed("threads-bitwise")));
    } else {
      const std::uint64_t want = perfbench::Fingerprint(model.Output());
      ThreadPool::SetGlobalThreads(other_threads);
      step_nt_s = run_step(/*check=*/false).total();
      watchdog.Finished(true);
      steps += 1;
      step_1t_s = step_median;
      const TensorH got = model.Output();
      add_check(perfbench::CheckBitwiseEqual("threads-bitwise", {}, {}, {want},
                                             {&got},
                                             perturbed("threads-bitwise")));
    }
    ThreadPool::SetGlobalThreads(w->threads);

    watchdog.Phase("kernel replay");
    perfbench::ReplayParams rp;
    rp.dropout_prob = cfg.dropout_prob;
    rp.ln_eps = cfg.ln_eps;
    rp.attn_scale = 1.0f / std::sqrt(static_cast<float>(dims.p));
    rp.tokens = tokens;
    const auto rows = perfbench::ReplayKernels(
        ex.graph(), StackPlanOptions<Half>(ex.graph()), rp, tracer, watchdog);
    const auto totals = perfbench::Totals(rows);
    watchdog.Phase("host roofs");
    double gemm_gflops = 0, triad_gbs = 0;
    {
      ScopedSpan span(tracer, "host GEMM roof", "host");
      gemm_gflops = perfbench::HostGemmGflops(2048);
    }
    {
      ScopedSpan span(tracer, "host triad roof", "host");
      triad_gbs = perfbench::HostTriadGBs();
    }
    perfbench::PrintTable(stderr, rows, gemm_gflops, triad_gbs);

    const double moved_bytes =
        static_cast<double>(fusion::FuseMaximally(ex.graph())
                                .FusedElementsMoved(ex.graph())) *
        sizeof(Half);
    const double traced = Median(traced_step_s);
    const double untraced = Median(untraced_step_s);
    const double adam_gbs =
        train ? model.adam_bytes / Median(adam_s) / 1e9 : 0.0;
    const double peak_mib =
        static_cast<double>(model.arena.plan().PeakBytes()) / (1 << 20);
    metrics = {
        {"init_s", init_s, "s"},
        {"plan_s", plan_s, "s"},
        {"executor_build_s", exec_s, "s"},
        {"planned_peak_mib", peak_mib, "MiB"},
        {"recompute_layers",
         static_cast<double>(model.arena.recompute_layers().size()), "count"},
        {"kernel_launches", static_cast<double>(ex.num_steps()), "count"},
        {"moved_mib_per_step", moved_bytes / (1 << 20), "MiB"},
        {"fwd_s", Median(fwd_s), "s"},
        {"bwd_s", Median(bwd_s), "s"},
        {"cold_step_s", cold_step_s, "s"},
        {"autotune_measures", static_cast<double>(autotune_measures), "count"},
        {"adam_s", Median(adam_s), "s"},
        {"adam_gb_per_s", adam_gbs, "GB/s"},
        {"tc_s", totals.tc_s, "s"},
        {"tc_gflop_per_s", totals.tc_flop / totals.tc_s / 1e9, "GFLOP/s"},
        {"sn_s", totals.sn_s, "s"},
        {"ew_s", totals.ew_s, "s"},
        {"mem_gb_per_s",
         totals.mem_bytes / (totals.sn_s + totals.ew_s) / 1e9, "GB/s"},
        {"host_gemm_gflop_per_s", gemm_gflops, "GFLOP/s"},
        {"host_triad_gb_per_s", triad_gbs, "GB/s"},
        {"step_1t_s", step_1t_s, "s"},
        {"parallel_speedup", step_1t_s / step_nt_s, "x"},
        {"allocs_per_step", allocs_per_step, "count"},
        {"trace_overhead_pct", 100.0 * (traced / untraced - 1.0), "%"},
    };
    std::error_code ec;
    std::filesystem::create_directories(PERFBENCH_TRACE_DIR, ec);
    const std::string path =
        StrFormat("%s/%s-seed%llu.json", PERFBENCH_TRACE_DIR, w->name,
                  static_cast<unsigned long long>(args.seed));
    if (!tracer.WriteChromeJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", tracer.size(),
                 path.c_str());
  } else {
    metrics = {{"tokens_per_s", tokens_per_s, "tokens/s"},
               {"setup_s", setup_s, "s"},
               {"peak_rss_mib", peak_rss_mib, "MiB"}};
  }

  std::int64_t failed = 0;
  for (const CheckResult& c : checks) {
    std::fprintf(stderr, "perfbench: check %-27s %s  %s\n", c.name.c_str(),
                 c.ok ? "ok  " : "FAIL", c.detail.c_str());
    if (!c.ok) ++failed;
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %lld steps (%zu warm), step median "
               "%.4f s (fwd %.4f, bwd %.4f, adam %.4f), setup %.3f s, cold "
               "step %.3f s, peak RSS %.1f MiB\n",
               w->name, static_cast<unsigned long long>(args.seed),
               static_cast<long long>(steps), warm.size(), step_median,
               Median(fwd_s), Median(bwd_s), Median(adam_s), setup_s,
               cold_step_s, peak_rss_mib);
  std::string per_step;
  for (const double t : step_s) per_step += StrFormat(" %.3f", t);
  std::fprintf(stderr, "perfbench: warm steps (s):%s\n", per_step.c_str());
  PrintJson(failed == 0, watchdog.attempted(), watchdog.failed(), metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const Args args = ParseArgs(argc, argv);
  try {
    return Run(args, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
