#include "replay.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "config/autotune.hpp"
#include "fusion/fuser.hpp"
#include "graph/analysis.hpp"
#include "ops/elementwise.hpp"
#include "ops/embedding.hpp"
#include "ops/fused.hpp"
#include "ops/layernorm.hpp"
#include "ops/softmax.hpp"
#include "tensor/einsum.hpp"

namespace perfbench {

using xflow::DropoutMask;
using xflow::Half;
using xflow::Shape;
using xflow::TensorF;
using xflow::TensorH;
using xflow::graph::DataflowGraph;
using xflow::graph::OpClass;
using xflow::graph::OpKind;
using xflow::graph::OpNode;
using xflow::graph::PlanGroup;

namespace {

// Timed calls per distinct launch (after one warm-up); the median counts.
constexpr int kRepetitions = 3;

/// Operands of one replayed launch, allocated on first use with the graph
/// container's shape (or a stacked group's spanning shape) and random
/// contents. Bytes are counted once per container, as read or written.
class Operands {
 public:
  Operands(const DataflowGraph& graph,
           const xflow::graph::PlanOptions& options)
      : graph_(graph), options_(options) {}

  const TensorH& In(const std::string& name) { return Half_(name, in_bytes); }
  TensorH& Out(const std::string& name) { return Half_(name, out_bytes); }
  const TensorF& InF(const std::string& name) {
    return Float_(name, in_bytes);
  }
  TensorF& OutF(const std::string& name) { return Float_(name, out_bytes); }

  /// The stacked group whose members are names[begin, begin + count).
  const PlanGroup* Group(const std::vector<std::string>& names,
                         std::size_t begin, std::size_t count) const {
    for (const PlanGroup& g : options_.groups) {
      if (g.members.size() == count &&
          std::equal(g.members.begin(), g.members.end(),
                     names.begin() + static_cast<std::ptrdiff_t>(begin))) {
        return &g;
      }
    }
    return nullptr;
  }

  double in_bytes = 0, out_bytes = 0;

 private:
  Shape ShapeOf(const std::string& name) const {
    if (graph_.HasTensor(name)) return graph_.tensor(name).shape;
    for (const PlanGroup& g : options_.groups) {
      if (g.name != name) continue;
      std::vector<xflow::DimExt> dims =
          graph_.tensor(g.members.front()).shape.dims();
      dims.front().extent = 0;
      for (const auto& m : g.members) {
        dims.front().extent += graph_.tensor(m).shape.dims().front().extent;
      }
      return Shape(std::move(dims));
    }
    xflow::require(false, "replay: unknown container '" + name + "'");
    return {};
  }
  std::uint64_t SeedOf(const std::string& name) const {
    return std::hash<std::string>{}(name) | 1;
  }
  TensorH& Half_(const std::string& name, double& bytes) {
    auto it = half_.find(name);
    if (it != half_.end()) return it->second;
    TensorH t = TensorH::Random(ShapeOf(name), SeedOf(name));
    bytes += static_cast<double>(t.size()) * sizeof(Half);
    return half_.emplace(name, std::move(t)).first->second;
  }
  TensorF& Float_(const std::string& name, double& bytes) {
    auto it = float_.find(name);
    if (it != float_.end()) return it->second;
    TensorF t = TensorF::Random(ShapeOf(name), SeedOf(name));
    bytes += static_cast<double>(t.size()) * sizeof(float);
    return float_.emplace(name, std::move(t)).first->second;
  }

  const DataflowGraph& graph_;
  const xflow::graph::PlanOptions& options_;
  std::map<std::string, TensorH> half_;
  std::map<std::string, TensorF> float_;
};

TensorH Relabeled(const TensorH& t, const std::string& names) {
  std::vector<xflow::DimExt> dims;
  for (std::size_t d = 0; d < names.size(); ++d) {
    dims.push_back({names[d], t.shape().dims()[d].extent});
  }
  return TensorH::FromSpan(Shape(std::move(dims)), const_cast<Half*>(t.data()));
}

char NormDim(const OpNode& op) {
  return (op.kind == OpKind::kLayerNormDW ? op.independent_dims
                                          : op.reduction_dims)
      .front()
      .name;
}

char ReduceDim(const OpNode& op) { return op.reduction_dims.front().name; }

/// A contraction's operands (stacked groups substituted as the executor
/// does), parsed spec, lowered class and autotune bucket.
struct Contraction {
  xflow::EinsumSpec spec;
  xflow::EinsumClass cls;
  const TensorH* a;
  const TensorH* b;
  TensorH* out;
  xflow::config::ShapeBucket bucket;
};

Contraction BindContraction(const OpNode& op, Operands& env) {
  const auto& in = op.inputs;
  const auto& out = op.outputs;
  std::string a = in[0], b = in.size() > 1 ? in[1] : "", c = out[0];
  if (in.size() > 2) {
    if (const PlanGroup* g = env.Group(in, 1, in.size() - 1)) {
      b = g->name;
    } else if (const PlanGroup* h = env.Group(in, 0, in.size() - 1)) {
      a = h->name;
      b = in.back();
    }
  }
  if (out.size() > 1) c = env.Group(out, 0, out.size())->name;
  Contraction r{xflow::EinsumSpec::Parse(op.einsum), op.lowered, &env.In(a),
                &env.In(b), &env.Out(c), {}};
  const auto& info = xflow::ClassifyEinsum(r.spec, r.a->shape(), r.b->shape());
  r.bucket = xflow::config::BucketOf(info.cls, info.extents, sizeof(Half));
  return r;
}

/// The launch of one single-op step, mirroring the executor's dispatch.
std::function<void()> SingleLaunch(const OpNode& op, Operands& env,
                                   const ReplayParams& p, int seed) {
  namespace ops = xflow::ops;
  const float keep = 1.0f - p.dropout_prob;
  const float keep_scale = keep > 0 ? 1.0f / keep : 0.0f;
  const DropoutMask mask(static_cast<std::uint64_t>(seed), p.dropout_prob);
  const auto& in = op.inputs;
  const auto& out = op.outputs;
  switch (op.kind) {
    case OpKind::kContraction: {
      const Contraction c = BindContraction(op, env);
      const auto mode = xflow::config::AutotuneModeFromEnv();
      std::shared_ptr<xflow::EinsumExecConfig> exec;
      if (mode != xflow::config::AutotuneMode::kOff) {
        // The process-wide cache already holds the workload's decision.
        exec = std::make_shared<xflow::EinsumExecConfig>(
            xflow::config::Autotune(c.bucket, {}, mode).exec);
      }
      return [c, exec] {
        xflow::EinsumLowered(c.spec, c.cls, *c.a, *c.b, *c.out, 1.0f, 0.0f,
                             exec.get());
      };
    }
    case OpKind::kBias: {
      if (out.size() == 1) {
        return [&x = env.In(in[0]), &b = env.In(in[1]), &y = env.Out(out[0])] {
          ops::BiasForward(x, b, y);
        };
      }
      const TensorH& bias = env.In(in.back());
      const std::string names = env.In(in[0]).shape().names();
      auto views = std::make_shared<std::array<TensorH, 6>>();
      for (std::size_t s = 0; s < 3; ++s) {
        (*views)[s] = Relabeled(env.In(in[s]), names);
        (*views)[s + 3] = Relabeled(env.Out(out[s]), names);
      }
      const char stack_dim = bias.shape().dims().front().name;
      return [views, &bias, stack_dim] {
        auto& v = *views;
        ops::AttnInputBias<Half>({&v[0], &v[1], &v[2]}, bias, stack_dim,
                                 {&v[3], &v[4], &v[5]});
      };
    }
    case OpKind::kReLU:
      return [&x = env.In(in[0]), &y = env.Out(out[0])] {
        ops::ReluForward(x, y);
      };
    case OpKind::kDropout:
      return [&x = env.In(in[0]), mask, &y = env.Out(out[0]),
              &m = env.Out(out[1])] { ops::DropoutForward(x, mask, y, m); };
    case OpKind::kResidual:
    case OpKind::kResidualBwd:
      return [&a = env.In(in[0]), &b = env.In(in[1]), &y = env.Out(out[0])] {
        ops::ResidualForward(a, b, y);
      };
    case OpKind::kScale:
      return [&x = env.In(in[0]), s = p.attn_scale, &y = env.Out(out[0])] {
        ops::ScaleForward(x, s, y);
      };
    case OpKind::kScaledSoftmax:
      return [&x = env.In(in[0]), dim = ReduceDim(op), s = p.attn_scale, mask,
              &a = env.Out(out[0]), &m = env.Out(out[1]),
              &sv = env.Out(out[2])] {
        ops::ScaledSoftmaxForward(x, dim, s, mask, a, m, sv);
      };
    case OpKind::kLayerNorm:
      return [&x = env.In(in[0]), &g = env.In(in[1]), &b = env.In(in[2]),
              dim = NormDim(op), eps = p.ln_eps, &y = env.Out(out[0]),
              &mean = env.OutF(out[1]), &rstd = env.OutF(out[2])] {
        ops::LayerNormForward(x, g, b, dim, eps, y, mean, rstd);
      };
    case OpKind::kBiasDW: {
      if (in.size() == 1) {
        return [&dy = env.In(in[0]), &db = env.Out(out[0])] {
          ops::BiasBackwardDW(dy, db);
        };
      }
      TensorH& db = env.Out(out[0]);
      const std::string names = env.In(in[0]).shape().names();
      auto views = std::make_shared<std::array<TensorH, 3>>();
      for (std::size_t s = 0; s < 3; ++s) {
        (*views)[s] = Relabeled(env.In(in[s]), names);
      }
      const char stack_dim = db.shape().dims().front().name;
      return [views, stack_dim, &db] {
        auto& v = *views;
        ops::AttnInputBiasBackward<Half>({&v[0], &v[1], &v[2]}, stack_dim, db);
      };
    }
    case OpKind::kReLUDX:
      return [&dy = env.In(in[0]), &y = env.In(in[1]), &dx = env.Out(out[0])] {
        ops::ReluBackwardDX(dy, y, dx);
      };
    case OpKind::kDropoutDX:
      return [&dy = env.In(in[0]), &m = env.In(in[1]), keep_scale,
              &dx = env.Out(out[0])] {
        ops::DropoutBackwardDX(dy, m, keep_scale, dx);
      };
    case OpKind::kScaledSoftmaxDX:
      return [&da = env.In(in[0]), &m = env.In(in[1]), &sv = env.In(in[2]),
              dim = ReduceDim(op), s = p.attn_scale, keep_scale,
              &db = env.Out(out[0])] {
        ops::ScaledSoftmaxBackwardDX(da, m, sv, dim, s, keep_scale, db);
      };
    case OpKind::kLayerNormDX:
      return [&dy = env.In(in[0]), &g = env.In(in[1]), &x = env.In(in[2]),
              &mean = env.InF(in[3]), &rstd = env.InF(in[4]),
              dim = NormDim(op), &dx = env.Out(out[0])] {
        ops::LayerNormBackwardDX(dy, g, x, mean, rstd, dim, dx);
      };
    case OpKind::kLayerNormDW:
      return [&dy = env.In(in[0]), &x = env.In(in[1]), &mean = env.InF(in[2]),
              &rstd = env.InF(in[3]), dim = NormDim(op),
              &dg = env.Out(out[0]), &db = env.Out(out[1])] {
        ops::LayerNormBackwardDW(dy, x, mean, rstd, dim, dg, db);
      };
    case OpKind::kEmbed:
      return [&tok = env.In(in[0]), &pos = env.In(in[1]), &ids = p.tokens,
              &x = env.Out(out[0])] {
        ops::EmbeddingForwardKernel(tok, pos, ids, x);
      };
    case OpKind::kEmbedDW:
      return [&dx = env.In(in[0]), &ids = p.tokens, &dt = env.Out(out[0]),
              &dp = env.Out(out[1])] {
        ops::EmbeddingBackwardKernel(dx, ids, dt, dp);
      };
    case OpKind::kMseLoss:
      env.OutF(out[0]);  // the fp32 loss scalar
      return [&y = env.In(in[0]), &t = env.In(in[1]), &dy = env.Out(out[1])] {
        (void)ops::MseLossKernel(y, t, dy);
      };
  }
  xflow::require(false, "replay: no launch for op '" + op.name + "'");
  return {};
}

/// The launch of one recognized fused kernel, or nullptr when `name` is not
/// one the executor dispatches as a single launch.
std::function<void()> FusedLaunch(const std::string& name,
                                  const std::vector<const OpNode*>& ops_in,
                                  Operands& env, const ReplayParams& p,
                                  int seed) {
  namespace ops = xflow::ops;
  const float keep = 1.0f - p.dropout_prob;
  const float keep_scale = keep > 0 ? 1.0f / keep : 0.0f;
  const DropoutMask mask(static_cast<std::uint64_t>(seed), p.dropout_prob);
  const auto op = [&](std::size_t m) -> const OpNode& { return *ops_in[m]; };
  if (name == "DRLN" || name == "BDRLN") {
    const OpNode& bias = op(0);
    const OpNode& drop = op(1);
    const OpNode& resid = op(2);
    const OpNode& ln = op(3);
    const std::string& res_in = resid.inputs[0] == drop.outputs[0]
                                    ? resid.inputs[1]
                                    : resid.inputs[0];
    return [&x = env.In(bias.inputs[0]), &b = env.In(bias.inputs[1]),
            &r = env.In(res_in), mask, &g = env.In(ln.inputs[1]),
            &be = env.In(ln.inputs[2]), dim = NormDim(ln), eps = p.ln_eps,
            &rs = env.Out(resid.outputs[0]), &m = env.Out(drop.outputs[1]),
            &y = env.Out(ln.outputs[0]), &mean = env.OutF(ln.outputs[1]),
            &rstd = env.OutF(ln.outputs[2])] {
      ops::BiasDropoutResidualLayerNorm(x, b, r, mask, g, be, dim, eps, rs, m,
                                        y, mean, rstd);
    };
  }
  if (name == "BRD") {
    return [&x = env.In(op(0).inputs[0]), &b = env.In(op(0).inputs[1]), mask,
            &relu = env.Out(op(1).outputs[0]), &y = env.Out(op(2).outputs[0]),
            &m = env.Out(op(2).outputs[1])] {
      ops::BiasReluDropout(x, b, mask, relu, y, m);
    };
  }
  if (name == "BLNRD") {
    const OpNode& ln_dx = op(0);
    const OpNode& drop_dx = op(1);
    return [&dy = env.In(ln_dx.inputs[0]), &g = env.In(ln_dx.inputs[1]),
            &x = env.In(ln_dx.inputs[2]), &mean = env.InF(ln_dx.inputs[3]),
            &rstd = env.InF(ln_dx.inputs[4]), &m = env.In(drop_dx.inputs[1]),
            dim = NormDim(ln_dx), keep_scale,
            &dr = env.Out(ln_dx.outputs[0]),
            &dout = env.Out(drop_dx.outputs[0])] {
      ops::LayerNormDropoutBackward(dy, g, x, mean, rstd, m, dim, keep_scale,
                                    dr, dout);
    };
  }
  if (name == "BDRB") {
    return [&hi = env.In(op(0).inputs[0]), &lo = env.In(op(1).inputs[0]),
            &m = env.In(op(1).inputs[1]), &relu = env.In(op(2).inputs[1]),
            keep_scale, &dbh = env.Out(op(0).outputs[0]),
            &dx = env.Out(op(2).outputs[0]), &dbl = env.Out(op(3).outputs[0])] {
      ops::BiasDropoutReluBiasBackward(hi, lo, m, relu, keep_scale, dbh, dx,
                                       dbl);
    };
  }
  if (name == "EBSB") {
    const OpNode& resid = op(0);
    const OpNode& ln_dw = op(1);
    return [&da = env.In(resid.inputs[0]), &db = env.In(resid.inputs[1]),
            &x = env.In(ln_dw.inputs[1]), &mean = env.InF(ln_dw.inputs[2]),
            &rstd = env.InF(ln_dw.inputs[3]), dim = NormDim(ln_dw),
            &ds = env.Out(resid.outputs[0]), &dg = env.Out(ln_dw.outputs[0]),
            &dbeta = env.Out(ln_dw.outputs[1])] {
      ops::ResidualLayerNormDwBackward(da, db, x, mean, rstd, dim, ds, dg,
                                       dbeta);
    };
  }
  return nullptr;
}

/// Display name of an op without its layer prefix and recompute suffix.
std::string BaseName(std::string name) {
  if (name.size() > 2 && name[0] == 'L') {
    const std::size_t dot = name.find('.');
    if (dot != std::string::npos &&
        std::all_of(name.begin() + 1, name.begin() + static_cast<long>(dot),
                    [](char c) { return c >= '0' && c <= '9'; })) {
      name = name.substr(dot + 1);
    }
  }
  if (name.size() > 2 && name.compare(name.size() - 2, 2, "@r") == 0) {
    name.resize(name.size() - 2);
  }
  return name;
}

std::string ShapeKey(const Shape& s) {
  std::string key = s.names();
  for (const auto& d : s.dims()) {
    key += ':';
    key += std::to_string(d.extent);
  }
  return key;
}

}  // namespace

std::vector<KernelRow> ReplayKernels(
    const DataflowGraph& graph, const xflow::graph::PlanOptions& plan_options,
    const ReplayParams& params, Tracer& tracer, Watchdog& watchdog) {
  // The executor's schedule: recognized fused groups as one launch, all
  // other ops (and unrecognized groups) one launch per op.
  struct Launch {
    std::string name;
    std::vector<int> ops;
    bool fused;
  };
  std::vector<Launch> launches;
  for (const auto& k : xflow::fusion::FuseMaximally(graph).kernels) {
    const bool fused = k.op_indices.size() > 1 &&
                       (k.name == "DRLN" || k.name == "BDRLN" ||
                        k.name == "BRD" || k.name == "BLNRD" ||
                        k.name == "BDRB" || k.name == "EBSB");
    if (fused) {
      launches.push_back({k.name, k.op_indices, true});
    } else {
      for (const int idx : k.op_indices) {
        launches.push_back(
            {BaseName(graph.ops()[static_cast<std::size_t>(idx)].name), {idx},
             false});
      }
    }
  }

  std::vector<KernelRow> rows;
  std::map<std::string, std::size_t> row_of;
  std::vector<const Launch*> first_launch;
  for (const Launch& l : launches) {
    std::string key = l.name;
    for (const int idx : l.ops) {
      const OpNode& op = graph.ops()[static_cast<std::size_t>(idx)];
      key += '|';
      key += std::to_string(static_cast<int>(op.kind));
      for (const auto* names : {&op.inputs, &op.outputs}) {
        for (const auto& t : *names) {
          key += ',';
          key += ShapeKey(graph.tensor(t).shape);
        }
      }
    }
    const auto [it, inserted] = row_of.emplace(key, rows.size());
    if (inserted) {
      KernelRow row;
      row.name = l.name;
      row.cls = OpClass::kElementwise;
      for (const int idx : l.ops) {
        const OpNode& op = graph.ops()[static_cast<std::size_t>(idx)];
        row.flop += xflow::graph::CostOf(graph, op).flop;
        if (op.cls() == OpClass::kContraction) row.cls = OpClass::kContraction;
        if (op.cls() == OpClass::kStatNorm &&
            row.cls != OpClass::kContraction) {
          row.cls = OpClass::kStatNorm;
        }
      }
      rows.push_back(row);
      first_launch.push_back(&l);
    }
    ++rows[it->second].count;
  }

  for (std::size_t r = 0; r < rows.size(); ++r) {
    watchdog.Phase("kernel replay");
    const Launch& l = *first_launch[r];
    Operands env(graph, plan_options);
    std::function<void()> launch;
    if (l.fused) {
      std::vector<const OpNode*> members;
      for (const int idx : l.ops) {
        members.push_back(&graph.ops()[static_cast<std::size_t>(idx)]);
      }
      launch = FusedLaunch(l.name, members, env, params, 17);
    } else {
      launch = SingleLaunch(graph.ops()[static_cast<std::size_t>(l.ops[0])],
                            env, params, 17);
    }
    rows[r].in_bytes = env.in_bytes;
    rows[r].out_bytes = env.out_bytes;
    launch();  // warm-up
    std::vector<double> times;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      ScopedSpan span(tracer, l.name, "kernel");
      const auto t0 = Clock::now();
      launch();
      times.push_back(SecondsSince(t0));
    }
    std::sort(times.begin(), times.end());
    rows[r].seconds = times[times.size() / 2];
  }
  return rows;
}

double HostGemmGflops(std::int64_t n) {
  const auto a = TensorF::Random(Shape("mk", {n, n}), 1);
  const auto b = TensorF::Random(Shape("kn", {n, n}), 2);
  TensorF c(Shape("mn", {n, n}));
  const auto spec = xflow::EinsumSpec::Parse("mk,kn->mn");
  xflow::EinsumInto(spec, a, b, c);  // warm-up (packing buffers, tables)
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    xflow::EinsumInto(spec, a, b, c);
    best = std::min(best, SecondsSince(t0));
  }
  return 2.0 * static_cast<double>(n) * n * n / best / 1e9;
}

double HostTriadGBs() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  const std::int64_t n =
      4 * llc / (3 * static_cast<std::int64_t>(sizeof(double))) + 1;
  std::unique_ptr<double[]> a(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> b(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> c(new double[static_cast<std::size_t>(n)]);
  constexpr std::int64_t kChunk = 1 << 16;
  const std::int64_t chunks = (n + kChunk - 1) / kChunk;
  const auto over_chunks = [&](auto&& body) {
    xflow::ParallelFor(chunks, 1, [&](std::int64_t ci) {
      const std::int64_t end = std::min(n, (ci + 1) * kChunk);
      for (std::int64_t i = ci * kChunk; i < end; ++i) body(i);
    });
  };
  over_chunks([&](std::int64_t i) {  // first touch on the workers
    a[i] = 0;
    b[i] = 1;
    c[i] = 2;
  });
  double best = 1e30;
  for (int rep = 0; rep < 4; ++rep) {  // the first pass is a warm-up
    const auto t0 = Clock::now();
    over_chunks([&](std::int64_t i) { a[i] = b[i] + 3.0 * c[i]; });
    if (rep > 0) best = std::min(best, SecondsSince(t0));
  }
  return 3.0 * sizeof(double) * static_cast<double>(n) / best / 1e9;
}

ClassTotals Totals(const std::vector<KernelRow>& rows) {
  ClassTotals t;
  for (const KernelRow& r : rows) {
    const double s = r.seconds * r.count;
    switch (r.cls) {
      case OpClass::kContraction:
        t.tc_s += s;
        t.tc_flop += r.flop * r.count;
        break;
      case OpClass::kStatNorm:
        t.sn_s += s;
        t.mem_bytes += (r.in_bytes + r.out_bytes) * r.count;
        break;
      case OpClass::kElementwise:
        t.ew_s += s;
        t.mem_bytes += (r.in_bytes + r.out_bytes) * r.count;
        break;
    }
  }
  return t;
}

void PrintTable(std::FILE* out, const std::vector<KernelRow>& rows,
                double gemm_gflops, double triad_gbs) {
  double total = 0;
  for (const KernelRow& r : rows) total += r.seconds * r.count;
  std::fprintf(out,
               "Table III on this host (per launch; %% peak against the "
               "%.1f GFLOP/s GEMM roof, MUE against the %.1f GB/s triad "
               "roof)\n",
               gemm_gflops, triad_gbs);
  std::fprintf(out, "%-22s %-2s %5s %9s %9s %9s %11s %6s %8s %8s\n", "kernel",
               "cl", "count", "Gflop", "in MB", "out MB", "time us",
               "%time", "%peak", "MUE %");
  for (const KernelRow& r : rows) {
    const double gflops = r.flop / r.seconds / 1e9;
    const double gbs = (r.in_bytes + r.out_bytes) / r.seconds / 1e9;
    std::fprintf(out,
                 "%-22s %-2s %5d %9.4f %9.3f %9.3f %11.1f %6.1f %8.2f %8.2f\n",
                 r.name.c_str(), xflow::graph::ClassGlyph(r.cls).c_str(),
                 r.count, r.flop / 1e9, r.in_bytes / 1e6, r.out_bytes / 1e6,
                 r.seconds * 1e6, 100.0 * r.seconds * r.count / total,
                 100.0 * gflops / gemm_gflops, 100.0 * gbs / triad_gbs);
  }
}

}  // namespace perfbench
