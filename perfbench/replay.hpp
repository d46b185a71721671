// Per-kernel attribution (the paper's Table III, measured on this host):
// replays every kernel launch of a workload's executed schedule through the
// library's public kernel entry points (einsum, softmax, layernorm,
// element-wise and fused operators) on freshly allocated operands of the
// same shapes, and measures the host roofs the rows are compared against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/memory_plan.hpp"
#include "tensor/tensor.hpp"
#include "trace.hpp"

namespace perfbench {

/// One distinct launch of the schedule (identical launches of different
/// layers, and recompute clones, fold into one row with a count).
struct KernelRow {
  std::string name;
  xflow::graph::OpClass cls = xflow::graph::OpClass::kElementwise;
  int count = 0;          // launches per step
  double flop = 0;        // per launch, from the graph's cost annotation
  double in_bytes = 0;    // per launch, operands read (computed)
  double out_bytes = 0;   // per launch, operands written (computed)
  double seconds = 0;     // per launch, median of the timed repetitions
};

struct ReplayParams {
  float dropout_prob = 0;
  float ln_eps = 1e-5f;
  float attn_scale = 1;
  std::vector<std::int32_t> tokens;  // for the embedding kernels
};

/// Replays the fused schedule of `graph` (as the executor builds it: the
/// fusion pass's recognized kernels as one launch, everything else per op).
/// `plan_options` supplies the stacked groups and element widths.
std::vector<KernelRow> ReplayKernels(
    const xflow::graph::DataflowGraph& graph,
    const xflow::graph::PlanOptions& plan_options, const ReplayParams& params,
    Tracer& tracer, Watchdog& watchdog);

/// fp32 GEMM throughput (GFLOP/s) of the library's einsum at n x n x n,
/// best of three: the compute roof of this host as the library reaches it.
double HostGemmGflops(std::int64_t n);

/// STREAM-style triad bandwidth (GB/s, best of three) over three double
/// arrays whose total size is at least 4x the last-level cache.
double HostTriadGBs();

struct ClassTotals {
  double tc_s = 0, sn_s = 0, ew_s = 0;
  double tc_flop = 0, mem_bytes = 0;  // per step
};
ClassTotals Totals(const std::vector<KernelRow>& rows);

/// Prints the rows as Table III columns, with % of the GEMM roof and MUE
/// (achieved bandwidth over the triad roof).
void PrintTable(std::FILE* out, const std::vector<KernelRow>& rows,
                double gemm_gflops, double triad_gbs);

}  // namespace perfbench
