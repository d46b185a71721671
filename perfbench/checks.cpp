#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "common/strings.hpp"

namespace perfbench {

using xflow::Half;
using xflow::TensorH;

namespace {

// fp16 unit roundoff (half an ulp at 1.0): the relative error of storing a
// value in Half.
constexpr double kHalfRound = 1.0 / 2048.0;

/// Tolerance of the reference forward, |y - ref| <= kRefTol * (1 + |ref|).
/// The program stores every intermediate in fp16 (a relative rounding of
/// kHalfRound each) and feeds them through ~15 operators per layer; the
/// layernorms renormalize, so errors add rather than compound. 16
/// roundings is 4x the worst measured on correct code (about 4), while a
/// wrong operator is off by O(1).
constexpr double kRefTol = 16 * kHalfRound;
/// Layernorm property: the mean of 768 values each rounded by <= kHalfRound
/// relative is exact to ~1e-5; the variance of a layernorm output is
/// var / (var + eps), within 1e-4 of 1 for any input with variance > 0.1.
constexpr double kMeanTol = 1e-3;
constexpr double kVarTol = 4e-3;
/// The loss is the same double-precision sum in a possibly different
/// order: relative agreement to 1e-9 is what double rounding allows;
/// 1e-6 leaves room for a reassociated reduction.
constexpr double kLossRelTol = 1e-6;

/// Values of `t` in row-major order of `order` (a permutation of its dim
/// names), whatever its memory layout.
std::vector<float> Dense(const TensorH& t, std::string_view order) {
  const auto& shape = t.shape();
  const std::size_t rank = order.size();
  std::vector<std::int64_t> extent(rank), stride(rank), idx(rank, 0);
  for (std::size_t r = 0; r < rank; ++r) {
    extent[r] = shape.extent(order[r]);
    stride[r] = shape.stride(order[r]);
  }
  std::vector<float> out(static_cast<std::size_t>(t.size()));
  const Half* data = t.data();
  for (std::size_t e = 0; e < out.size(); ++e) {
    std::int64_t off = 0;
    for (std::size_t r = 0; r < rank; ++r) off += idx[r] * stride[r];
    out[e] = float(data[off]);
    for (std::size_t r = rank; r-- > 0;) {
      if (++idx[r] < extent[r]) break;
      idx[r] = 0;
    }
  }
  return out;
}

float Dot(const float* a, const float* b, std::int64_t n) {
  float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
  for (std::int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// x[j][:] = layernorm(x[j][:]) * w + b, in place.
void LayerNormRows(std::vector<float>& x, std::int64_t rows, std::int64_t n,
                   const std::vector<float>& w, const std::vector<float>& b,
                   float eps) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x.data() + r * n;
    double mean = 0;
    for (std::int64_t i = 0; i < n; ++i) mean += row[i];
    mean /= static_cast<double>(n);
    double var = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      var += (row[i] - mean) * (row[i] - mean);
    }
    var /= static_cast<double>(n);
    const double rstd = 1.0 / std::sqrt(var + eps);
    for (std::int64_t i = 0; i < n; ++i) {
      row[i] = static_cast<float>((row[i] - mean) * rstd) *
                   w[static_cast<std::size_t>(i)] +
               b[static_cast<std::size_t>(i)];
    }
  }
}

struct LayerWeights {
  std::vector<float> w_qkv, b_qkv, w_out, b_out, ln1_w, ln1_b, w1, b1, w2, b2,
      ln2_w, ln2_b;
};

LayerWeights DenseWeights(const xflow::transformer::EncoderParamsT<Half>& p) {
  return {Dense(p.w_qkv, "phi"), Dense(p.b_qkv, "ph"), Dense(p.w_out, "whi"),
          Dense(p.b_out, "i"),   Dense(p.ln1_w, "i"),  Dense(p.ln1_b, "i"),
          Dense(p.w1, "ui"),     Dense(p.b1, "u"),     Dense(p.w2, "iu"),
          Dense(p.b2, "i"),      Dense(p.ln2_w, "i"),  Dense(p.ln2_b, "i")};
}

/// One post-LN BERT encoder layer on one sequence, x as [j][i], in fp32.
void ReferenceLayer(const LayerWeights& w, const xflow::graph::ModelDims& d,
                    float eps, std::vector<float>& x) {
  const std::int64_t I = d.i, H = d.h, P = d.p, U = d.u, J = d.j;
  const std::size_t hjp = static_cast<std::size_t>(H * J * P);
  std::vector<float> q(hjp), k(hjp), v(hjp);  // [h][j][p]
  for (std::int64_t j = 0; j < J; ++j) {
    const float* xj = x.data() + j * I;
    for (std::int64_t c = 0; c < 3 * P; ++c) {
      for (std::int64_t h = 0; h < H; ++h) {
        const float val = Dot(w.w_qkv.data() + (c * H + h) * I, xj, I) +
                          w.b_qkv[static_cast<std::size_t>(c * H + h)];
        std::vector<float>& dst = c < P ? q : (c < 2 * P ? k : v);
        dst[static_cast<std::size_t>((h * J + j) * P + c % P)] = val;
      }
    }
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(P));
  std::vector<float> g(hjp, 0.0f), scores(static_cast<std::size_t>(J));
  for (std::int64_t h = 0; h < H; ++h) {
    for (std::int64_t j = 0; j < J; ++j) {
      float mx = -INFINITY;
      for (std::int64_t kk = 0; kk < J; ++kk) {
        const float s = scale * Dot(q.data() + (h * J + j) * P,
                                    k.data() + (h * J + kk) * P, P);
        scores[static_cast<std::size_t>(kk)] = s;
        mx = std::max(mx, s);
      }
      double sum = 0;
      for (float& s : scores) {
        s = std::exp(s - mx);
        sum += s;
      }
      float* gj = g.data() + (h * J + j) * P;
      for (std::int64_t kk = 0; kk < J; ++kk) {
        const float a =
            static_cast<float>(scores[static_cast<std::size_t>(kk)] / sum);
        const float* vk = v.data() + (h * J + kk) * P;
        for (std::int64_t p = 0; p < P; ++p) gj[p] += a * vk[p];
      }
    }
  }
  // Attention output projection, bias, residual, layernorm 1.
  std::vector<float> r(x);
  for (std::int64_t j = 0; j < J; ++j) {
    float* rj = r.data() + j * I;
    for (std::int64_t i = 0; i < I; ++i) {
      rj[i] += w.b_out[static_cast<std::size_t>(i)];
    }
    for (std::int64_t p = 0; p < P; ++p) {
      for (std::int64_t h = 0; h < H; ++h) {
        const float gv = g[static_cast<std::size_t>((h * J + j) * P + p)];
        const float* wo = w.w_out.data() + (p * H + h) * I;
#pragma omp simd
        for (std::int64_t i = 0; i < I; ++i) rj[i] += gv * wo[i];
      }
    }
  }
  LayerNormRows(r, J, I, w.ln1_w, w.ln1_b, eps);
  // Feed-forward, residual, layernorm 2.
  std::vector<float> f(static_cast<std::size_t>(U));
  for (std::int64_t j = 0; j < J; ++j) {
    const float* lj = r.data() + j * I;
    for (std::int64_t u = 0; u < U; ++u) {
      f[static_cast<std::size_t>(u)] =
          std::max(0.0f, Dot(w.w1.data() + u * I, lj, I) +
                             w.b1[static_cast<std::size_t>(u)]);
    }
    float* xj = x.data() + j * I;
    for (std::int64_t i = 0; i < I; ++i) {
      xj[i] = lj[i] + Dot(w.w2.data() + i * U, f.data(), U) +
              w.b2[static_cast<std::size_t>(i)];
    }
  }
  LayerNormRows(x, J, I, w.ln2_w, w.ln2_b, eps);
}

CheckResult Result(std::string name, bool ok, std::string detail) {
  return {std::move(name), ok, std::move(detail)};
}

}  // namespace

CheckResult CheckReferenceForward(xflow::transformer::EncoderStack& stack,
                                  xflow::transformer::Embedding& embedding,
                                  const xflow::transformer::TokenIds& tokens,
                                  const TensorH& y,
                                  const std::vector<std::int64_t>& batch_rows,
                                  bool perturb) {
  const auto& cfg = stack.layer(0).config();
  const auto& d = cfg.dims;
  std::vector<LayerWeights> weights;
  for (int l = 0; l < stack.num_layers(); ++l) {
    weights.push_back(DenseWeights(stack.layer(l).params()));
  }
  const TensorH& tok = embedding.token_table();
  const TensorH& pos = embedding.pos_table();
  std::vector<float> got = Dense(y, "bji");
  if (perturb) {
    got[static_cast<std::size_t>(batch_rows.front() * d.j * d.i)] += 0.25f;
  }

  double worst = 0, worst_ulps = 0;
  for (const std::int64_t b : batch_rows) {
    std::vector<float> x(static_cast<std::size_t>(d.j * d.i));
    for (std::int64_t j = 0; j < d.j; ++j) {
      const std::int64_t id = tokens[static_cast<std::size_t>(b * d.j + j)];
      for (std::int64_t i = 0; i < d.i; ++i) {
        x[static_cast<std::size_t>(j * d.i + i)] =
            float(tok.at({{'v', id}, {'i', i}})) +
            float(pos.at({{'j', j}, {'i', i}}));
      }
    }
    for (const LayerWeights& w : weights) ReferenceLayer(w, d, cfg.ln_eps, x);
    const float* yb = got.data() + b * d.j * d.i;
    for (std::size_t e = 0; e < x.size(); ++e) {
      const double err = std::fabs(double(yb[e]) - x[e]);
      const double scaled = err / (1.0 + std::fabs(x[e]));
      worst = std::max(worst, err);
      worst_ulps = std::max(worst_ulps, scaled / kHalfRound);
    }
  }
  const bool ok = worst_ulps <= kRefTol / kHalfRound;
  return Result("reference-forward", ok,
                xflow::StrFormat("%zu sequences, max |y-ref| %.3g = %.1f fp16 "
                                 "roundings (tolerance %.0f)",
                                 batch_rows.size(), worst, worst_ulps,
                                 kRefTol / kHalfRound));
}

CheckResult CheckLayerNormProperty(const TensorH& y, bool perturb) {
  std::vector<float> v = Dense(y, "bji");
  const std::int64_t n = y.shape().extent('i');
  const std::int64_t tokens = y.size() / n;
  if (perturb) {
    for (std::int64_t i = 0; i < n; ++i) {
      v[static_cast<std::size_t>(i)] *= 1.05f;
    }
  }
  double worst_mean = 0, worst_var = 0;
  for (std::int64_t t = 0; t < tokens; ++t) {
    const float* row = v.data() + t * n;
    double mean = 0, sq = 0;
    for (std::int64_t i = 0; i < n; ++i) mean += row[i];
    mean /= static_cast<double>(n);
    for (std::int64_t i = 0; i < n; ++i) {
      sq += (row[i] - mean) * (row[i] - mean);
    }
    worst_mean = std::max(worst_mean, std::fabs(mean));
    worst_var = std::max(worst_var, std::fabs(sq / static_cast<double>(n) - 1));
  }
  const bool ok = worst_mean <= kMeanTol && worst_var <= kVarTol;
  return Result("layernorm-property", ok,
                xflow::StrFormat("%lld tokens, max |mean| %.3g (tol %.0e), "
                                 "max |var-1| %.3g (tol %.0e)",
                                 static_cast<long long>(tokens), worst_mean,
                                 kMeanTol, worst_var, kVarTol));
}

CheckResult CheckMseLoss(const TensorH& y, const TensorH& target,
                         double program_loss, bool perturb) {
  const std::vector<float> yv = Dense(y, "ibj");
  const std::vector<float> tv = Dense(target, "ibj");
  double sum = 0;
  for (std::size_t e = 0; e < yv.size(); ++e) {
    float yy = yv[e];
    if (perturb && e < static_cast<std::size_t>(y.shape().extent('i'))) {
      yy += 0.5f;
    }
    const float diff = yy - tv[e];
    sum += static_cast<double>(diff) * diff;
  }
  const double mse = sum / static_cast<double>(yv.size());
  const double rel = std::fabs(mse - program_loss) / std::fabs(mse);
  return Result("mse-loss", rel <= kLossRelTol,
                xflow::StrFormat("benchmark %.17g vs program %.17g, rel %.3g "
                                 "(tol %.0e)",
                                 mse, program_loss, rel, kLossRelTol));
}

CheckResult CheckOutputBiasGradient(const TensorH& y, const TensorH& target,
                                    const TensorH& d_ln2_b, bool perturb) {
  const std::vector<float> yv = Dense(y, "ibj");
  const std::vector<float> tv = Dense(target, "ibj");
  std::vector<float> got = Dense(d_ln2_b, "i");
  const std::int64_t n = y.shape().extent('i');
  const std::int64_t per_row = y.size() / n;
  const auto count = static_cast<float>(y.size());
  double worst_ratio = 0, worst_err = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    double want = 0, abs_sum = 0;
    for (std::int64_t t = 0; t < per_row; ++t) {
      const auto e = static_cast<std::size_t>(i * per_row + t);
      // The loss head stores d_y = 2 (y - t) / N as fp16.
      const double term = float(Half(2.0f * (yv[e] - tv[e]) / count));
      want += term;
      abs_sum += std::fabs(term);
    }
    if (perturb && i == 0) got[0] += static_cast<float>(0.01 * abs_sum);
    // fp16 rounding of the stored gradient, plus fp32 accumulation of
    // per_row terms, plus the fp16 subnormal quantum.
    const double tol = 2 * kHalfRound * std::fabs(want) +
                       abs_sum / 65536.0 + 1.0 / (1 << 24);
    const double err = std::fabs(got[static_cast<std::size_t>(i)] - want);
    worst_err = std::max(worst_err, err);
    worst_ratio = std::max(worst_ratio, err / tol);
  }
  return Result("output-bias-gradient", worst_ratio <= 1.0,
                xflow::StrFormat("max |d_ln2_b - sum d_y| %.3g, %.2f of "
                                 "tolerance",
                                 worst_err, worst_ratio));
}

CheckResult CheckEmbeddingGradientBalance(const TensorH& d_token_table,
                                          const TensorH& d_pos_table,
                                          bool perturb) {
  const std::vector<float> tok = Dense(d_token_table, "vi");
  const std::vector<float> pos = Dense(d_pos_table, "ji");
  const std::int64_t n = d_token_table.shape().extent('i');
  std::vector<double> tok_sum(static_cast<std::size_t>(n), 0),
      tok_abs(static_cast<std::size_t>(n), 0),
      pos_sum(static_cast<std::size_t>(n), 0),
      pos_abs(static_cast<std::size_t>(n), 0);
  for (std::size_t e = 0; e < tok.size(); ++e) {
    tok_sum[e % static_cast<std::size_t>(n)] += tok[e];
    tok_abs[e % static_cast<std::size_t>(n)] += std::fabs(tok[e]);
  }
  for (std::size_t e = 0; e < pos.size(); ++e) {
    pos_sum[e % static_cast<std::size_t>(n)] += pos[e];
    pos_abs[e % static_cast<std::size_t>(n)] += std::fabs(pos[e]);
  }
  if (perturb) tok_sum[0] += 0.01 * (tok_abs[0] + pos_abs[0]);
  double worst_ratio = 0, worst_err = 0;
  for (std::size_t i = 0; i < tok_sum.size(); ++i) {
    // Every table entry is an fp32 sum rounded once to fp16.
    const double tol = 2 * kHalfRound * (tok_abs[i] + pos_abs[i]) + 1e-12;
    const double err = std::fabs(tok_sum[i] - pos_sum[i]);
    worst_err = std::max(worst_err, err);
    worst_ratio = std::max(worst_ratio, err / tol);
  }
  return Result("embedding-gradient-balance", worst_ratio <= 1.0,
                xflow::StrFormat("max |sum_v d_tok - sum_j d_pos| %.3g, %.2f "
                                 "of tolerance",
                                 worst_err, worst_ratio));
}

CheckResult CheckLossNonIncreasing(const std::vector<double>& losses,
                                   bool perturb) {
  std::vector<double> l = losses;
  if (perturb && l.size() > 1) l.back() = l.front() * (1 + 1e-3);
  std::size_t rises = 0;
  for (std::size_t s = 1; s < l.size(); ++s) {
    if (!(l[s] <= l[s - 1])) ++rises;
  }
  return Result("loss-non-increasing", rises == 0 && l.size() > 1,
                xflow::StrFormat("%zu steps, loss %.6g -> %.6g, %zu rises",
                                 l.size(), l.front(), l.back(), rises));
}

std::uint64_t Fingerprint(const TensorH& t) {
  // FNV-1a over 64-bit words of the fp16 data (the size is part of it).
  const auto n = static_cast<std::size_t>(t.size());
  std::uint64_t h = 0xcbf29ce484222325ULL ^ n;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  const std::size_t total = n * sizeof(Half);
  std::size_t k = 0;
  for (; k + sizeof(std::uint64_t) <= total; k += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, bytes + k, sizeof(word));
    h = (h ^ word) * 0x100000001b3ULL;
  }
  for (; k < total; ++k) h = (h ^ bytes[k]) * 0x100000001b3ULL;
  return h;
}

std::vector<std::uint64_t> Fingerprints(
    const std::vector<const TensorH*>& tensors) {
  std::vector<std::uint64_t> out;
  for (const TensorH* t : tensors) out.push_back(Fingerprint(*t));
  return out;
}

CheckResult CheckBitwiseEqual(const std::string& name,
                              const std::vector<double>& want_scalars,
                              const std::vector<double>& got_scalars,
                              const std::vector<std::uint64_t>& want,
                              const std::vector<const TensorH*>& got,
                              bool perturb) {
  std::size_t differing = 0;
  for (std::size_t s = 0; s < want_scalars.size(); ++s) {
    if (std::memcmp(&got_scalars[s], &want_scalars[s], sizeof(double)) != 0) {
      ++differing;
    }
  }
  std::int64_t elements = 0;
  for (std::size_t t = 0; t < want.size(); ++t) {
    elements += got[t]->size();
    std::uint64_t fp = 0;
    if (perturb && t == 0) {
      TensorH g(got[t]->shape());
      std::memcpy(g.data(), got[t]->data(),
                  static_cast<std::size_t>(g.size()) * sizeof(Half));
      g.data()[0] = Half(float(g.data()[0]) + 1.0f);
      fp = Fingerprint(g);
    } else {
      fp = Fingerprint(*got[t]);
    }
    if (fp != want[t]) ++differing;
  }
  return Result(name, differing == 0,
                xflow::StrFormat("%zu scalars and %zu tensors (%lld elements), "
                                 "%zu differ",
                                 want_scalars.size(), want.size(),
                                 static_cast<long long>(elements), differing));
}

}  // namespace perfbench
