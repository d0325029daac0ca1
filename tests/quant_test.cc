// Tests for the int8 row-quantization path (tensor/quant.h, Tensor::
// QuantizeInt8) and the shared kernels (tensor/kernels.h): round-trip
// error bounds, determinism across thread counts, the fused int8 MatMul's
// bit-identity with dequantize-then-MatMul, and that every kernel fully
// defines its output over dirty memory.
#include "tensor/quant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace vsd::tensor {
namespace {

namespace k = ::vsd::tensor::kernels;

/// RAII global-thread-count override.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(int n) { ThreadPool::SetGlobalThreads(n); }
  ~ThreadsGuard() { ThreadPool::SetGlobalThreads(1); }
};

TEST(QuantRowTest, RoundTripErrorBoundedByHalfScale) {
  Rng rng(1);
  constexpr int kN = 257;
  std::vector<float> x(kN);
  for (float& v : x) v = rng.Normal() * 3.0f;
  std::vector<int8_t> q(kN);
  const RowQuant rq = QuantizeRowInt8(x.data(), kN, q.data());
  std::vector<float> dq(kN);
  DequantizeRowInt8(q.data(), kN, rq.scale, rq.zero_point, dq.data());
  // Round-to-nearest: |x - dq| <= scale/2 (plus fp rounding slack).
  const float bound = rq.scale * 0.5f * 1.0001f + 1e-7f;
  for (int i = 0; i < kN; ++i) {
    EXPECT_LE(std::fabs(x[i] - dq[i]), bound) << "i=" << i;
  }
}

TEST(QuantRowTest, DegenerateRowsQuantizeToExactValues) {
  // Constant rows have zero range; the degenerate scale must still
  // round-trip the constant and keep zeros exact.
  for (float c : {0.0f, 1.5f, -2.25f}) {
    std::vector<float> x(8, c);
    std::vector<int8_t> q(8);
    const RowQuant rq = QuantizeRowInt8(x.data(), 8, q.data());
    std::vector<float> dq(8);
    DequantizeRowInt8(q.data(), 8, rq.scale, rq.zero_point, dq.data());
    for (float v : dq) EXPECT_FLOAT_EQ(v, c);
  }
}

TEST(QuantRowTest, ZerosSurviveRoundTripExactly) {
  // The quantization range is widened to include 0 so that exact zeros map
  // to the zero point — the MatMul zero-row skip depends on this.
  std::vector<float> x = {0.0f, 5.0f, 0.0f, -3.0f, 0.0f, 7.5f};
  std::vector<int8_t> q(x.size());
  const RowQuant rq =
      QuantizeRowInt8(x.data(), static_cast<int>(x.size()), q.data());
  std::vector<float> dq(x.size());
  DequantizeRowInt8(q.data(), static_cast<int>(x.size()), rq.scale,
                    rq.zero_point, dq.data());
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0.0f) {
      EXPECT_EQ(dq[i], 0.0f) << "i=" << i;
    }
  }
}

TEST(QuantTensorTest, QuantizeIsDeterministicAcrossThreadCounts) {
  Rng rng(7);
  Tensor w = Tensor::Randn({64, 96}, &rng);
  Tensor q1, q4;
  {
    ThreadsGuard threads(1);
    q1 = w.QuantizeInt8();
  }
  {
    ThreadsGuard threads(4);
    q4 = w.QuantizeInt8();
  }
  const size_t n = static_cast<size_t>(64) * 96;
  EXPECT_EQ(0, std::memcmp(q1.qdata(), q4.qdata(), n * sizeof(int8_t)));
  EXPECT_EQ(0, std::memcmp(q1.qscale(), q4.qscale(), 64 * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(q1.qzero(), q4.qzero(), 64 * sizeof(int32_t)));
}

TEST(QuantTensorTest, DequantizeRoundTripsWithinPerRowBound) {
  Rng rng(9);
  Tensor w = Tensor::Randn({16, 40}, &rng);
  Tensor q = w.QuantizeInt8();
  EXPECT_EQ(q.dtype(), DType::kI8);
  Tensor dq = q.DequantizeF32();
  EXPECT_EQ(dq.dtype(), DType::kF32);
  for (int i = 0; i < 16; ++i) {
    const float bound = q.qscale()[i] * 0.5f * 1.0001f + 1e-7f;
    for (int j = 0; j < 40; ++j) {
      EXPECT_LE(std::fabs(w.data()[i * 40 + j] - dq.data()[i * 40 + j]),
                bound);
    }
  }
}

TEST(QuantMatMulTest, FusedInt8MatchesDequantizeThenMatMulBitwise) {
  // The fused kernel dequantizes inline in the same k-order the fp32
  // kernel reads b, so both orderings see identical float op sequences.
  Rng rng(11);
  for (int n : {8, 13, 64}) {
    Tensor a = Tensor::Randn({5, 24}, &rng);
    Tensor b = Tensor::Randn({24, n}, &rng);
    Tensor bq = b.QuantizeInt8();
    Tensor fused = MatMul(a, bq);
    Tensor reference = MatMul(a, bq.DequantizeF32());
    ASSERT_EQ(fused.size(), reference.size());
    EXPECT_EQ(0, std::memcmp(fused.data(), reference.data(),
                             fused.size() * sizeof(float)))
        << "n=" << n;
  }
}

// Runs `fn` into two buffers pre-filled with different patterns and
// expects bitwise equality: a kernel that skips any output element (a
// ragged tail, a zero-skipped row, an out-of-bounds tap) leaves the two
// patterns showing through and fails.
template <typename Fn>
void ExpectOutputFullyDefined(size_t out_size, Fn&& fn) {
  std::vector<float> out_a(out_size, -123.25f);
  std::vector<float> out_b(out_size, 456.75f);
  fn(out_a.data());
  fn(out_b.data());
  EXPECT_EQ(0, std::memcmp(out_a.data(), out_b.data(),
                           out_size * sizeof(float)));
}

TEST(KernelOutputTest, MatMulF32IncludingTails) {
  Rng rng(21);
  for (int n : {1, 7, 8, 9, 16, 33}) {
    Tensor a = Tensor::Randn({4, 10}, &rng);
    Tensor b = Tensor::Randn({10, n}, &rng);
    ExpectOutputFullyDefined(static_cast<size_t>(4) * n, [&](float* out) {
      k::MatMulInto(a.data(), b.data(), out, 4, 10, n);
    });
  }
}

TEST(KernelOutputTest, MatMulF32SkipsZeroRows) {
  // A whole row of zeros in `a` skips every MAC for that output row.
  Rng rng(22);
  Tensor a = Tensor::Randn({6, 12}, &rng);
  for (int j = 0; j < 12; ++j) a.data()[2 * 12 + j] = 0.0f;
  Tensor b = Tensor::Randn({12, 9}, &rng);
  ExpectOutputFullyDefined(static_cast<size_t>(6) * 9, [&](float* out) {
    k::MatMulInto(a.data(), b.data(), out, 6, 12, 9);
  });
}

TEST(KernelOutputTest, MatMulI8IncludingTails) {
  Rng rng(23);
  for (int n : {1, 7, 8, 15, 32}) {
    Tensor a = Tensor::Randn({3, 20}, &rng);
    Tensor bq = Tensor::Randn({20, n}, &rng).QuantizeInt8();
    ExpectOutputFullyDefined(static_cast<size_t>(3) * n, [&](float* out) {
      k::MatMulI8Into(a.data(), bq.qdata(), bq.qscale(), bq.qzero(), out, 3,
                      20, n);
    });
  }
}

TEST(KernelOutputTest, AddRowsIncludingTails) {
  Rng rng(24);
  for (int cols : {1, 5, 8, 19, 64}) {
    Tensor a = Tensor::Randn({7, cols}, &rng);
    Tensor bias = Tensor::Randn({cols}, &rng);
    ExpectOutputFullyDefined(static_cast<size_t>(7) * cols, [&](float* out) {
      k::AddRowsInto(a.data(), bias.data(), out, 7, cols);
    });
  }
}

TEST(KernelOutputTest, ReluHandlesNegZeroAndSpecials) {
  // -0.0f and denormals must still write a defined value.
  std::vector<float> x = {-1.0f, 0.0f,  -0.0f, 2.5f,   -2.5f, 1e-38f,
                          -1e-38f, 3.0f, -4.0f, 0.125f, 7.0f,  -0.5f};
  ExpectOutputFullyDefined(x.size(), [&](float* out) {
    k::ReluInto(x.data(), out, static_cast<int>(x.size()));
  });
}

TEST(KernelOutputTest, GeluIncludingTails) {
  Rng rng(25);
  for (int n : {3, 8, 11, 40}) {
    Tensor x = Tensor::Randn({n}, &rng);
    ExpectOutputFullyDefined(static_cast<size_t>(n), [&](float* out) {
      k::GeluInto(x.data(), out, n);
    });
  }
}

TEST(KernelOutputTest, ConcatRowsMixedWidths) {
  Rng rng(26);
  Tensor a = Tensor::Randn({5, 13}, &rng);
  Tensor b = Tensor::Randn({5, 6}, &rng);
  ExpectOutputFullyDefined(static_cast<size_t>(5) * 19, [&](float* out) {
    k::ConcatRowsInto(a.data(), b.data(), out, 5, 13, 6);
  });
}

TEST(KernelOutputTest, Im2ColWithPadding) {
  // Padding taps read as zero without touching x, so the kernel must write
  // them itself.
  Rng rng(27);
  constexpr int kN = 2, kH = 5, kW = 4, kC = 3, kK = 3;
  Tensor x = Tensor::Randn({kN, kH, kW, kC}, &rng);
  for (int stride : {1, 2}) {
    for (int pad : {1, 2}) {
      const int oh = (kH + 2 * pad - kK) / stride + 1;
      const int ow = (kW + 2 * pad - kK) / stride + 1;
      ExpectOutputFullyDefined(
          static_cast<size_t>(kN) * oh * ow * kK * kK * kC, [&](float* out) {
            k::Im2ColInto(x.data(), out, kN, kH, kW, kC, kK, kK, stride, pad);
          });
    }
  }
}

TEST(QuantTensorTest, CloneDeepCopiesQuantStorage) {
  Rng rng(31);
  Tensor q = Tensor::Randn({4, 12}, &rng).QuantizeInt8();
  Tensor c = q.Clone();
  EXPECT_EQ(c.dtype(), DType::kI8);
  EXPECT_NE(c.qdata(), q.qdata());
  EXPECT_EQ(0, std::memcmp(c.qdata(), q.qdata(), 4 * 12));
}

}  // namespace
}  // namespace vsd::tensor
