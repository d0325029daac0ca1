#ifndef VSD_TENSOR_KERNELS_H_
#define VSD_TENSOR_KERNELS_H_

#include <cstdint>

namespace vsd::tensor::kernels {

// ---- Shared compute kernels ----
//
// Every op that appears both in the eager tensor/autograd forward pass and
// in the compiled graph executor (`nn::graph`) is computed by exactly one
// function below, and both execution modes call it directly. Bit-identity
// between the modes is therefore structural (docs/INTERNALS.md "Kernels &
// dtypes"); `tests/graph_exec_test.cc` and `tests/quant_test.cc` pin it.
//
// Kernels fully define their output range (zero-initializing first where
// the loop accumulates or writes sparsely), so callers may hand them
// arbitrary dirty memory — e.g. a reused arena slot. No kernel allocates,
// so all of them are safe inside Execute's zero-allocation contract.

/// [M,K]x[K,N] -> [M,N]. Each zero element a[i,p] is skipped, and with it
/// the whole row p of `b` for output row i (the one-hot / sparse-mask fast
/// path the eager MatMul relies on).
void MatMulInto(const float* a, const float* b, float* out, int m, int k,
                int n);

/// [M,K]x[K,N] -> [M,N] where b is int8 row-quantized: bq[p*n+j] with
/// per-k-row scale/zero_point (tensor/quant.h format). Dequantizes inline
/// in the same fixed k-order as the fp32 kernel and accumulates in fp32,
/// so the result is bit-identical to MatMulInto over the dequantized b.
void MatMulI8Into(const float* a, const int8_t* bq, const float* bscale,
                  const int32_t* bzero, float* out, int m, int k, int n);

/// Row-broadcast sum: out[i,j] = a[i,j] + bias[j] for a [rows,cols].
void AddRowsInto(const float* a, const float* bias, float* out, int rows,
                 int cols);

/// Element-wise maps over `n` contiguous floats.
void ReluInto(const float* x, float* out, int n);
void TanhInto(const float* x, float* out, int n);
void SigmoidInto(const float* x, float* out, int n);
/// GELU, tanh approximation — the only form the model uses.
void GeluInto(const float* x, float* out, int n);

/// Row-wise concat of a [rows,da] and b [rows,db] into out [rows,da+db].
void ConcatRowsInto(const float* a, const float* b, float* out, int rows,
                    int da, int db);

/// im2col over NHWC input x [n,h,w,c] into out [n*oh*ow, kh*kw*c] where
/// oh/ow follow `autograd::ConvOutDim`. Out-of-bounds taps read as zero.
void Im2ColInto(const float* x, float* out, int n, int h, int w, int c,
                int kh, int kw, int stride, int pad);

}  // namespace vsd::tensor::kernels

#endif  // VSD_TENSOR_KERNELS_H_
